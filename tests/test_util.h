#ifndef BELLWETHER_TESTS_TEST_UTIL_H_
#define BELLWETHER_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/bellwether_cube.h"
#include "core/bellwether_state.h"
#include "storage/training_data.h"

namespace bellwether {

/// A scratch-file path owned by the running test. ctest runs every
/// discovered test as its own process, concurrently, so a fixed name under
/// TempDir() shared by two tests lets one test's cleanup delete the other's
/// file mid-run. The test name and the pid keep paths apart; `tag` names the
/// file within the test.
inline std::string UniqueTempPath(const std::string& tag) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::string name = info == nullptr ? std::string("no_test")
                                     : std::string(info->test_suite_name()) +
                                           "." + info->name();
  for (char& c : name) {
    if (c == '/') c = '_';  // parameterized test names
  }
  return ::testing::TempDir() + "/" + name + "." + std::to_string(getpid()) +
         "." + tag;
}

/// The production cube path over in-memory sets: Init, one ApplyDelta of
/// every set, Finalize.
inline Result<core::BellwetherCube> BuildCubeViaState(
    std::vector<storage::RegionTrainingSet> sets,
    std::shared_ptr<const core::ItemSubsetSpace> subsets,
    const core::CubeBuildConfig& config) {
  core::BellwetherState::Options options;
  options.config = config;
  BW_ASSIGN_OR_RETURN(
      std::unique_ptr<core::BellwetherState> state,
      core::BellwetherState::Init(std::move(subsets), std::move(options)));
  BW_RETURN_IF_ERROR(state->ApplyDelta(std::move(sets)));
  return state->Finalize();
}

/// One seeded mutation of a file image, for the loader mutation loops (no
/// libFuzzer here, so the loop is a plain deterministic test): flip 1-4
/// bits, insert 1-16 random bytes, delete 1-16 bytes, truncate, or splice
/// (join the prefix before one random point to the suffix from another,
/// which drops or repeats a stretch). `base` must not be empty.
inline std::string MutateBytes(const std::string& base, Rng& rng) {
  std::string m = base;
  const uint64_t size = base.size();
  switch (rng.NextUint64(5)) {
    case 0: {
      const uint64_t flips = 1 + rng.NextUint64(4);
      for (uint64_t i = 0; i < flips; ++i) {
        m[rng.NextUint64(size)] ^= static_cast<char>(1u << rng.NextUint64(8));
      }
      break;
    }
    case 1: {
      std::string bytes(1 + rng.NextUint64(16), '\0');
      for (char& c : bytes) c = static_cast<char>(rng.NextUint64(256));
      m.insert(rng.NextUint64(size + 1), bytes);
      break;
    }
    case 2:
      m.erase(rng.NextUint64(size), 1 + rng.NextUint64(16));
      break;
    case 3:
      m.resize(rng.NextUint64(size));
      break;
    default: {
      const uint64_t cut = rng.NextUint64(size + 1);
      const uint64_t resume = rng.NextUint64(size + 1);
      m = base.substr(0, cut) + base.substr(resume);
      break;
    }
  }
  return m;
}

}  // namespace bellwether

#endif  // BELLWETHER_TESTS_TEST_UTIL_H_

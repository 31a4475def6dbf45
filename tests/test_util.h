#ifndef BELLWETHER_TESTS_TEST_UTIL_H_
#define BELLWETHER_TESTS_TEST_UTIL_H_

#include <gtest/gtest.h>
#include <unistd.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

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

}  // namespace bellwether

#endif  // BELLWETHER_TESTS_TEST_UTIL_H_

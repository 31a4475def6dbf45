// Corruption hardening of the model/tree/cube loaders: truncated files and
// byte flips fail with clean statuses (never a crash or a partial object),
// version-mismatched headers are told apart from garbage, implausible counts
// are rejected before allocation, and non-finite values round-trip.

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include <sstream>

#include "common/random.h"
#include "core/bellwether_cube.h"
#include "core/bellwether_state.h"
#include "core/bellwether_tree.h"
#include "core/model_io.h"
#include "datagen/simulation.h"
#include "regression/linear_model.h"
#include "regression/suff_stats_io.h"
#include "storage/training_data.h"
#include "test_util.h"

namespace bellwether::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::string ReadAll(const std::string& path) {
  std::ifstream in(path);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& content) {
  std::ofstream out(path);
  out << content;
}

datagen::SimulationDataset MakeSim(uint64_t seed) {
  datagen::SimulationConfig config;
  config.num_items = 200;
  config.generator_tree_nodes = 7;
  config.noise = 0.2;
  config.num_windows = 3;
  config.location_fanouts = {2, 2};
  config.seed = seed;
  return datagen::GenerateSimulation(config);
}

TEST(ModelIoCorruptionTest, VersionMismatchIsFailedPrecondition) {
  const std::string path = UniqueTempPath("old_version.bwl");
  WriteAll(path, "bellwether-linear-v0\n42\n1 1.5\n");
  auto r = LoadLinearModel(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(ModelIoCorruptionTest, WrongArtifactKindIsFailedPrecondition) {
  // A valid tree file handed to the cube loader: recognizably ours, but the
  // wrong kind — the caller picked the wrong loader, not a corrupt file.
  const std::string path = UniqueTempPath("kind.bwc");
  WriteAll(path, "bellwether-tree-v2\n0\n1\n");
  auto r = LoadBellwetherCube(path, nullptr);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
  std::remove(path.c_str());
}

TEST(ModelIoCorruptionTest, GarbageMagicIsInvalidArgument) {
  const std::string path = UniqueTempPath("garbage.bwl");
  WriteAll(path, "#!/bin/sh\necho not a model\n");
  auto r = LoadLinearModel(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST(ModelIoCorruptionTest, ImplausibleVectorLengthIsRejected) {
  // A corrupt length field must not become a huge allocation.
  const std::string path = UniqueTempPath("huge.bwl");
  WriteAll(path, "bellwether-linear-v1\n42\n9999999999999 1.5\n");
  auto r = LoadLinearModel(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

TEST(ModelIoCorruptionTest, LinearModelWithInfAndNanRoundTrips) {
  const std::string path = UniqueTempPath("inf.bwl");
  regression::LinearModel model({kInf, -kInf, 1.0});
  ASSERT_TRUE(SaveLinearModel(model, 7, path).ok());
  auto back = LoadLinearModel(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ(back->model.beta().size(), 3u);
  EXPECT_EQ(back->model.beta()[0], kInf);
  EXPECT_EQ(back->model.beta()[1], -kInf);
  EXPECT_EQ(back->model.beta()[2], 1.0);
  std::remove(path.c_str());
}

TEST(ModelIoCorruptionTest, DegradedCubeCellRoundTrips) {
  datagen::SimulationDataset sim = MakeSim(81);
  auto subsets = ItemSubsetSpace::Create(sim.items, sim.item_hierarchies);
  ASSERT_TRUE(subsets.ok());
  storage::MemoryTrainingData source(sim.sets);
  CubeBuildConfig config;
  config.min_subset_size = 20;
  config.min_examples_per_model = 8;
  config.compute_cv_stats = false;
  auto cube = BuildBellwetherCubeOptimized(&source, *subsets, config);
  ASSERT_TRUE(cube.ok());
  ASSERT_FALSE(cube->cells().empty());
  // Simulate a degraded, fallback-picked cell (error = +inf) as produced by
  // the graceful-degradation chain, and check the loader preserves it.
  CubeCell& cell = cube->mutable_cells()[0];
  cell.error = kInf;
  cell.degradation = regression::FitDegradation::kMeanFallback;
  cell.fallback_pick = true;

  const std::string path = UniqueTempPath("degraded.bwc");
  ASSERT_TRUE(SaveBellwetherCube(*cube, path).ok());
  auto back = LoadBellwetherCube(path, *subsets);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->cells()[0].error, kInf);
  EXPECT_EQ(back->cells()[0].degradation,
            regression::FitDegradation::kMeanFallback);
  EXPECT_TRUE(back->cells()[0].fallback_pick);
  EXPECT_EQ(back->cells()[1].degradation, regression::FitDegradation::kNone);
  EXPECT_FALSE(back->cells()[1].fallback_pick);
  std::remove(path.c_str());
}

TEST(ModelIoCorruptionTest, TruncatedCubeFailsCleanlyAtEveryBoundary) {
  datagen::SimulationDataset sim = MakeSim(83);
  auto subsets = ItemSubsetSpace::Create(sim.items, sim.item_hierarchies);
  ASSERT_TRUE(subsets.ok());
  storage::MemoryTrainingData source(sim.sets);
  CubeBuildConfig config;
  config.min_subset_size = 20;
  config.min_examples_per_model = 8;
  config.compute_cv_stats = false;
  auto cube = BuildBellwetherCubeOptimized(&source, *subsets, config);
  ASSERT_TRUE(cube.ok());
  const std::string path = UniqueTempPath("trunc.bwc");
  ASSERT_TRUE(SaveBellwetherCube(*cube, path).ok());
  const std::string content = ReadAll(path);
  ASSERT_GT(content.size(), 100u);

  // Section boundaries: end of magic, end of header, mid first cell, and a
  // cut inside the last cell's model vector.
  const size_t magic_end = content.find('\n') + 1;
  const size_t header_end = content.find('\n', magic_end) + 1;
  for (size_t cut : {size_t{0}, magic_end, header_end, header_end + 10,
                     content.size() / 2}) {
    WriteAll(path, content.substr(0, cut));
    auto r = LoadBellwetherCube(path, *subsets);
    ASSERT_FALSE(r.ok()) << "cut at " << cut;
    EXPECT_EQ(r.status().code(), StatusCode::kIoError) << "cut at " << cut;
  }
  std::remove(path.c_str());
}

TEST(ModelIoCorruptionTest, TruncatedTreeFailsCleanly) {
  datagen::SimulationDataset sim = MakeSim(85);
  storage::MemoryTrainingData source(sim.sets);
  TreeBuildConfig config;
  config.split_columns = sim.feature_columns;
  config.min_items = 40;
  config.max_depth = 3;
  config.min_examples_per_model = 10;
  auto tree = BuildBellwetherTreeRainForest(&source, sim.items, config);
  ASSERT_TRUE(tree.ok());
  const std::string path = UniqueTempPath("trunc.bwt");
  ASSERT_TRUE(SaveBellwetherTree(*tree, path).ok());
  const std::string content = ReadAll(path);
  // Section boundaries: after the magic (missing column count), after the
  // column count (missing column names), and inside the first node header.
  const size_t magic_end = content.find('\n') + 1;
  const size_t col_count_end = content.find('\n', magic_end) + 1;
  size_t nodes_start = col_count_end;
  for (size_t i = 0; i < sim.feature_columns.size() + 1; ++i) {
    nodes_start = content.find('\n', nodes_start) + 1;
  }
  for (size_t cut : {magic_end, col_count_end, nodes_start + 2}) {
    WriteAll(path, content.substr(0, cut));
    auto r = LoadBellwetherTree(path, sim.items);
    ASSERT_FALSE(r.ok()) << "cut at " << cut;
    EXPECT_EQ(r.status().code(), StatusCode::kIoError) << "cut at " << cut;
  }
  std::remove(path.c_str());
}

TEST(ModelIoCorruptionTest, ByteFlipsNeverCrashTheLoader) {
  datagen::SimulationDataset sim = MakeSim(87);
  storage::MemoryTrainingData source(sim.sets);
  TreeBuildConfig config;
  config.split_columns = sim.feature_columns;
  config.min_items = 40;
  config.max_depth = 3;
  config.min_examples_per_model = 10;
  auto tree = BuildBellwetherTreeRainForest(&source, sim.items, config);
  ASSERT_TRUE(tree.ok());
  const std::string path = UniqueTempPath("flip.bwt");
  ASSERT_TRUE(SaveBellwetherTree(*tree, path).ok());
  const std::string content = ReadAll(path);
  // Overwrite single bytes with a value no valid token contains; the loader
  // must return an error (or, for bytes in string sections, a clean load) —
  // never crash or over-allocate. ASan/UBSan builds give this test teeth.
  for (size_t pos = 0; pos < content.size();
       pos += content.size() / 37 + 1) {
    std::string flipped = content;
    flipped[pos] = '\x01';
    WriteAll(path, flipped);
    auto r = LoadBellwetherTree(path, sim.items);
    (void)r;  // any Status is acceptable; crashing is not
  }
  std::remove(path.c_str());
}

// ---- Packed sufficient-statistics wire format ----

TEST(SuffStatsIoTest, PackedStatsRoundTripForEveryArity) {
  Rng rng(123);
  for (size_t p = 1; p <= 8; ++p) {
    SCOPED_TRACE("p=" + std::to_string(p));
    regression::RegressionSuffStats stats(p);
    std::vector<double> x(p);
    for (int i = 0; i < 40; ++i) {
      for (double& v : x) v = rng.NextGaussian();
      stats.Add(x.data(), rng.NextGaussian(), 1.0 + rng.NextDouble());
    }
    std::stringstream wire;
    regression::WriteSuffStats(wire, stats);
    auto back = regression::ReadSuffStats(wire);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(back->num_features(), p);
    EXPECT_EQ(back->num_examples(), stats.num_examples());
    EXPECT_EQ(back->sum_weights(), stats.sum_weights());
    // The packed triangle round-trips bit for bit (%.17g).
    EXPECT_EQ(back->packed_xtwx(), stats.packed_xtwx());
  }
}

TEST(SuffStatsIoTest, TruncatedTriangleIsIoError) {
  regression::RegressionSuffStats stats(4);
  std::vector<double> x{1.0, 2.0, 3.0, 4.0};
  stats.Add(x.data(), 1.5);
  std::stringstream wire;
  regression::WriteSuffStats(wire, stats);
  std::string line = wire.str();
  // Cut inside the packed-triangle section (after the 6th token: tag, p, n,
  // sum_w, ytwy, first triangle value).
  size_t pos = 0;
  for (int tok = 0; tok < 6; ++tok) pos = line.find(' ', pos + 1);
  std::stringstream cut(line.substr(0, pos));
  auto r = regression::ReadSuffStats(cut);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST(SuffStatsIoTest, ImplausibleCountsAreRejectedBeforeAllocation) {
  // Arity beyond the 4096 bound: would be a ~8M-doubles triangle.
  std::stringstream huge_p("stats 99999999 1 1 0\n");
  auto rp = regression::ReadSuffStats(huge_p);
  ASSERT_FALSE(rp.ok());
  EXPECT_EQ(rp.status().code(), StatusCode::kIoError);

  // Example count beyond 2^48: no real scan produces it — corruption.
  std::stringstream huge_n("stats 1 999999999999999999 1 0 1 1\n");
  auto rn = regression::ReadSuffStats(huge_n);
  ASSERT_FALSE(rn.ok());
  EXPECT_EQ(rn.status().code(), StatusCode::kIoError);
}

// ---- Bellwether state files ----

class StateFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    sim_ = MakeSim(89);
    auto subsets = ItemSubsetSpace::Create(sim_.items, sim_.item_hierarchies);
    ASSERT_TRUE(subsets.ok());
    subsets_ = *subsets;
    BellwetherState::Options options;
    options.config.min_subset_size = 20;
    options.config.min_examples_per_model = 8;
    auto state = BellwetherState::Init(subsets_, options);
    ASSERT_TRUE(state.ok());
    state_ = std::move(*state);
    ASSERT_TRUE(state_->ApplyDelta(sim_.sets).ok());
    path_ = UniqueTempPath("corrupt_state.bws");
    ASSERT_TRUE(state_->Save(path_).ok());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  datagen::SimulationDataset sim_;
  std::shared_ptr<const ItemSubsetSpace> subsets_;
  std::unique_ptr<BellwetherState> state_;
  std::string path_;
};

TEST_F(StateFileTest, WrongArtifactKindIsFailedPrecondition) {
  WriteAll(path_, "bellwether-cube-v2\n0 0\n");
  auto r = LoadBellwetherState(path_, subsets_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(StateFileTest, GarbageMagicIsInvalidArgument) {
  WriteAll(path_, "not a state file\n");
  auto r = LoadBellwetherState(path_, subsets_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(StateFileTest, TruncationFailsCleanlyAtEveryBoundary) {
  const std::string content = ReadAll(path_);
  ASSERT_GT(content.size(), 200u);
  // Boundaries: empty file, end of magic, mid-header, mid first region's
  // suff-stats, and a cut inside the retained-rows arrays.
  const size_t magic_end = content.find('\n') + 1;
  for (size_t cut : {size_t{0}, magic_end, magic_end + 20,
                     content.size() / 3, content.size() - 5}) {
    WriteAll(path_, content.substr(0, cut));
    auto r = LoadBellwetherState(path_, subsets_);
    ASSERT_FALSE(r.ok()) << "cut at " << cut;
    EXPECT_EQ(r.status().code(), StatusCode::kIoError) << "cut at " << cut;
  }
}

TEST_F(StateFileTest, NonPositiveWeightIsIoError) {
  // A weighted state: every retained row carries an explicit weight.
  BellwetherState::Options options;
  options.config.min_subset_size = 20;
  options.config.min_examples_per_model = 8;
  auto weighted = BellwetherState::Init(subsets_, options);
  ASSERT_TRUE(weighted.ok());
  std::vector<storage::RegionTrainingSet> sets = sim_.sets;
  for (auto& set : sets) set.weights.assign(set.num_examples(), 1.5);
  ASSERT_TRUE((*weighted)->ApplyDelta(std::move(sets)).ok());
  ASSERT_TRUE((*weighted)->Save(path_).ok());
  ASSERT_TRUE(LoadBellwetherState(path_, subsets_).ok());

  std::string content = ReadAll(path_);
  const size_t tag = content.find("\nweights ");
  ASSERT_NE(tag, std::string::npos);
  const size_t begin = tag + std::string("\nweights ").size();
  const size_t end = content.find_first_of(" \n", begin);
  ASSERT_NE(end, std::string::npos);
  content.replace(begin, end - begin, "0");
  WriteAll(path_, content);
  auto r = LoadBellwetherState(path_, subsets_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST_F(StateFileTest, ByteFlipsNeverCrashTheLoader) {
  const std::string content = ReadAll(path_);
  for (size_t pos = 0; pos < content.size();
       pos += content.size() / 41 + 1) {
    std::string flipped = content;
    flipped[pos] = '\x01';
    WriteAll(path_, flipped);
    auto r = LoadBellwetherState(path_, subsets_);
    (void)r;  // any Status is acceptable; crashing is not
  }
}

}  // namespace
}  // namespace bellwether::core

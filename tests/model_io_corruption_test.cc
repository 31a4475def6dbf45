// Corruption hardening of the model/tree/cube/state loaders: truncated files
// and byte flips fail with clean statuses (never a crash or a partial
// object), version-mismatched headers are told apart from garbage,
// implausible counts are rejected before allocation, non-finite values
// round-trip, and the binary state survives a seeded mutation loop.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <limits>
#include <string>

#include "common/random.h"
#include "core/bellwether_cube.h"
#include "core/bellwether_state.h"
#include "core/bellwether_tree.h"
#include "core/eval_util.h"
#include "core/model_io.h"
#include "datagen/simulation.h"
#include "regression/linear_model.h"
#include "robust/checkpoint.h"
#include "storage/training_data.h"
#include "test_util.h"

namespace bellwether::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

void WriteAll(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
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

TEST(ModelIoCorruptionTest, ShortenedVectorLengthIsIoError) {
  // A length field corrupted to a smaller value parses; the value it no
  // longer covers is left over after the last record.
  const std::string path = UniqueTempPath("short.bwl");
  WriteAll(path, "bellwether-linear-v1\n42\n2 1.5 2.5 3.5\n");
  auto r = LoadLinearModel(path);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

// Lines of a text artifact, and the image they join back into.
std::vector<std::string> Lines(const std::string& image) {
  std::vector<std::string> lines;
  size_t begin = 0;
  while (begin < image.size()) {
    const size_t end = image.find('\n', begin);
    lines.push_back(image.substr(begin, end - begin));
    begin = end + 1;
  }
  return lines;
}

std::string Join(const std::vector<std::string>& lines) {
  std::string out;
  for (const std::string& line : lines) out += line + "\n";
  return out;
}

class CubeFileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    datagen::SimulationDataset sim = MakeSim(97);
    auto subsets = ItemSubsetSpace::Create(sim.items, sim.item_hierarchies);
    ASSERT_TRUE(subsets.ok());
    subsets_ = *subsets;
    storage::MemoryTrainingData source(sim.sets);
    CubeBuildConfig config;
    config.min_subset_size = 20;
    config.min_examples_per_model = 8;
    auto cube = BuildBellwetherCubeOptimized(&source, subsets_, config);
    ASSERT_TRUE(cube.ok());
    path_ = UniqueTempPath("cube.bwc");
    ASSERT_TRUE(SaveBellwetherCube(*cube, path_).ok());
    // Magic, header, then a header line and a model line per cell.
    lines_ = Lines(ReadAll(path_));
    ASSERT_GE(lines_.size(), 6u);
    ASSERT_TRUE(cube->cells()[0].has_model);
    ASSERT_TRUE(cube->cells()[1].has_model);
    ASSERT_TRUE(LoadBellwetherCube(path_, subsets_).ok());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  Status LoadEdited(const std::vector<std::string>& lines) {
    WriteAll(path_, Join(lines));
    return LoadBellwetherCube(path_, subsets_).status();
  }

  std::shared_ptr<const ItemSubsetSpace> subsets_;
  std::string path_;
  std::vector<std::string> lines_;
};

TEST_F(CubeFileTest, TwoCellsForOneSubsetIsInvalidArgument) {
  // The second cell claims the first cell's subset.
  std::vector<std::string> lines = lines_;
  const std::string first = lines[2].substr(0, lines[2].find(' '));
  lines[4] = first + lines[4].substr(lines[4].find(' '));
  const Status st = LoadEdited(lines);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST_F(CubeFileTest, ModelOfAnotherArityIsInvalidArgument) {
  // The second cell's model loses its last coefficient, length and all, so
  // the file stays well-formed but the model would read short of each row.
  std::vector<std::string> lines = lines_;
  std::string& model = lines[5];
  const size_t p = std::stoul(model.substr(0, model.find(' ')));
  model = std::to_string(p - 1) +
          model.substr(model.find(' '), model.rfind(' ') - model.find(' '));
  const Status st = LoadEdited(lines);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
}

TEST_F(CubeFileTest, TrailingRecordIsIoError) {
  std::vector<std::string> lines = lines_;
  lines.push_back("7");
  const Status st = LoadEdited(lines);
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kIoError);
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

// A small saved tree over MakeSim(seed), as file bytes.
std::string SavedTreeImage(const datagen::SimulationDataset& sim,
                           const std::string& path) {
  storage::MemoryTrainingData source(sim.sets);
  TreeBuildConfig config;
  config.split_columns = sim.feature_columns;
  config.min_items = 40;
  config.max_depth = 3;
  config.min_examples_per_model = 10;
  auto tree = BuildBellwetherTreeRainForest(&source, sim.items, config);
  EXPECT_TRUE(tree.ok());
  EXPECT_GT(tree->nodes().size(), 1u);
  EXPECT_TRUE(SaveBellwetherTree(*tree, path).ok());
  return ReadAll(path);
}

// Replaces the children line of node `node` in a saved tree image. A node
// is four lines (header, model, split, children) after the magic, the
// column count, the column names and the node count.
std::string WithChildren(const std::string& image, size_t num_columns,
                         size_t node, const std::string& children) {
  const size_t line = 3 + num_columns + 4 * node + 3;
  size_t begin = 0;
  for (size_t i = 0; i < line; ++i) begin = image.find('\n', begin) + 1;
  const size_t end = image.find('\n', begin);
  return image.substr(0, begin) + children + image.substr(end);
}

TEST(ModelIoCorruptionTest, SelfChildTreeIsInvalidArgument) {
  datagen::SimulationDataset sim = MakeSim(89);
  const std::string path = UniqueTempPath("self_child.bwt");
  const std::string image = SavedTreeImage(sim, path);
  ASSERT_TRUE(LoadBellwetherTree(path, sim.items).ok());
  const size_t k = sim.feature_columns.size();
  // The root its own child, a child pointing back at the root, and one
  // node listed under the root twice.
  for (const std::string& children : {std::string("1 0"), std::string("2 1 0"),
                                      std::string("2 1 1")}) {
    SCOPED_TRACE(children);
    WriteAll(path, WithChildren(image, k, 0, children));
    auto r = LoadBellwetherTree(path, sim.items);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  }
  std::remove(path.c_str());
}

TEST(ModelIoCorruptionTest, TreeNodeModelOfAnotherArityIsInvalidArgument) {
  datagen::SimulationDataset sim = MakeSim(89);
  const std::string path = UniqueTempPath("arity.bwt");
  const std::string image = SavedTreeImage(sim, path);
  // The root's model line (the line after its header) with one coefficient
  // dropped, length and all.
  std::vector<std::string> lines = Lines(image);
  std::string& model = lines[3 + sim.feature_columns.size() + 1];
  const size_t p = std::stoul(model.substr(0, model.find(' ')));
  ASSERT_GT(p, 1u);
  model = std::to_string(p - 1) +
          model.substr(model.find(' '), model.rfind(' ') - model.find(' '));
  WriteAll(path, Join(lines));
  auto r = LoadBellwetherTree(path, sim.items);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
  // Trailing data after the last node.
  WriteAll(path, image + "0\n");
  r = LoadBellwetherTree(path, sim.items);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  std::remove(path.c_str());
}

// Seeded mutation loop over a saved tree, like the state and spill loops.
// Every mutation must load or fail with a status; a tree that loads must
// route every item and count its levels and leaves in finite time without
// touching memory it does not own (the asan and ubsan presets check that).
TEST(TreeMutationFuzzTest, EveryMutationLoadsOrFailsCleanly) {
  datagen::SimulationDataset sim = MakeSim(93);
  const std::string path = UniqueTempPath("fuzz.bwt");
  const std::string base = SavedTreeImage(sim, path);
  const auto num_items = static_cast<int32_t>(sim.items.num_rows());
  Rng rng(2025);
  int loaded = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    WriteAll(path, MutateBytes(base, rng));
    auto r = LoadBellwetherTree(path, sim.items);
    if (!r.ok()) continue;
    ++loaded;
    EXPECT_GE(r->NumLevels(), 1);
    EXPECT_GE(r->NumLeaves(), 1);
    for (int32_t item = 0; item < num_items; ++item) {
      const int32_t node = r->RouteItem(item);
      EXPECT_GE(node, -1);
      EXPECT_LT(node, static_cast<int32_t>(r->nodes().size()));
    }
  }
  // Flips inside stored doubles and digits still parse; the loop must
  // reach trees that load.
  EXPECT_GT(loaded, 0);
  std::remove(path.c_str());
}

// Seeded mutation loop over a saved linear model. Every mutation must load
// or fail with a status; a model that loads must predict from a row of its
// own arity.
TEST(LinearModelMutationFuzzTest, EveryMutationLoadsOrFailsCleanly) {
  const std::string path = UniqueTempPath("fuzz.bwl");
  regression::LinearModel model({1.5, -0.25, 3.0e-7, 42.0, kInf, -1e300});
  ASSERT_TRUE(SaveLinearModel(model, 123456, path).ok());
  const std::string base = ReadAll(path);
  Rng rng(2026);
  int loaded = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    WriteAll(path, MutateBytes(base, rng));
    auto r = LoadLinearModel(path);
    if (!r.ok()) continue;
    ++loaded;
    const std::vector<double> x(r->model.num_features(), 1.0);
    (void)r->model.Predict(x);
  }
  EXPECT_GT(loaded, 0);
  std::remove(path.c_str());
}

// Seeded mutation loop over a saved cube with CV statistics. Every mutation
// must load or fail with a status; a cube that loads must answer FindCell
// for every subset and PredictItem for every item against the simulation's
// feature rows without touching memory it does not own (the asan and ubsan
// presets check that).
TEST(CubeMutationFuzzTest, EveryMutationLoadsOrFailsCleanly) {
  datagen::SimulationDataset sim = MakeSim(95);
  auto subsets = ItemSubsetSpace::Create(sim.items, sim.item_hierarchies);
  ASSERT_TRUE(subsets.ok());
  storage::MemoryTrainingData source(sim.sets);
  CubeBuildConfig config;
  config.min_subset_size = 20;
  config.min_examples_per_model = 8;
  config.compute_cv_stats = true;
  auto cube = BuildBellwetherCubeOptimized(&source, *subsets, config);
  ASSERT_TRUE(cube.ok());
  ASSERT_FALSE(cube->cells().empty());
  const std::string path = UniqueTempPath("fuzz.bwc");
  ASSERT_TRUE(SaveBellwetherCube(*cube, path).ok());
  const std::string base = ReadAll(path);
  ASSERT_TRUE(LoadBellwetherCube(path, *subsets).ok());

  const RegionFeatureLookup lookup(&sim.sets);
  Rng rng(2027);
  int loaded = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    WriteAll(path, MutateBytes(base, rng));
    auto r = LoadBellwetherCube(path, *subsets);
    if (!r.ok()) continue;
    ++loaded;
    for (SubsetId s = 0; s < (*subsets)->NumSubsets(); ++s) {
      (void)r->FindCell(s);
    }
    for (int32_t item = 0; item < (*subsets)->num_items(); ++item) {
      (void)r->PredictItem(item, lookup);
    }
  }
  EXPECT_GT(loaded, 0);
  std::remove(path.c_str());
}

// ---- Bellwether state files ----

// The raw little-endian bytes of a value, as the binary state stores it.
template <typename T>
std::string Bytes(const T& v) {
  return std::string(reinterpret_cast<const char*>(&v), sizeof(v));
}

// Rewrites the trailing checksum of a state image to match its body (the
// bytes between the magic line and the last 8), so an edit reaches the
// parser's own checks instead of failing the checksum.
void ResealState(std::string* image) {
  const size_t body = image->find('\n') + 1;
  if (body == 0 || image->size() < body + sizeof(uint64_t)) return;
  robust::FingerprintBuilder sum;
  sum.Update(image->data() + body, image->size() - body - sizeof(uint64_t));
  const uint64_t value = sum.value();
  std::memcpy(image->data() + image->size() - sizeof(value), &value,
              sizeof(value));
}

// Body offsets of the v4 header fields of a state saved without an item
// mask (BellwetherState::SerializeTo in core/bellwether_state.h).
constexpr size_t kNumFeaturesAt = 30;    // int32, after fingerprint + config
constexpr size_t kNumRegionsAt = 42;     // int64, after delta_batches
constexpr size_t kTouchedAt = 58;        // int64, after the first region id
constexpr size_t kFirstSlotNAt = 70;     // int64, after the slot index
constexpr size_t kFirstTriangleAt = 94;  // after n, sum_w and ytwy

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
  // A weighted state: every retained row carries an explicit weight, one
  // whose bit pattern no feature or target of the simulation has.
  BellwetherState::Options options;
  options.config.min_subset_size = 20;
  options.config.min_examples_per_model = 8;
  auto weighted = BellwetherState::Init(subsets_, options);
  ASSERT_TRUE(weighted.ok());
  const double kWeight = 1.0 + 1.0 / 3.0;
  std::vector<storage::RegionTrainingSet> sets = sim_.sets;
  for (auto& set : sets) set.weights.assign(set.num_examples(), kWeight);
  ASSERT_TRUE((*weighted)->ApplyDelta(std::move(sets)).ok());
  ASSERT_TRUE((*weighted)->Save(path_).ok());
  ASSERT_TRUE(LoadBellwetherState(path_, subsets_).ok());

  const std::string content = ReadAll(path_);
  // Three weights in a row: a statistic never repeats one value so.
  const size_t weight_at =
      content.find(Bytes(kWeight) + Bytes(kWeight) + Bytes(kWeight));
  ASSERT_NE(weight_at, std::string::npos);
  for (double bad : {0.0, -1.0, std::nan("")}) {
    SCOPED_TRACE("weight " + std::to_string(bad));
    std::string edited = content;
    edited.replace(weight_at, sizeof(double), Bytes(bad));
    ResealState(&edited);
    WriteAll(path_, edited);
    auto r = LoadBellwetherState(path_, subsets_);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kIoError);
    EXPECT_EQ(r.status().message().find("checksum mismatch"),
              std::string::npos)
        << r.status().ToString();
  }
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

TEST_F(StateFileTest, V3FileIsFailedPrecondition) {
  // The retired text format: recognizably a state, but another version.
  WriteAll(path_, "bellwether-state-v3\nfingerprint 1\nconfig 20 8 1 10 17\n");
  auto r = LoadBellwetherState(path_, subsets_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST_F(StateFileTest, ChecksumMismatchIsIoError) {
  // A flipped bit in a retained target is well-formed to every other check.
  std::string content = ReadAll(path_);
  content[content.size() - 20] ^= 0x04;
  WriteAll(path_, content);
  auto r = LoadBellwetherState(path_, subsets_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  EXPECT_NE(r.status().message().find("checksum mismatch"),
            std::string::npos);
}

TEST_F(StateFileTest, TrailingBytesAreIoError) {
  std::string content = ReadAll(path_);
  // The body ends in the end marker ("BWSTEND4"), then the checksum.
  ASSERT_EQ(content.substr(content.size() - 16, 8),
            Bytes(uint64_t{0x34444E4554535742ULL}));
  // Bytes after the end marker, resealed so that only the trailing-bytes
  // check can object.
  content.insert(content.size() - 8, "\x01\x02\x03");
  ResealState(&content);
  WriteAll(path_, content);
  auto r = LoadBellwetherState(path_, subsets_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
  EXPECT_NE(r.status().message().find("trailing"), std::string::npos);
}

TEST_F(StateFileTest, TruncatedTriangleIsIoError) {
  const std::string content = ReadAll(path_);
  const size_t body = content.find('\n') + 1;
  // Cut two doubles into the first touched slot's packed triangle.
  WriteAll(path_, content.substr(0, body + kFirstTriangleAt + 16));
  auto r = LoadBellwetherState(path_, subsets_);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST_F(StateFileTest, ImplausibleCountsAreRejectedBeforeAllocation) {
  const std::string content = ReadAll(path_);
  const size_t body = content.find('\n') + 1;
  int32_t p = 0;
  int64_t touched = 0;
  std::memcpy(&p, content.data() + body + kNumFeaturesAt, sizeof(p));
  std::memcpy(&touched, content.data() + body + kTouchedAt, sizeof(touched));
  ASSERT_GT(p, 0);
  ASSERT_GT(touched, 0);
  const size_t slot_bytes =
      sizeof(int32_t) + (3 + regression::RegressionSuffStats::PackedSize(p) +
                         p) * sizeof(double);
  const size_t first_rows_n =
      body + kTouchedAt + sizeof(int64_t) + touched * slot_bytes +
      sizeof(int64_t) + sizeof(int32_t);
  // One little-endian field of `width` bytes set to `value`.
  struct Edit {
    const char* what;
    size_t at;
    size_t width;
    int64_t value;
  };
  const Edit edits[] = {
      // Past the arity bound: a ~5e15-double triangle.
      {"arity 99999999", body + kNumFeaturesAt, 4, 99999999},
      // Within the bound, but its 67 MB triangle is not in the file.
      {"arity 4096", body + kNumFeaturesAt, 4, 4096},
      // Beyond 2^48 examples: no real accumulation reaches it.
      {"slot examples 2^60", body + kFirstSlotNAt, 8, int64_t{1} << 60},
      {"regions 2^40", body + kNumRegionsAt, 8, int64_t{1} << 40},
      {"touched slots 2^40", body + kTouchedAt, 8, int64_t{1} << 40},
      // 2^40 retained rows would be terabytes; the file holds megabytes.
      {"rows 2^40", first_rows_n, 8, int64_t{1} << 40},
  };
  for (const Edit& edit : edits) {
    SCOPED_TRACE(edit.what);
    std::string edited = content;
    std::memcpy(edited.data() + edit.at, &edit.value, edit.width);
    ResealState(&edited);
    WriteAll(path_, edited);
    auto r = LoadBellwetherState(path_, subsets_);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), StatusCode::kIoError);
    EXPECT_EQ(r.status().message().find("checksum mismatch"),
              std::string::npos)
        << r.status().ToString();
  }
}

// Synthetic weighted rows of arity p over the simulation's items: six
// regions of 30 rows, intercept first.
std::vector<storage::RegionTrainingSet> ArityRows(int32_t p, int32_t num_items,
                                                  Rng& rng) {
  std::vector<storage::RegionTrainingSet> sets;
  for (int64_t region = 0; region < 6; ++region) {
    storage::RegionTrainingSet set;
    set.region = 3 * region + 1;
    set.num_features = p;
    for (int32_t r = 0; r < 30; ++r) {
      set.items.push_back(static_cast<int32_t>(rng.NextUint64(num_items)));
      set.features.push_back(1.0);
      for (int32_t j = 1; j < p; ++j) {
        set.features.push_back(rng.NextGaussian());
      }
      set.targets.push_back(rng.NextGaussian(5.0, 2.0));
      set.weights.push_back(0.5 + rng.NextDouble());
    }
    sets.push_back(std::move(set));
  }
  return sets;
}

TEST_F(StateFileTest, RoundTripIsBitExactForEveryArity) {
  Rng rng(123);
  for (int32_t p = 1; p <= 8; ++p) {
    SCOPED_TRACE("p=" + std::to_string(p));
    BellwetherState::Options options;
    options.config.min_subset_size = 20;
    options.config.min_examples_per_model = 3;
    auto state = BellwetherState::Init(subsets_, options);
    ASSERT_TRUE(state.ok());
    ASSERT_TRUE(
        (*state)->ApplyDelta(ArityRows(p, subsets_->num_items(), rng)).ok());
    ASSERT_TRUE((*state)->Save(path_).ok());
    auto back = LoadBellwetherState(path_, subsets_);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    // Every statistic and row is stored as its raw bytes, so re-saving the
    // reopened state reproduces the file exactly.
    const std::string again = path_ + ".again";
    ASSERT_TRUE((*back)->Save(again).ok());
    EXPECT_EQ(ReadAll(again), ReadAll(path_));
    std::remove(again.c_str());
    // And both derive the same cube (CV on: the rows feed it too).
    auto cube = (*state)->Finalize();
    auto cube_back = (*back)->Finalize();
    ASSERT_TRUE(cube.ok());
    ASSERT_TRUE(cube_back.ok());
    ASSERT_EQ(cube->cells().size(), cube_back->cells().size());
    for (size_t i = 0; i < cube->cells().size(); ++i) {
      EXPECT_EQ(cube->cells()[i].region, cube_back->cells()[i].region);
      EXPECT_EQ(cube->cells()[i].model.beta(),
                cube_back->cells()[i].model.beta());
      EXPECT_EQ(cube->cells()[i].cv.rmse, cube_back->cells()[i].cv.rmse);
    }
  }
}

// Seeded mutation loop over a saved state. The case builds its own inputs
// (a masked, weighted state). Every mutation must load or fail with a
// status, never crash; the asan and ubsan presets give it teeth. Without a
// reseal, any change must fail. With one (every other iteration), the
// checksum matches whatever the parser reads, so the parser's own checks
// must do the rejecting.
TEST(StateMutationFuzzTest, EveryMutationLoadsOrFailsCleanly) {
  datagen::SimulationDataset sim = MakeSim(91);
  auto subsets = ItemSubsetSpace::Create(sim.items, sim.item_hierarchies);
  ASSERT_TRUE(subsets.ok());
  std::vector<uint8_t> mask((*subsets)->num_items(), 1);
  for (size_t i = 0; i < mask.size(); i += 7) mask[i] = 0;
  BellwetherState::Options options;
  options.config.min_subset_size = 20;
  options.config.min_examples_per_model = 8;
  auto state = BellwetherState::Init(*subsets, options, &mask);
  ASSERT_TRUE(state.ok());
  const size_t num_sets = std::min<size_t>(12, sim.sets.size());
  std::vector<storage::RegionTrainingSet> sets(sim.sets.begin(),
                                               sim.sets.begin() + num_sets);
  for (auto& set : sets) set.weights.assign(set.num_examples(), 1.25);
  ASSERT_TRUE((*state)->ApplyDelta(std::move(sets)).ok());
  const std::string path = UniqueTempPath("fuzz.bws");
  ASSERT_TRUE((*state)->Save(path).ok());
  const std::string base = ReadAll(path);
  ASSERT_TRUE(LoadBellwetherState(path, *subsets).ok());

  Rng rng(2024);
  int loaded = 0;
  for (int iter = 0; iter < 3000; ++iter) {
    SCOPED_TRACE("iteration " + std::to_string(iter));
    std::string mutated = MutateBytes(base, rng);
    const bool reseal = iter % 2 == 1;
    if (reseal) ResealState(&mutated);
    WriteAll(path, mutated);
    auto r = LoadBellwetherState(path, *subsets);
    if (mutated == base) continue;
    if (!reseal) {
      ASSERT_FALSE(r.ok()) << "unsealed change loaded";
      continue;
    }
    if (!r.ok()) {
      EXPECT_EQ(r.status().message().find("checksum mismatch"),
              std::string::npos)
          << r.status().ToString();
      continue;
    }
    // A well-formed state with other values: deriving from it must not
    // crash either.
    ++loaded;
    (void)(*r)->Finalize();
    (void)(*r)->FinalizeSearch(BasicSearchOptions{});
  }
  // Resealed flips inside stored doubles parse; the loop must reach them.
  EXPECT_GT(loaded, 0);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bellwether::core

// Parallel scaling of the exec layer (docs/PERFORMANCE.md): builds one
// fig11-scale disk-resident workload and times the basic search, the RF
// tree, and the BellwetherState cube (Init -> ApplyDelta in 64-region
// batches -> Finalize) at num_threads = 1, 2, 4. Every parallel
// run is checked in-bench for bit-identity against the serial build (the
// determinism contract), and the run report is written as JSON for the CI
// artifact (BENCH_parallel_scaling.json unless --report-out=<path>):
//
//   ./build/bench/parallel_scaling --scale=0.05
//
// On a single-core container this honestly reports ~1x speedups; the >=2x
// target at 4 threads applies to multi-core CI hardware.

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/basic_search.h"
#include "core/bellwether_cube.h"
#include "core/bellwether_state.h"
#include "core/bellwether_tree.h"
#include "datagen/scalability.h"
#include "storage/training_data.h"
#include "storage/training_data_sink.h"

namespace {

using namespace bellwether;         // NOLINT
using namespace bellwether::bench;  // NOLINT

struct Workload {
  datagen::ScalabilityDataset meta;
  std::unique_ptr<storage::TrainingDataSource> source;
  std::string path;
};

Workload Generate(double scale) {
  Workload out;
  out.path = "/tmp/bw_parallel_scaling.spill";
  datagen::ScalabilityConfig config;
  const int64_t examples = static_cast<int64_t>(900000 * scale);
  // 169 regions (two {3,3} trees, 13 nodes each), as in Fig. 11(a).
  config.num_items = static_cast<int32_t>(examples / 169);
  config.dim1_fanouts = {3, 3};
  config.dim2_fanouts = {3, 3};
  config.num_numeric_item_features = 2;
  config.item_hierarchy_fanouts = {2};
  auto sink = storage::SpillSink::Create(out.path);
  if (!sink.ok()) {
    std::fprintf(stderr, "%s\n", sink.status().ToString().c_str());
    std::exit(1);
  }
  auto meta = datagen::GenerateScalability(config, sink->get());
  if (!meta.ok()) {
    std::fprintf(stderr, "generation failed\n");
    std::exit(1);
  }
  out.meta = std::move(meta).value();
  auto src = (*sink)->Finish();
  if (!src.ok()) {
    std::fprintf(stderr, "%s\n", src.status().ToString().c_str());
    std::exit(1);
  }
  out.source = std::move(src).value();
  return out;
}

struct BuildResult {
  core::BasicSearchResult search;
  core::BellwetherTree tree;
  core::BellwetherCube cube;
  double search_seconds = 0.0;
  double tree_seconds = 0.0;
  double cube_seconds = 0.0;
};

// The production cube path: the source's region sets stream into the state
// in 64-region delta batches, then one Finalize.
Result<core::BellwetherCube> BuildStateCube(
    storage::TrainingDataSource* source,
    const std::shared_ptr<const core::ItemSubsetSpace>& subsets,
    const core::CubeBuildConfig& config) {
  core::BellwetherState::Options options;
  options.config = config;
  BW_ASSIGN_OR_RETURN(std::unique_ptr<core::BellwetherState> state,
                      core::BellwetherState::Init(subsets, options));
  core::StateDeltaSink sink(state.get(), /*sets_per_batch=*/64);
  BW_RETURN_IF_ERROR(
      source->Scan([&](const storage::RegionTrainingSet& set) -> Status {
        return sink.Append(storage::RegionTrainingSet(set));
      }));
  BW_RETURN_IF_ERROR(sink.Finish().status());
  return state->Finalize();
}

BuildResult RunAll(BenchRunner* runner, Workload& w,
                   const std::shared_ptr<const core::ItemSubsetSpace>& subsets,
                   int32_t num_threads) {
  core::BasicSearchOptions search_options;  // cross-validated: compute-heavy
  search_options.exec.num_threads = num_threads;

  core::TreeBuildConfig tree_config;
  tree_config.split_columns = w.meta.numeric_feature_columns;
  tree_config.min_items = 200;
  tree_config.max_depth = 3;
  tree_config.max_numeric_split_points = 4;
  tree_config.min_examples_per_model = 10;
  tree_config.exec.num_threads = num_threads;

  core::CubeBuildConfig cube_config;
  cube_config.min_subset_size = 50;
  cube_config.min_examples_per_model = 10;
  cube_config.compute_cv_stats = false;
  cube_config.exec.num_threads = num_threads;

  const std::string suffix = "_t" + std::to_string(num_threads);
  Result<core::BasicSearchResult> search = Status::OK();
  Result<core::BellwetherTree> tree = Status::OK();
  Result<core::BellwetherCube> cube = Status::OK();
  const double t_search = runner->TimePhase(("search" + suffix).c_str(), [&] {
    search = core::RunBasicBellwetherSearch(w.source.get(), search_options);
  });
  const double t_tree = runner->TimePhase(("tree" + suffix).c_str(), [&] {
    tree = core::BuildBellwetherTreeRainForest(w.source.get(), w.meta.items,
                                               tree_config);
  });
  const double t_cube = runner->TimePhase(("cube" + suffix).c_str(), [&] {
    cube = BuildStateCube(w.source.get(), subsets, cube_config);
  });
  if (!search.ok() || !tree.ok() || !cube.ok()) {
    std::fprintf(stderr, "build failed at num_threads=%d\n", num_threads);
    std::exit(1);
  }
  return BuildResult{std::move(search).value(), std::move(tree).value(),
                     std::move(cube).value(), t_search, t_tree, t_cube};
}

// Bit-identity across every artifact the determinism tests compare.
bool IdenticalToSerial(const BuildResult& got, const BuildResult& ref) {
  if (got.search.bellwether != ref.search.bellwether ||
      got.search.error.rmse != ref.search.error.rmse ||
      got.search.model.beta() != ref.search.model.beta() ||
      got.search.scores.size() != ref.search.scores.size()) {
    return false;
  }
  for (size_t i = 0; i < ref.search.scores.size(); ++i) {
    if (got.search.scores[i].region != ref.search.scores[i].region ||
        got.search.scores[i].usable != ref.search.scores[i].usable) {
      return false;
    }
  }
  if (got.tree.nodes().size() != ref.tree.nodes().size()) return false;
  for (size_t i = 0; i < ref.tree.nodes().size(); ++i) {
    const core::TreeNode& a = got.tree.nodes()[i];
    const core::TreeNode& b = ref.tree.nodes()[i];
    if (a.region != b.region || a.error != b.error ||
        a.model.beta() != b.model.beta() || a.children != b.children ||
        a.split.column != b.split.column ||
        a.split.threshold != b.split.threshold) {
      return false;
    }
  }
  if (got.cube.cells().size() != ref.cube.cells().size()) return false;
  for (size_t i = 0; i < ref.cube.cells().size(); ++i) {
    const core::CubeCell& a = got.cube.cells()[i];
    const core::CubeCell& b = ref.cube.cells()[i];
    if (a.region != b.region || a.error != b.error ||
        a.model.beta() != b.model.beta() ||
        a.fallback_pick != b.fallback_pick) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  BenchRunner runner(argc, argv, "parallel_scaling",
                     "Thread-pooled search/tree/cube vs the serial builds");
  const double scale = FlagDouble(argc, argv, "scale", 0.1);
  runner.report().SetConfig("scale", scale);
  const unsigned hw = std::thread::hardware_concurrency();
  std::printf("hardware_concurrency=%u scale=%.2f\n", hw, scale);

  Workload w;
  runner.TimePhase("datagen", [&] { w = Generate(scale); });
  auto subsets =
      core::ItemSubsetSpace::Create(w.meta.items, w.meta.item_hierarchies);
  if (!subsets.ok()) {
    std::fprintf(stderr, "%s\n", subsets.status().ToString().c_str());
    return 1;
  }
  std::printf("examples=%lld regions=%lld\n",
              static_cast<long long>(w.meta.total_examples),
              static_cast<long long>(w.meta.num_regions));
  runner.report().SetCount("examples", w.meta.total_examples);
  runner.report().SetCount("regions", w.meta.num_regions);

  const std::vector<int32_t> thread_counts{1, 2, 4};
  std::vector<BuildResult> results;
  Row({"Threads", "search (s)", "tree (s)", "cube (s)", "identical"});
  for (int32_t t : thread_counts) {
    results.push_back(RunAll(&runner, w, *subsets, t));
    const BuildResult& r = results.back();
    const bool identical = IdenticalToSerial(r, results.front());
    Row({Fmt(static_cast<double>(t), "%.0f"), Fmt(r.search_seconds, "%.3f"),
         Fmt(r.tree_seconds, "%.3f"), Fmt(r.cube_seconds, "%.3f"),
         identical ? "yes" : "NO"});
    if (!identical) {
      std::fprintf(stderr,
                   "determinism violation at num_threads=%d: parallel build "
                   "differs from serial\n",
                   t);
      return 1;
    }
  }

  // All runs were bit-identical to the serial build (checked above): record
  // it as a logical count so benchdiff would flag any future drift.
  runner.report().SetCount("identical_to_serial", 1);
  const BuildResult& serial = results.front();
  const BuildResult& fastest = results.back();
  std::printf("speedup at %d threads: search %.2fx tree %.2fx cube %.2fx\n",
              thread_counts.back(),
              serial.search_seconds / fastest.search_seconds,
              serial.tree_seconds / fastest.tree_seconds,
              serial.cube_seconds / fastest.cube_seconds);
  std::remove(w.path.c_str());
  return runner.Finish();
}

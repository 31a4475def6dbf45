#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// A metric the benchmark emits in its result line.
struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Emitted by every untraced run, on every workload.
inline constexpr MetricSpec kEndToEndMetrics[] = {
    {"setup_s", "s"},
    {"run_s", "s"},
    {"peak_rss_mb", "MiB"},
};

/// Emitted by every traced run. A layer a workload never calls reads 0.
/// Times are a layer's busy seconds per timed path, counts are per timed
/// path, both as the median over the traced paths of the run.
inline constexpr MetricSpec kPerLayerMetrics[] = {
    {"training_data_gen.s", "s"},
    {"training_data_gen.fact_rows", "count"},
    {"training_data_gen.rows_out", "count"},
    {"training_data_gen.alloc_calls", "count"},
    {"storage.arena.reuse_ratio", "ratio"},
    {"state.ingest.s", "s"},
    {"state.ingest.rows", "count"},
    {"state.ingest.batches", "count"},
    {"state.ingest.alloc_calls", "count"},
    {"state.finalize.s", "s"},
    {"state.finalize.cells_rederived", "count"},
    {"state.finalize.cells_reused", "count"},
    {"state.finalize.reuse_ratio", "ratio"},
    {"state.finalize.alloc_calls", "count"},
    {"regression.ridge_refits", "count"},
    {"regression.mean_fallbacks", "count"},
    {"state.finalize_search.s", "s"},
    {"model_io.save.s", "s"},
    {"model_io.save.bytes", "B"},
    {"model_io.open.s", "s"},
    {"model_io.alloc_calls", "count"},
    {"cube.predict.calls", "count"},
    {"cube.predict.s", "s"},
    {"cube.predict.misses", "count"},
    {"item_centric_eval.s", "s"},
    {"item_centric_eval.alloc_calls", "count"},
    {"tree.rainforest.s", "s"},
    {"tree.rainforest.scans", "count"},
    {"cube.optimized.s", "s"},
    {"search.basic.s", "s"},
    {"search.basic.regions_scored", "count"},
    {"trace.run_s", "s"},
    {"trace.overhead", "ratio"},
};

/// Every workload the program runs: those of ListedWorkloadNames(), then
/// cube_build and live_deltas, which run only when named on the command line.
const std::vector<std::string>& WorkloadNames();

/// The workloads BENCHMARK.json lists, in its order.
const std::vector<std::string>& ListedWorkloadNames();

/// Input sizes. The defaults are the benchmark's; tests pass Tiny().
struct Sizes {
  int32_t mail_items = 200;        // fact_to_cube
  int32_t scalability_items = 2500;  // cube_build
  int32_t live_items = 1000;       // live_deltas
  int32_t live_held_items = 40;    // items streamed in as 2-item deltas
  int32_t cv_items = 500;          // item_cv

  static Sizes Tiny();
};

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Directory for the files the workloads save and reopen.
  std::string work_dir = ".";
  Sizes sizes;
};

/// One human-readable figure: every end-to-end metric of the workload,
/// including those that apply to it alone.
struct Line {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string note;
};

struct RunResult {
  /// Every output check held.
  bool correct = false;
  int64_t attempted = 0;
  int64_t failed = 0;
  /// kEndToEndMetrics untraced, kPerLayerMetrics traced.
  std::map<std::string, double> metrics;
  std::vector<Line> lines;
  /// Why a call or check failed, one message each.
  std::vector<std::string> errors;
};

/// Sets up the workload's inputs from the seed, runs its timed path for
/// `seconds`, and checks its outputs. Fails with `errors` filled when the
/// workload name is unknown.
RunResult RunWorkload(const RunConfig& config);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_

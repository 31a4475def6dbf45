#include "workloads.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <iterator>
#include <memory>
#include <optional>
#include <string_view>
#include <utility>

#include "common/status.h"
#include "core/basic_search.h"
#include "core/bellwether_cube.h"
#include "core/bellwether_state.h"
#include "core/eval_util.h"
#include "core/item_centric_eval.h"
#include "core/model_io.h"
#include "core/training_data_gen.h"
#include "datagen/mail_order.h"
#include "datagen/scalability.h"
#include "datagen/simulation.h"
#include "obs/heap_track.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "stats.h"
#include "storage/training_data.h"
#include "storage/training_data_sink.h"

namespace perfbench {
namespace {

using namespace bellwether;  // NOLINT
using Clock = std::chrono::steady_clock;
using Sets = std::vector<storage::RegionTrainingSet>;

// Set-ups per run, spread evenly over it; setup_s is their median. A set-up
// takes 1-50 ms, so many of them cost little of the run.
constexpr size_t kSetups = 21;
// Timed paths per run at the least, untraced and (in a traced run) traced
// each, however long they take. run_s is the fastest untraced path: on a
// shared machine the neighbours' load slows whole spells of a run, and
// over eight 20-second runs of cube_build the median path moved by 27%
// between runs while the fastest moved by 6%.
constexpr size_t kMinPaths = 3;
// Regions per ApplyDelta batch when whole region sets are ingested: the
// batch size StateDeltaSink uses.
constexpr size_t kRegionsPerBatch = 64;

double SecondsSince(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

int64_t CounterValue(std::string_view name) {
  return obs::DefaultMetrics().GetCounter(name)->Value();
}

int64_t HeapAllocCalls() {
  int64_t total = 0;
  for (const auto& entry : obs::HeapTracker::Snapshot()) {
    total += entry.second.alloc_calls;
  }
  return total;
}

int64_t FileSize(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return ec ? 0 : static_cast<int64_t>(size);
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
}

/// Peak resident set size of the process (VmHWM), in MiB.
double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  return 0.0;
}

/// Per-layer accounting of one timed path. Traced, every call into a
/// layer's public function runs inside an obs::TraceSpan named after the
/// layer, and its wall time, heap allocation calls and counter deltas are
/// added to the layer's metrics. Untraced, the calls run bare.
class Probe {
 public:
  struct CounterKey {
    std::string_view counter;  // obs::DefaultMetrics() counter
    const char* metric;
  };

  explicit Probe(bool traced) : traced_(traced) {
    if (traced_) obs::DefaultTrace().Clear();
  }

  bool traced() const { return traced_; }

  /// Runs `fn`, charging it to `<layer>.s`, to `alloc_metric` (when not
  /// null) and to each counter's metric.
  template <class F>
  auto Call(std::string_view layer, const char* alloc_metric,
            std::initializer_list<CounterKey> counters, F&& fn) {
    if (!traced_) return fn();
    std::vector<int64_t> before;
    for (const CounterKey& c : counters) before.push_back(CounterValue(c.counter));
    // A heap snapshot allocates; two back to back measure what one costs.
    int64_t allocs = 0, snapshot_cost = 0;
    if (alloc_metric != nullptr) {
      const int64_t first = HeapAllocCalls();
      allocs = HeapAllocCalls();
      snapshot_cost = allocs - first;
    }
    const Clock::time_point t0 = Clock::now();
    obs::TraceSpan span(layer, "perfbench");
    auto result = fn();
    span.End();
    Add(std::string(layer) + ".s", SecondsSince(t0));
    if (alloc_metric != nullptr) {
      const int64_t delta = HeapAllocCalls() - allocs - snapshot_cost;
      Add(alloc_metric, static_cast<double>(delta > 0 ? delta : 0));
    }
    size_t i = 0;
    for (const CounterKey& c : counters) {
      Add(c.metric,
          static_cast<double>(CounterValue(c.counter) - before[i++]));
    }
    return result;
  }

  void Add(std::string_view metric, double value) {
    if (traced_) values_[std::string(metric)] += value;
  }

  /// Wall seconds of the library's own spans named `name` recorded since
  /// this probe was made.
  double SpanSeconds(std::string_view name) const {
    int64_t us = 0;
    for (const obs::TraceEvent& e : obs::DefaultTrace().Snapshot()) {
      if (e.name == name) us += e.duration_us;
    }
    return static_cast<double>(us) * 1e-6;
  }

  const std::map<std::string, double>& values() const { return values_; }

 private:
  bool traced_;
  std::map<std::string, double> values_;
};

/// Records an output check; a failed one is reported and counted.
void Expect(bool ok, const std::string& what, Ledger* ledger,
            std::vector<std::string>* errors) {
  if (!ledger->Record(ok)) errors->push_back("check failed: " + what);
}

/// Records a library call's status; returns it.
Status Called(const Status& st, Ledger* ledger) {
  ledger->Record(st.ok());
  return st;
}

std::vector<Sets> SplitIntoBatches(const Sets& sets) {
  std::vector<Sets> batches;
  for (size_t i = 0; i < sets.size(); i += kRegionsPerBatch) {
    const size_t end = std::min(sets.size(), i + kRegionsPerBatch);
    batches.emplace_back(sets.begin() + static_cast<std::ptrdiff_t>(i),
                         sets.begin() + static_cast<std::ptrdiff_t>(end));
  }
  return batches;
}

Status Ingest(core::BellwetherState* state, std::vector<Sets> batches,
              Probe* probe, Ledger* ledger) {
  for (Sets& batch : batches) {
    BW_RETURN_IF_ERROR(Called(
        probe->Call("state.ingest", "state.ingest.alloc_calls",
                    {{obs::kMStateDeltaRows, "state.ingest.rows"},
                     {obs::kMStateDeltaBatches, "state.ingest.batches"}},
                    [&] { return state->ApplyDelta(std::move(batch)); }),
        ledger));
  }
  return Status::OK();
}

Result<core::BellwetherCube> Finalize(core::BellwetherState* state,
                                      Probe* probe, Ledger* ledger) {
  auto cube = probe->Call(
      "state.finalize", "state.finalize.alloc_calls",
      {{obs::kMStateCellsRederived, "state.finalize.cells_rederived"},
       {obs::kMStateCellsReused, "state.finalize.cells_reused"},
       {obs::kMRegressionRidgeRefits, "regression.ridge_refits"},
       {obs::kMRegressionMeanFallbacks, "regression.mean_fallbacks"}},
      [&] { return state->Finalize(); });
  ledger->Record(cube.ok());
  return cube;
}

Status SaveState(const core::BellwetherState& state, const std::string& path,
                 Probe* probe, Ledger* ledger) {
  const Status st =
      probe->Call("model_io.save", "model_io.alloc_calls", {},
                  [&] { return core::SaveBellwetherState(state, path); });
  probe->Add("model_io.save.bytes", static_cast<double>(FileSize(path)));
  return Called(st, ledger);
}

Result<std::unique_ptr<core::BellwetherState>> OpenState(
    const std::string& path,
    const std::shared_ptr<const core::ItemSubsetSpace>& subsets, Probe* probe,
    Ledger* ledger) {
  auto state = probe->Call("model_io.open", "model_io.alloc_calls", {}, [&] {
    return core::LoadBellwetherState(path, subsets);
  });
  ledger->Record(state.ok());
  return state;
}

/// Predicts one item through the cube; untraced, its latency joins
/// `latencies_us`. Returns whether the item was answered.
bool Predict(const core::BellwetherCube& cube, int32_t item,
             const core::RegionFeatureLookup& lookup, Probe* probe,
             Ledger* ledger, std::vector<double>* latencies_us) {
  const Clock::time_point t0 = Clock::now();
  const auto p = probe->Call("cube.predict", nullptr, {},
                             [&] { return cube.PredictItem(item, lookup); });
  const double seconds = SecondsSince(t0);
  if (!probe->traced()) latencies_us->push_back(seconds * 1e6);
  probe->Add("cube.predict.calls", 1);
  if (!p.ok()) probe->Add("cube.predict.misses", 1);
  return ledger->Record(p.ok());
}

/// Artifact bytes of a cube, the comparison the determinism tests make.
std::string CubeBytes(const core::BellwetherCube& cube,
                      const std::string& path) {
  if (!core::SaveBellwetherCube(cube, path).ok()) return {};
  std::string bytes = ReadFile(path);
  std::remove(path.c_str());
  return bytes;
}

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates the inputs (and any base state) from the seed.
  virtual Status Setup() = 0;
  /// Untimed, before every timed path: copies of what the path consumes.
  virtual void Prepare() {}
  /// One timed path.
  virtual Status Run(Probe* probe, Ledger* ledger) = 0;
  /// Output checks on the last path's results.
  virtual void Check(Ledger* ledger, std::vector<std::string>* errors) = 0;
  /// The end-to-end figures that apply to this workload alone.
  virtual void Report(double run_s, std::vector<Line>* lines) const = 0;
};

// ---- fact_to_cube -------------------------------------------------------

/// The end-to-end path on a mail-order star schema: fact table -> training
/// data -> state ingest -> Finalize -> FinalizeSearch -> save -> reopen ->
/// a prediction for every item.
class FactToCube final : public Workload {
 public:
  explicit FactToCube(const RunConfig& config)
      : items_(config.sizes.mail_items),
        seed_(config.seed),
        state_path_(config.work_dir + "/fact_to_cube.bws"),
        cube_path_(config.work_dir + "/fact_to_cube.bwc"),
        check_path_(config.work_dir + "/fact_to_cube.check.bwc") {}
  ~FactToCube() override {
    std::remove(state_path_.c_str());
    std::remove(cube_path_.c_str());
  }

  Status Setup() override {
    datagen::MailOrderConfig config;
    config.num_items = items_;
    config.density = 3.0;
    config.seed = seed_;
    dataset_.reset();
    dataset_ = std::make_unique<datagen::MailOrderDataset>(
        datagen::GenerateMailOrder(config));
    // Full coverage: every candidate bellwether region holds data for every
    // item, so each prediction can be answered.
    spec_ = dataset_->MakeSpec(/*budget=*/85.0, /*min_coverage=*/1.0);
    auto subsets = core::ItemSubsetSpace::Create(dataset_->items,
                                                 dataset_->item_hierarchies);
    if (!subsets.ok()) return subsets.status();
    subsets_ = *subsets;
    return Status::OK();
  }

  Status Run(Probe* probe, Ledger* ledger) override {
    auto data = probe->Call(
        "training_data_gen", "training_data_gen.alloc_calls",
        {{obs::kMDatagenFactRowsScanned, "training_data_gen.fact_rows"},
         {obs::kMDatagenTrainingRowsEmitted, "training_data_gen.rows_out"},
         {obs::kMArenaAcquires, "storage.arena.acquires"},
         {obs::kMArenaReuses, "storage.arena.reuses"}},
        [&] { return core::GenerateTrainingDataInMemory(spec_); });
    BW_RETURN_IF_ERROR(Called(data.status(), ledger));
    const Sets& sets = *data->memory_sets();

    auto state = core::BellwetherState::Init(subsets_, StateOptions());
    BW_RETURN_IF_ERROR(Called(state.status(), ledger));
    BW_RETURN_IF_ERROR(
        Ingest(state->get(), SplitIntoBatches(sets), probe, ledger));
    auto cube = Finalize(state->get(), probe, ledger);
    if (!cube.ok()) return cube.status();
    auto search = probe->Call("state.finalize_search", nullptr, {}, [&] {
      return (*state)->FinalizeSearch(core::BasicSearchOptions());
    });
    BW_RETURN_IF_ERROR(Called(search.status(), ledger));

    BW_RETURN_IF_ERROR(SaveState(**state, state_path_, probe, ledger));
    const Status saved =
        probe->Call("model_io.save", "model_io.alloc_calls", {},
                    [&] { return core::SaveBellwetherCube(*cube, cube_path_); });
    probe->Add("model_io.save.bytes", static_cast<double>(FileSize(cube_path_)));
    BW_RETURN_IF_ERROR(Called(saved, ledger));

    const Clock::time_point open_start = Clock::now();
    auto reopened = OpenState(state_path_, subsets_, probe, ledger);
    if (!reopened.ok()) return reopened.status();
    auto loaded = probe->Call("model_io.open", "model_io.alloc_calls", {}, [&] {
      return core::LoadBellwetherCube(cube_path_, subsets_);
    });
    BW_RETURN_IF_ERROR(Called(loaded.status(), ledger));
    const double open_s = SecondsSince(open_start);

    const core::RegionFeatureLookup lookup(&sets);
    const std::vector<double>& targets = data->profile.targets;
    for (int32_t item = 0; item < static_cast<int32_t>(targets.size());
         ++item) {
      if (std::isnan(targets[item])) continue;
      Predict(*loaded, item, lookup, probe, ledger, &predict_us_);
    }

    if (!probe->traced()) open_s_.push_back(open_s);
    state_bytes_ = FileSize(state_path_);
    search_ = std::move(*search);
    data_ = std::move(*data);
    return Status::OK();
  }

  void Check(Ledger* ledger, std::vector<std::string>* errors) override {
    if (!data_ || !search_) return;
    // A state reopened after save finalizes to the cube that was saved.
    auto reopened = core::LoadBellwetherState(state_path_, subsets_);
    Expect(reopened.ok(), "reopen saved state", ledger, errors);
    if (reopened.ok()) {
      auto cube = (*reopened)->Finalize();
      Expect(cube.ok() && CubeBytes(*cube, check_path_) == ReadFile(cube_path_),
             "reopened state finalizes to the saved cube bytes", ledger,
             errors);
    }
    // FinalizeSearch agrees with the sequential basic search.
    auto oracle = core::RunBasicBellwetherSearch(data_->source.get(),
                                                 core::BasicSearchOptions());
    Expect(oracle.ok() && search_->found() &&
               oracle->bellwether == search_->bellwether &&
               oracle->error.rmse == search_->error.rmse,
           "FinalizeSearch region and error equal RunBasicBellwetherSearch",
           ledger, errors);
  }

  void Report(double, std::vector<Line>* lines) const override {
    lines->push_back({"open_s", Median(open_s_), "s", ""});
    lines->push_back(
        {"state_bytes", static_cast<double>(state_bytes_), "B", ""});
    lines->push_back({"predict_p50_us", Median(predict_us_), "us",
                      std::to_string(predict_us_.size()) + " predictions"});
  }

 private:
  static core::BellwetherState::Options StateOptions() {
    core::BellwetherState::Options options;
    options.config.min_subset_size = 25;
    options.config.min_examples_per_model = 20;
    return options;
  }

  const int32_t items_;
  const uint64_t seed_;
  const std::string state_path_, cube_path_, check_path_;
  std::unique_ptr<datagen::MailOrderDataset> dataset_;
  core::BellwetherSpec spec_;
  std::shared_ptr<const core::ItemSubsetSpace> subsets_;
  std::optional<core::GeneratedTrainingData> data_;
  std::optional<core::BasicSearchResult> search_;
  std::vector<double> open_s_, predict_us_;
  int64_t state_bytes_ = 0;
};

// ---- cube_build ---------------------------------------------------------

/// A batch cube build through the production engine: Init -> ingest ->
/// Finalize over scalability data, CV on, no persistence.
class CubeBuild final : public Workload {
 public:
  explicit CubeBuild(const RunConfig& config)
      : items_(config.sizes.scalability_items), seed_(config.seed) {}

  Status Setup() override {
    datagen::ScalabilityConfig config;
    config.num_items = items_;
    config.num_item_hierarchies = 3;
    config.seed = seed_;
    source_.reset();
    storage::MemorySink sink;
    auto meta = datagen::GenerateScalability(config, &sink);
    if (!meta.ok()) return meta.status();
    auto source = sink.Finish();
    if (!source.ok()) return source.status();
    source_ = std::move(*source);
    auto subsets =
        core::ItemSubsetSpace::Create(meta->items, meta->item_hierarchies);
    if (!subsets.ok()) return subsets.status();
    subsets_ = *subsets;
    rows_ = meta->total_examples;
    return Status::OK();
  }

  void Prepare() override {
    pending_ = SplitIntoBatches(
        static_cast<const storage::MemoryTrainingData&>(*source_).sets());
  }

  Status Run(Probe* probe, Ledger* ledger) override {
    auto state = core::BellwetherState::Init(subsets_, {});
    BW_RETURN_IF_ERROR(Called(state.status(), ledger));
    BW_RETURN_IF_ERROR(
        Ingest(state->get(), std::move(pending_), probe, ledger));
    auto cube = Finalize(state->get(), probe, ledger);
    if (!cube.ok()) return cube.status();
    cube_.emplace(std::move(*cube));
    return Status::OK();
  }

  void Check(Ledger* ledger, std::vector<std::string>* errors) override {
    if (!cube_) return;
    // Lemma 2 oracle, at the tolerance tests/core_cube_test.cc uses.
    auto oracle = core::BuildBellwetherCubeSingleScan(
        source_.get(), subsets_, core::CubeBuildConfig());
    bool same = oracle.ok() && oracle->cells().size() == cube_->cells().size();
    for (size_t i = 0; same && i < cube_->cells().size(); ++i) {
      const core::CubeCell& got = cube_->cells()[i];
      const core::CubeCell& want = oracle->cells()[i];
      same = got.subset == want.subset && got.has_model == want.has_model &&
             (!got.has_model ||
              (got.region == want.region &&
               std::fabs(got.error - want.error) <=
                   1e-6 * (1.0 + std::fabs(want.error))));
    }
    Expect(same, "every cell's region and error match the single-scan cube",
           ledger, errors);
  }

  void Report(double run_s, std::vector<Line>* lines) const override {
    lines->push_back({"build_rows_per_s",
                      run_s > 0 ? static_cast<double>(rows_) / run_s : 0.0,
                      "rows/s", std::to_string(rows_) + " rows"});
  }

 private:
  const int32_t items_;
  const uint64_t seed_;
  std::unique_ptr<storage::TrainingDataSource> source_;
  std::shared_ptr<const core::ItemSubsetSpace> subsets_;
  int64_t rows_ = 0;
  std::vector<Sets> pending_;
  std::optional<core::BellwetherCube> cube_;
};

// ---- live_deltas --------------------------------------------------------

/// Keeping a saved cube fresh: reopen the base state, then one closed-loop
/// maintainer applies small batches of late items, each followed by
/// Finalize and predictions for the batch's items, and saves once at the
/// end.
class LiveDeltas final : public Workload {
 public:
  explicit LiveDeltas(const RunConfig& config)
      : sizes_(config.sizes),
        seed_(config.seed),
        base_path_(config.work_dir + "/live_deltas.base.bws"),
        out_path_(config.work_dir + "/live_deltas.bws"),
        check_path_(config.work_dir + "/live_deltas.check.bwc") {}
  ~LiveDeltas() override {
    std::remove(base_path_.c_str());
    std::remove(out_path_.c_str());
  }

  Status Setup() override {
    datagen::SimulationConfig config;
    config.num_items = sizes_.live_items;
    config.generator_tree_nodes = 15;
    config.noise = 0.3;
    config.num_windows = 4;
    config.location_fanouts = {3, 3};
    config.seed = seed_;
    sim_ = datagen::GenerateSimulation(config);
    auto subsets =
        core::ItemSubsetSpace::Create(sim_.items, sim_.item_hierarchies);
    if (!subsets.ok()) return subsets.status();
    subsets_ = *subsets;

    // Items [0, held) arrive late, kItemsPerBatch at a time; every region's
    // rows keep their order on both sides of the split.
    const int32_t per_batch = kItemsPerBatch;
    const int32_t num_batches =
        (sizes_.live_held_items + per_batch - 1) / per_batch;
    base_.clear();
    arrival_order_.clear();
    batches_.assign(static_cast<size_t>(num_batches), {});
    batch_items_.assign(static_cast<size_t>(num_batches), {});
    for (int32_t item = 0; item < sizes_.live_held_items; ++item) {
      batch_items_[static_cast<size_t>(item / per_batch)].push_back(item);
    }
    for (const storage::RegionTrainingSet& set : sim_.sets) {
      storage::RegionTrainingSet head = EmptyLike(set);
      std::vector<storage::RegionTrainingSet> tails(
          static_cast<size_t>(num_batches), EmptyLike(set));
      for (size_t i = 0; i < set.items.size(); ++i) {
        const int32_t item = set.items[i];
        AppendRow(set, i,
                  item < sizes_.live_held_items
                      ? &tails[static_cast<size_t>(item / per_batch)]
                      : &head);
      }
      storage::RegionTrainingSet arrived = head;
      for (const storage::RegionTrainingSet& tail : tails) {
        for (size_t i = 0; i < tail.items.size(); ++i) {
          AppendRow(tail, i, &arrived);
        }
      }
      arrival_order_.push_back(std::move(arrived));
      if (!head.items.empty()) base_.push_back(std::move(head));
      for (size_t b = 0; b < tails.size(); ++b) {
        if (!tails[b].items.empty()) batches_[b].push_back(std::move(tails[b]));
      }
    }

    auto state = core::BellwetherState::Init(subsets_, StateOptions());
    if (!state.ok()) return state.status();
    BW_RETURN_IF_ERROR((*state)->ApplyDelta(base_));
    return core::SaveBellwetherState(**state, base_path_);
  }

  void Prepare() override { pending_ = batches_; }

  Status Run(Probe* probe, Ledger* ledger) override {
    const Clock::time_point open_start = Clock::now();
    auto state = OpenState(base_path_, subsets_, probe, ledger);
    if (!state.ok()) return state.status();
    const double open_s = SecondsSince(open_start);

    const core::RegionFeatureLookup lookup(&sim_.sets);
    std::optional<core::BellwetherCube> cube;
    for (size_t b = 0; b < pending_.size(); ++b) {
      const Clock::time_point t0 = Clock::now();
      std::vector<Sets> batch;
      batch.push_back(std::move(pending_[b]));
      BW_RETURN_IF_ERROR(Ingest(state->get(), std::move(batch), probe, ledger));
      auto finalized = Finalize(state->get(), probe, ledger);
      if (!finalized.ok()) return finalized.status();
      cube.emplace(std::move(*finalized));
      for (int32_t item : batch_items_[b]) {
        Predict(*cube, item, lookup, probe, ledger, &predict_us_);
      }
      if (!probe->traced()) delta_ms_.push_back(SecondsSince(t0) * 1e3);
    }
    BW_RETURN_IF_ERROR(SaveState(**state, out_path_, probe, ledger));

    if (!probe->traced()) open_s_.push_back(open_s);
    state_bytes_ = FileSize(out_path_);
    cube_ = std::move(cube);
    return Status::OK();
  }

  void Check(Ledger* ledger, std::vector<std::string>* errors) override {
    if (!cube_) return;
    // The maintained cube is byte-identical to a single-scan rebuild of
    // every row in arrival order: base rows, then each batch's.
    storage::MemoryTrainingData source(arrival_order_);
    auto oracle = core::BuildBellwetherCubeSingleScan(&source, subsets_,
                                                      StateOptions().config);
    Expect(oracle.ok() &&
               CubeBytes(*cube_, check_path_) == CubeBytes(*oracle, check_path_),
           "maintained cube bytes equal a single-scan rebuild", ledger,
           errors);
  }

  void Report(double, std::vector<Line>* lines) const override {
    lines->push_back({"open_s", Median(open_s_), "s", ""});
    lines->push_back(
        {"state_bytes", static_cast<double>(state_bytes_), "B", ""});
    lines->push_back({"predict_p50_us", Median(predict_us_), "us",
                      std::to_string(predict_us_.size()) + " predictions"});
    lines->push_back({"delta_p50_ms", Median(delta_ms_), "ms",
                      std::to_string(delta_ms_.size()) + " batches"});
    const Tail tail = TailPercentile(delta_ms_);
    lines->push_back({"delta_tail_ms", tail.value, "ms",
                      "p" + std::to_string(tail.percentile) + " of " +
                          std::to_string(tail.samples) + " batches, " +
                          std::to_string(tail.beyond) + " beyond"});
  }

 private:
  static constexpr int32_t kItemsPerBatch = 2;

  static core::BellwetherState::Options StateOptions() {
    core::BellwetherState::Options options;
    options.config.min_subset_size = 20;
    options.config.min_examples_per_model = 8;
    return options;
  }

  static storage::RegionTrainingSet EmptyLike(
      const storage::RegionTrainingSet& set) {
    storage::RegionTrainingSet out;
    out.region = set.region;
    out.num_features = set.num_features;
    return out;
  }

  static void AppendRow(const storage::RegionTrainingSet& from, size_t i,
                        storage::RegionTrainingSet* to) {
    const size_t p = static_cast<size_t>(from.num_features);
    to->items.push_back(from.items[i]);
    to->targets.push_back(from.targets[i]);
    to->features.insert(to->features.end(), from.features.begin() + i * p,
                        from.features.begin() + (i + 1) * p);
    if (from.weighted()) to->weights.push_back(from.weights[i]);
  }

  const Sizes sizes_;
  const uint64_t seed_;
  const std::string base_path_, out_path_, check_path_;
  datagen::SimulationDataset sim_;
  std::shared_ptr<const core::ItemSubsetSpace> subsets_;
  Sets base_;
  Sets arrival_order_;  // per region: base rows, then each batch's
  std::vector<Sets> batches_, pending_;
  std::vector<std::vector<int32_t>> batch_items_;
  std::optional<core::BellwetherCube> cube_;
  std::vector<double> open_s_, predict_us_, delta_ms_;
  int64_t state_bytes_ = 0;
};

// ---- item_cv ------------------------------------------------------------

/// Item-level cross-validation of the cube, tree and basic methods on
/// simulation data, with the Figure 10 configuration.
class ItemCv final : public Workload {
 public:
  explicit ItemCv(const RunConfig& config)
      : items_(config.sizes.cv_items), seed_(config.seed) {}

  Status Setup() override {
    datagen::SimulationConfig config;
    config.num_items = items_;
    config.generator_tree_nodes = 15;
    config.noise = 0.5;
    config.num_hierarchies = 6;
    config.seed = seed_;
    sim_ = datagen::GenerateSimulation(config);
    auto subsets =
        core::ItemSubsetSpace::Create(sim_.items, sim_.item_hierarchies);
    if (!subsets.ok()) return subsets.status();
    subsets_ = *subsets;
    return Status::OK();
  }

  Status Run(Probe* probe, Ledger* ledger) override {
    core::ItemCentricInput input;
    input.sets = &sim_.sets;
    input.targets = &sim_.targets;
    input.item_table = &sim_.items;
    input.subsets = subsets_;
    core::ItemCentricOptions opts;
    opts.folds = 10;
    opts.tree.split_columns = sim_.feature_columns;
    opts.tree.min_items = 50;
    opts.tree.max_depth = 5;
    opts.tree.min_examples_per_model = 10;
    opts.cube.min_subset_size = 30;
    opts.cube.min_examples_per_model = 10;
    opts.cube.compute_cv_stats = true;
    opts.basic.estimate = regression::ErrorEstimate::kTrainingSet;
    auto result = probe->Call(
        "item_centric_eval", "item_centric_eval.alloc_calls",
        {{obs::kMTreeRfScans, "tree.rainforest.scans"},
         {obs::kMSearchRegionsScored, "search.basic.regions_scored"}},
        [&] { return core::EvaluateItemCentric(input, opts); });
    BW_RETURN_IF_ERROR(Called(result.status(), ledger));
    // EvaluateItemCentric calls the builders itself; their own spans time
    // them.
    probe->Add("tree.rainforest.s",
               probe->SpanSeconds("BuildBellwetherTreeRainForest"));
    probe->Add("cube.optimized.s",
               probe->SpanSeconds("BuildBellwetherCubeOptimized"));
    probe->Add("search.basic.s",
               probe->SpanSeconds("RunBasicBellwetherSearch"));
    for (const core::MethodResult* m :
         {&result->cube, &result->tree, &result->basic}) {
      ledger->RecordMany(m->predicted + m->missed, m->missed);
    }
    result_ = *result;
    return Status::OK();
  }

  void Check(Ledger* ledger, std::vector<std::string>* errors) override {
    if (!result_) return;
    const std::pair<const char*, const core::MethodResult*> methods[] = {
        {"cube", &result_->cube},
        {"tree", &result_->tree},
        {"basic", &result_->basic}};
    for (const auto& [name, m] : methods) {
      Expect(std::isfinite(m->rmse) && m->predicted > 0,
             std::string(name) + " RMSE is finite over predicted items",
             ledger, errors);
    }
  }

  void Report(double, std::vector<Line>* lines) const override {
    if (!result_) return;
    lines->push_back({"rmse_cube", result_->cube.rmse, "target", ""});
    lines->push_back({"rmse_tree", result_->tree.rmse, "target", ""});
    lines->push_back({"rmse_basic", result_->basic.rmse, "target", ""});
  }

 private:
  const int32_t items_;
  const uint64_t seed_;
  datagen::SimulationDataset sim_;
  std::shared_ptr<const core::ItemSubsetSpace> subsets_;
  std::optional<core::ItemCentricResult> result_;
};

std::unique_ptr<Workload> MakeWorkload(const RunConfig& config) {
  if (config.workload == "fact_to_cube") {
    return std::make_unique<FactToCube>(config);
  }
  if (config.workload == "cube_build") {
    return std::make_unique<CubeBuild>(config);
  }
  if (config.workload == "live_deltas") {
    return std::make_unique<LiveDeltas>(config);
  }
  if (config.workload == "item_cv") return std::make_unique<ItemCv>(config);
  return nullptr;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

double Fastest(const std::vector<double>& samples) {
  return samples.empty() ? 0.0
                         : *std::min_element(samples.begin(), samples.end());
}

/// "N <what>: median M, range [lo, hi]".
std::string SampleNote(const std::vector<double>& samples, const char* what) {
  if (samples.empty()) return std::string("no ") + what;
  const auto [lo, hi] = std::minmax_element(samples.begin(), samples.end());
  char buf[160];
  std::snprintf(buf, sizeof(buf), "%zu %s: median %.6g, range [%.6g, %.6g]",
                samples.size(), what, Median(samples), *lo, *hi);
  return buf;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"fact_to_cube", "item_cv",
                                                 "cube_build", "live_deltas"};
  return names;
}

const std::vector<std::string>& ListedWorkloadNames() {
  static const std::vector<std::string> names = {"fact_to_cube", "item_cv"};
  return names;
}

Sizes Sizes::Tiny() {
  Sizes s;
  s.mail_items = 40;
  s.scalability_items = 60;
  s.live_items = 150;
  s.live_held_items = 6;
  s.cv_items = 150;
  return s;
}

RunResult RunWorkload(const RunConfig& config) {
  RunResult out;
  std::unique_ptr<Workload> workload = MakeWorkload(config);
  if (workload == nullptr) {
    out.errors.push_back("unknown workload: " + config.workload);
    return out;
  }
  Ledger ledger;
  obs::DefaultTrace().set_enabled(false);

  // Set-ups are spread evenly over the run and the timed paths between
  // them, so both sample the same spells of a shared machine's speed.
  std::vector<double> setup_s, run_s, traced_run_s;
  std::vector<std::map<std::string, double>> layers;
  Status st = Status::OK();
  const Clock::time_point start = Clock::now();
  for (size_t path = 0; st.ok(); ++path) {
    // Every set-up that is due runs now, so paths longer than a set-up's
    // share of the run do not stretch it.
    while (st.ok() && setup_s.size() < kSetups &&
           SecondsSince(start) >=
               config.seconds * static_cast<double>(setup_s.size()) /
                   static_cast<double>(kSetups)) {
      const Clock::time_point t0 = Clock::now();
      st = Called(workload->Setup(), &ledger);
      setup_s.push_back(SecondsSince(t0));
    }
    if (!st.ok()) break;
    const bool enough =
        SecondsSince(start) >= config.seconds && setup_s.size() == kSetups &&
        run_s.size() >= kMinPaths &&
        (!config.trace || traced_run_s.size() >= kMinPaths);
    if (enough) break;
    // A traced run alternates untraced and traced paths, so both see the
    // same machine and the overhead ratio compares like with like.
    const bool traced = config.trace && path % 2 == 1;
    workload->Prepare();
    if (traced) {
      obs::DefaultTrace().set_enabled(true);
      obs::HeapTracker::Enable();
    }
    Probe probe(traced);
    const Clock::time_point t0 = Clock::now();
    st = workload->Run(&probe, &ledger);
    const double seconds = SecondsSince(t0);
    if (traced) {
      obs::HeapTracker::Disable();
      obs::DefaultTrace().set_enabled(false);
      layers.push_back(probe.values());
    }
    (traced ? traced_run_s : run_s).push_back(seconds);
  }
  if (!st.ok()) out.errors.push_back(st.ToString());
  const double peak_rss_mb = PeakRssMb();
  if (st.ok()) workload->Check(&ledger, &out.errors);

  const double run_fastest = Fastest(run_s);
  if (config.trace) {
    for (auto& values : layers) {
      values["storage.arena.reuse_ratio"] =
          Ratio(values["storage.arena.reuses"], values["storage.arena.acquires"]);
      const double reused = values["state.finalize.cells_reused"];
      values["state.finalize.reuse_ratio"] =
          Ratio(reused, reused + values["state.finalize.cells_rederived"]);
    }
    for (const MetricSpec& m : kPerLayerMetrics) {
      std::vector<double> samples;
      for (auto& values : layers) samples.push_back(values[m.name]);
      out.metrics[m.name] = Median(samples);
    }
    out.metrics["trace.run_s"] = Fastest(traced_run_s);
    out.metrics["trace.overhead"] = Ratio(Fastest(traced_run_s), run_fastest);
  } else {
    out.metrics["setup_s"] = Median(setup_s);
    out.metrics["run_s"] = run_fastest;
    out.metrics["peak_rss_mb"] = peak_rss_mb;
  }

  out.lines.push_back({"setup_s", Median(setup_s), "s",
                       SampleNote(setup_s, "set-ups")});
  out.lines.push_back({"run_s", run_fastest, "s",
                       "fastest of " + SampleNote(run_s, "paths")});
  workload->Report(run_fastest, &out.lines);
  out.lines.push_back({"peak_rss_mb", peak_rss_mb, "MiB", ""});
  out.lines.push_back({"failed_frac", ledger.failed_frac(), "ratio",
                       std::to_string(ledger.failed()) + " failed of " +
                           std::to_string(ledger.attempted()) + " attempted"});

  out.attempted = ledger.attempted();
  out.failed = ledger.failed();
  out.correct = out.errors.empty() && ledger.failed() == 0 && !run_s.empty();
  return out;
}

}  // namespace perfbench

#include "core/bellwether_state.h"

#include <algorithm>
#include <istream>
#include <limits>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/stopwatch.h"
#include "core/eval_util.h"
#include "core/model_io.h"
#include "core/search_internal.h"
#include "exec/parallel.h"
#include "obs/logger.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "robust/checkpoint.h"
#include "robust/fault_injection.h"
#include "storage/arena.h"

namespace bellwether::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Bounds on serialized counts, in line with the other model_io sections;
// a slot's example count beyond 2^48 is corruption, never a real scan.
// The bytes left in the file bound every allocation as well.
constexpr int64_t kMaxStateCount = int64_t{1} << 26;
constexpr int32_t kMaxArity = 4096;
constexpr int64_t kMaxExamples = int64_t{1} << 48;

// Closes the state body, ahead of the trailing checksum ("BWSTEND4").
constexpr uint64_t kStateEndMarker = 0x34444E4554535742ULL;

using regression::RegressionSuffStats;
using storage::RegionTrainingSet;

// Writes the state body, folding every byte into its closing checksum.
class BodyWriter final : public storage::ByteSink {
 public:
  explicit BodyWriter(std::ostream& out) : out_(out) {}
  Status Write(const void* data, size_t bytes) override {
    checksum_.Update(data, bytes);
    out_.write(static_cast<const char*>(data),
               static_cast<std::streamsize>(bytes));
    return out_ ? Status::OK() : Status::IoError("state write failed");
  }
  uint64_t checksum() const { return checksum_.value(); }

 private:
  std::ostream& out_;
  robust::FingerprintBuilder checksum_;
};

// Reads the state body, never past its end, folding every byte into the
// checksum.
class BodyReader final : public storage::ByteSource {
 public:
  BodyReader(std::istream& in, uint64_t body_bytes)
      : in_(in), remaining_(body_bytes) {}
  Status Read(void* data, size_t bytes) override {
    if (bytes > remaining_) return Status::IoError("truncated state");
    if (bytes == 0) return Status::OK();
    if (!in_.read(static_cast<char*>(data),
                  static_cast<std::streamsize>(bytes))) {
      return Status::IoError("truncated state");
    }
    remaining_ -= bytes;
    checksum_.Update(data, bytes);
    return Status::OK();
  }
  uint64_t remaining() const override { return remaining_; }
  uint64_t checksum() const { return checksum_.value(); }

 private:
  std::istream& in_;
  uint64_t remaining_;
  robust::FingerprintBuilder checksum_;
};

// Registry counters for the incremental-maintenance path; resolved once and
// cached (registry pointers are stable).
struct StateMetrics {
  obs::Counter* delta_batches;
  obs::Counter* delta_rows;
  obs::Counter* rederived;
  obs::Counter* reused;
  obs::Counter* saves;
  obs::Counter* opens;
};

const StateMetrics& Metrics() {
  static const StateMetrics m{
      obs::DefaultMetrics().GetCounter(obs::kMStateDeltaBatches),
      obs::DefaultMetrics().GetCounter(obs::kMStateDeltaRows),
      obs::DefaultMetrics().GetCounter(obs::kMStateCellsRederived),
      obs::DefaultMetrics().GetCounter(obs::kMStateCellsReused),
      obs::DefaultMetrics().GetCounter(obs::kMStateSaves),
      obs::DefaultMetrics().GetCounter(obs::kMStateOpens)};
  return m;
}

// Appends src's rows to dst in ingest order. When exactly one side carries
// explicit weights, the other side's implicit 1.0 weights are materialized
// so RegionTrainingSet::weight(i) returns the same value either way — the
// accumulators already folded these rows with those exact weights.
void AppendRows(RegionTrainingSet* dst, const RegionTrainingSet& src) {
  const size_t old_n = dst->num_examples();
  const size_t add_n = src.num_examples();
  const bool need_weights = dst->weighted() || src.weighted();
  dst->items.insert(dst->items.end(), src.items.begin(), src.items.end());
  dst->features.insert(dst->features.end(), src.features.begin(),
                       src.features.end());
  dst->targets.insert(dst->targets.end(), src.targets.begin(),
                      src.targets.end());
  if (need_weights) {
    if (dst->weights.size() != old_n) dst->weights.assign(old_n, 1.0);
    if (src.weighted()) {
      dst->weights.insert(dst->weights.end(), src.weights.begin(),
                          src.weights.end());
    } else {
      dst->weights.insert(dst->weights.end(), add_n, 1.0);
    }
  }
}

}  // namespace

Result<std::unique_ptr<BellwetherState>> BellwetherState::Init(
    std::shared_ptr<const ItemSubsetSpace> subsets, Options options,
    const std::vector<uint8_t>* item_mask) {
  if (subsets == nullptr) {
    return Status::InvalidArgument("null item subset space");
  }
  auto state = std::unique_ptr<BellwetherState>(new BellwetherState());
  state->subsets_ = std::move(subsets);
  state->options_ = std::move(options);
  if (item_mask != nullptr) {
    state->has_mask_ = true;
    state->item_mask_ = *item_mask;
  }
  const ItemSubsetSpace& space = *state->subsets_;
  const CubeBuildConfig& config = state->options_.config;
  const std::vector<uint8_t>* mask =
      state->has_mask_ ? &state->item_mask_ : nullptr;
  state->sizes_ = internal::SubsetSizes(space, mask);
  state->significant_ =
      internal::SignificantSubsets(state->sizes_, config.min_subset_size);
  state->containing_ =
      internal::ContainingSignificantSubsets(space, state->significant_, mask);
  state->dirty_.Resize(space.NumSubsets());
  state->cell_cache_.resize(state->significant_.size());
  // State identity: everything the derived skeleton depends on.
  robust::FingerprintBuilder fp;
  fp.Add(static_cast<uint64_t>(space.NumSubsets()))
      .Add(static_cast<uint64_t>(config.min_subset_size))
      .Add(static_cast<uint64_t>(config.min_examples_per_model))
      .Add(static_cast<uint64_t>(config.compute_cv_stats ? 1 : 0))
      .Add(static_cast<uint64_t>(config.cv_folds))
      .Add(config.seed);
  for (SubsetId sid : state->significant_) {
    fp.Add(static_cast<uint64_t>(sid));
  }
  fp.Add(static_cast<uint64_t>(state->has_mask_ ? 1 : 0));
  if (state->has_mask_) {
    fp.Add(static_cast<uint64_t>(state->item_mask_.size()));
    for (uint8_t m : state->item_mask_) {
      fp.Add(static_cast<uint64_t>(m != 0 ? 1 : 0));
    }
  }
  state->fingerprint_ = fp.value();
  return state;
}

BellwetherState::RegionSlot& BellwetherState::SlotFor(olap::RegionId region,
                                                     int32_t num_features) {
  RegionSlot& slot = slots_[region];
  if (slot.rows.region == olap::kInvalidRegion) {
    slot.stats.resize(significant_.size());
    slot.errors.assign(significant_.size(), kInf);
    slot.rows.region = region;
    slot.rows.num_features = num_features;
  }
  return slot;
}

Status BellwetherState::ValidateDeltaBatch(
    const std::vector<RegionTrainingSet>& batch) const {
  olap::RegionId prev = olap::kInvalidRegion;
  int32_t arity = num_features_;
  const int32_t num_items = subsets_->num_items();
  for (const RegionTrainingSet& set : batch) {
    if (set.region < 0) {
      return Status::InvalidArgument("delta set with invalid region id");
    }
    if (set.region <= prev) {
      return Status::InvalidArgument(
          "delta batch regions must be strictly ascending and distinct");
    }
    prev = set.region;
    if (set.num_examples() == 0) continue;
    if (set.num_features <= 0) {
      return Status::InvalidArgument("delta set without feature columns");
    }
    if (arity == 0) arity = set.num_features;
    if (set.num_features != arity) {
      return Status::InvalidArgument(
          "delta set feature arity differs from the state's");
    }
    if (set.features.size() !=
        set.num_examples() * static_cast<size_t>(set.num_features)) {
      return Status::InvalidArgument("delta set features size mismatch");
    }
    if (set.targets.size() != set.num_examples()) {
      return Status::InvalidArgument("delta set targets size mismatch");
    }
    if (!set.weights.empty() && set.weights.size() != set.num_examples()) {
      return Status::InvalidArgument("delta set weights size mismatch");
    }
    for (double w : set.weights) {
      if (!storage::ValidRowWeight(w)) {
        return Status::InvalidArgument(
            "delta row weight must be positive and finite");
      }
    }
    for (int32_t item : set.items) {
      if (item < 0 || item >= num_items) {
        return Status::InvalidArgument("delta row item index out of range");
      }
    }
  }
  return Status::OK();
}

Status BellwetherState::ApplyDelta(std::vector<RegionTrainingSet> batch) {
  // Transactional entry fault: fires before anything is mutated, so a
  // caller can retry the whole batch.
  BW_RETURN_IF_ERROR(robust::MaybeInjectIo(robust::kFaultStateDelta));
  BW_RETURN_IF_ERROR(ValidateDeltaBatch(batch));
  obs::TraceSpan span("BellwetherState::ApplyDelta", "state");
  Stopwatch delta_watch;
  for (const RegionTrainingSet& set : batch) {
    if (set.num_examples() > 0 && num_features_ == 0) {
      num_features_ = set.num_features;
      break;
    }
  }
  const CubeBuildConfig& config = options_.config;

  // One task per region: copy the base accumulators of the touched subsets,
  // fold the new rows in row order (the exact floating-point sequence a
  // from-scratch scan of the concatenated rows performs), and compute the
  // new errors. Commits run in submission order — ascending region — on
  // this thread, so the state is bit-identical for any thread count.
  struct RegionDelta {
    RegionSlot* slot = nullptr;
    RegionTrainingSet set;
    std::vector<int32_t> touched;  // significant indices, ascending
    std::vector<RegressionSuffStats> stats;
    std::vector<double> errors;
  };
  const int32_t num_threads = exec::ResolveNumThreads(config.exec.num_threads);
  if (num_threads > 1 && pool_ == nullptr) {
    pool_ = std::make_unique<exec::ThreadPool>(num_threads);
  }
  exec::ThreadPool* pool = pool_.get();
  int64_t rows_committed = 0;
  Status status;
  {
    exec::MergeInSubmissionOrder<RegionDelta> reducer(
        pool, /*max_outstanding=*/2 * static_cast<size_t>(num_threads),
        "state.delta_merge", [&](size_t, RegionDelta d) -> Status {
          RegionSlot& slot = *d.slot;
          for (size_t t = 0; t < d.touched.size(); ++t) {
            const int32_t k = d.touched[t];
            slot.stats[k] = std::move(d.stats[t]);
            slot.errors[k] = d.errors[t];
            dirty_.Mark(significant_[k]);
          }
          rows_committed += static_cast<int64_t>(d.set.num_examples());
          AppendRows(&slot.rows, d.set);
          storage::RegionSetArena::Default().Release(std::move(d.set));
          slot.score_valid = false;
          // Crash injection after the region's commit, modeling a process
          // killed between regions of a batch: the in-memory state holds a
          // partial batch and must be reopened from its last save.
          if (robust::ShouldCrash(robust::kFaultStateDelta)) {
            return Status::IoError(
                "injected crash during delta apply (simulated kill)");
          }
          return Status::OK();
        });
    for (RegionTrainingSet& set : batch) {
      if (set.num_examples() == 0) continue;
      // Slot creation happens here on the submitting thread; map nodes are
      // stable, and batch regions are distinct, so in-flight tasks for
      // other regions never observe their slot mutating.
      RegionSlot* slot = &SlotFor(set.region, set.num_features);
      auto owned = std::make_shared<RegionTrainingSet>(std::move(set));
      status = reducer.Submit([this, &config, slot, owned]() {
        RegionDelta d;
        d.slot = slot;
        d.set = std::move(*owned);
        const size_t nsig = significant_.size();
        std::vector<uint8_t> seen(nsig, 0);
        for (size_t r = 0; r < d.set.num_examples(); ++r) {
          for (int32_t k : containing_[d.set.items[r]]) {
            if (!seen[k]) {
              seen[k] = 1;
              d.touched.push_back(k);
            }
          }
        }
        std::sort(d.touched.begin(), d.touched.end());
        std::vector<int32_t> local(nsig, -1);
        d.stats.reserve(d.touched.size());
        for (size_t t = 0; t < d.touched.size(); ++t) {
          local[d.touched[t]] = static_cast<int32_t>(t);
          RegressionSuffStats s = slot->stats[d.touched[t]];
          if (s.num_features() == 0) {
            s = RegressionSuffStats(d.set.num_features);
          }
          d.stats.push_back(std::move(s));
        }
        for (size_t r = 0; r < d.set.num_examples(); ++r) {
          for (int32_t k : containing_[d.set.items[r]]) {
            d.stats[local[k]].Add(d.set.row(r), d.set.targets[r],
                                  d.set.weight(r));
          }
        }
        d.errors.reserve(d.touched.size());
        for (const RegressionSuffStats& s : d.stats) {
          d.errors.push_back(
              TrainingErrorOfStats(s, config.min_examples_per_model));
        }
        return d;
      });
      if (!status.ok()) break;
    }
    if (status.ok()) status = reducer.Finish();
  }
  if (!status.ok()) {
    // Queued tasks read this state; drain them before returning.
    if (pool != nullptr) pool->Wait();
    return status;
  }
  ++delta_batches_;
  delta_seconds_ += delta_watch.ElapsedSeconds();
  Metrics().delta_batches->Increment(1);
  Metrics().delta_rows->Increment(rows_committed);
  BW_LOG(obs::LogLevel::kInfo, "state")
      .Field("rows", rows_committed)
      .Field("dirty_cells", dirty_.count())
      .Field("batches", delta_batches_)
      << "delta batch applied";
  if (!config.checkpoint_path.empty()) {
    // Batch-boundary durability: a crash mid-batch reopens this save and
    // re-applies the whole batch, converging on the same state bit for bit.
    BW_RETURN_IF_ERROR(Save(config.checkpoint_path));
  }
  return Status::OK();
}

internal::RegionRowsVisitor BellwetherState::SlotRowsVisitor() const {
  return [this](olap::RegionId region,
                const std::function<Status(const RegionTrainingSet&)>& fn)
             -> Status {
    auto it = slots_.find(region);
    if (it == slots_.end()) return Status::OK();
    return fn(it->second.rows);
  };
}

Result<BellwetherCube> BellwetherState::Finalize() {
  obs::TraceSpan span("BellwetherState::Finalize", "state");
  Stopwatch finalize_watch;
  const CubeBuildConfig& config = options_.config;
  const std::vector<uint8_t>* mask = has_mask_ ? &item_mask_ : nullptr;
  const size_t nsig = significant_.size();
  internal::RegionRowsVisitor rows;
  if (config.compute_cv_stats) rows = SlotRowsVisitor();
  int64_t rederived = 0;
  int64_t reused = 0;
  for (size_t k = 0; k < nsig; ++k) {
    const SubsetId sid = significant_[k];
    // A cell's inputs change exactly when a delta row touched its subset:
    // containing_ enumerates the significant subsets of each (unmasked)
    // item, and both the accumulators and the CV row filter select rows
    // through that same membership test.
    if (finalized_once_ && !dirty_.IsMarked(sid)) {
      ++reused;
      continue;
    }
    // Derive the pick by offering every region in ascending order — the
    // same Offer() sequence a from-scratch scan performs.
    internal::Pick pick;
    for (const auto& [region, slot] : slots_) {
      pick.Offer(slot.errors[k], region, slot.stats[k]);
    }
    BW_ASSIGN_OR_RETURN(
        CubeCell cell,
        internal::BuildCubeCell(sid, sizes_[sid], pick, config, mask,
                                *subsets_, rows));
    cell_cache_[k] = std::move(cell);
    ++rederived;
  }
  dirty_.Clear();
  finalized_once_ = true;
  Metrics().rederived->Increment(rederived);
  Metrics().reused->Increment(reused);
  BW_LOG(obs::LogLevel::kInfo, "state")
      .Field("rederived", rederived)
      .Field("reused", reused)
      << "state finalized";
  CubeBuildTelemetry telemetry;
  telemetry.data_passes = 1;
  std::vector<CubeCell> cells = cell_cache_;
  BW_ASSIGN_OR_RETURN(
      BellwetherCube cube,
      internal::AssembleCube("cube_state", subsets_, config,
                             std::move(cells), telemetry, finalize_watch));
  // Operational timing phases of the incremental path. Phases are excluded
  // from the report's logical fingerprint, so delta-maintained and rebuilt
  // cubes still compare byte-identical on their logical sections.
  obs::RunReport report = cube.build_report();
  report.AddPhase("state.apply_delta", delta_seconds_);
  report.AddPhase("state.finalize", finalize_watch.ElapsedSeconds());
  cube.set_build_report(std::move(report));
  return cube;
}

Result<BasicSearchResult> BellwetherState::FinalizeSearch(
    const BasicSearchOptions& options) {
  obs::TraceSpan span("BellwetherState::FinalizeSearch", "state");
  // Cached per-region scores are keyed by the scoring options; a change
  // invalidates every cache entry (delta rows invalidate per region).
  robust::FingerprintBuilder fp;
  fp.Add(static_cast<uint64_t>(options.estimate))
      .Add(static_cast<uint64_t>(options.cv_folds))
      .Add(options.seed)
      .Add(static_cast<uint64_t>(options.min_examples));
  if (fp.value() != search_options_key_) {
    for (auto& [region, slot] : slots_) slot.score_valid = false;
    search_options_key_ = fp.value();
  }
  const std::vector<uint8_t>* mask = has_mask_ ? &item_mask_ : nullptr;
  BasicSearchResult result;
  SearchTelemetry& t = result.telemetry;
  Stopwatch scan_watch;
  result.scores.reserve(slots_.size());
  obs::Histogram* fit_seconds = obs::DefaultMetrics().GetHistogram(
      obs::kMSearchRegionFitSeconds, obs::LatencyBucketsSeconds());
  size_t ordinal = 0;
  for (auto& [region, slot] : slots_) {
    ++t.regions_enumerated;
    t.rows_scanned += static_cast<int64_t>(slot.rows.num_examples());
    if (!slot.score_valid) {
      Stopwatch fit_watch;
      internal::ScoreRegion(slot.rows, options, mask, &slot.score);
      fit_seconds->Observe(fit_watch.ElapsedSeconds());
      slot.score_valid = true;
    }
    RegionScore score = slot.score;
    score.source_index = ordinal++;
    result.scores.push_back(std::move(score));
  }
  for (const RegionScore& score : result.scores) {
    if (score.usable) {
      ++t.regions_scored;
    } else if (score.num_examples <
               static_cast<size_t>(
                   std::max<int32_t>(options.min_examples, 2))) {
      ++t.skipped_min_examples;
    } else {
      ++t.model_fit_failures;
    }
  }
  t.scan_seconds = scan_watch.ElapsedSeconds();
  obs::DefaultMetrics()
      .GetCounter(obs::kMSearchRegionsEnumerated)
      ->Increment(t.regions_enumerated);
  obs::DefaultMetrics()
      .GetCounter(obs::kMSearchRegionsScored)
      ->Increment(t.regions_scored);
  obs::DefaultMetrics()
      .GetCounter(obs::kMSearchFitFailures)
      ->Increment(t.model_fit_failures);
  obs::DefaultMetrics()
      .GetCounter(obs::kMSearchRowsScanned)
      ->Increment(t.rows_scanned);
  double best = std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < result.scores.size(); ++i) {
    const RegionScore& s = result.scores[i];
    if (s.usable && s.error.rmse < best) {
      best = s.error.rmse;
      result.bellwether = s.region;
      result.bellwether_index = i;
      result.error = s.error;
    }
  }
  if (result.found()) {
    const RegionSlot& slot = slots_.find(result.bellwether)->second;
    BW_RETURN_IF_ERROR(internal::RefitModelFromSet(slot.rows, mask, &result));
  }
  internal::FillSearchReport("basic_search", options, &result);
  return result;
}

Status BellwetherState::Save(const std::string& path) const {
  BW_RETURN_IF_ERROR(SaveBellwetherState(*this, path));
  Metrics().saves->Increment(1);
  return Status::OK();
}

Result<std::unique_ptr<BellwetherState>> BellwetherState::Open(
    const std::string& path, std::shared_ptr<const ItemSubsetSpace> subsets) {
  return LoadBellwetherState(path, std::move(subsets));
}

Status BellwetherState::SerializeTo(std::ostream& out) const {
  BodyWriter body(out);
  const CubeBuildConfig& c = options_.config;
  BW_RETURN_IF_ERROR(body.Put(fingerprint_));
  BW_RETURN_IF_ERROR(body.Put(c.min_subset_size));
  BW_RETURN_IF_ERROR(body.Put(c.min_examples_per_model));
  BW_RETURN_IF_ERROR(body.Put(static_cast<uint8_t>(c.compute_cv_stats)));
  BW_RETURN_IF_ERROR(body.Put(c.cv_folds));
  BW_RETURN_IF_ERROR(body.Put(c.seed));
  BW_RETURN_IF_ERROR(body.Put(static_cast<uint8_t>(has_mask_)));
  if (has_mask_) {
    BW_RETURN_IF_ERROR(body.Put(static_cast<int64_t>(item_mask_.size())));
    BW_RETURN_IF_ERROR(body.Write(item_mask_.data(), item_mask_.size()));
  }
  BW_RETURN_IF_ERROR(body.Put(num_features_));
  BW_RETURN_IF_ERROR(body.Put(delta_batches_));
  BW_RETURN_IF_ERROR(body.Put(static_cast<int64_t>(slots_.size())));
  const size_t p = static_cast<size_t>(num_features_);
  for (const auto& [region, slot] : slots_) {
    // Only touched accumulators hit the wire (arity 0 marks untouched); the
    // dense remainder is reconstructed on load. Errors are not persisted —
    // they are recomputed from the statistics, which is deterministic.
    int64_t touched = 0;
    for (const RegressionSuffStats& s : slot.stats) {
      if (s.num_features() != 0) ++touched;
    }
    BW_RETURN_IF_ERROR(body.Put(static_cast<int64_t>(region)));
    BW_RETURN_IF_ERROR(body.Put(touched));
    for (size_t k = 0; k < slot.stats.size(); ++k) {
      const RegressionSuffStats& s = slot.stats[k];
      if (s.num_features() == 0) continue;
      BW_CHECK(s.num_features() == p);
      BW_RETURN_IF_ERROR(body.Put(static_cast<int32_t>(k)));
      BW_RETURN_IF_ERROR(body.Put(s.num_examples()));
      BW_RETURN_IF_ERROR(body.Put(s.sum_weights()));
      BW_RETURN_IF_ERROR(body.Put(s.ytwy()));
      BW_RETURN_IF_ERROR(body.Write(s.packed_xtwx().data(),
                                    s.packed_xtwx().size() * sizeof(double)));
      BW_RETURN_IF_ERROR(body.Write(s.xtwy().data(), p * sizeof(double)));
    }
    BW_RETURN_IF_ERROR(storage::WriteRegionRecord(slot.rows, &body));
  }
  BW_RETURN_IF_ERROR(body.Put(kStateEndMarker));
  const uint64_t checksum = body.checksum();
  out.write(reinterpret_cast<const char*>(&checksum), sizeof(checksum));
  if (!out) return Status::IoError("state write failed");
  return Status::OK();
}

Result<std::unique_ptr<BellwetherState>> BellwetherState::DeserializeFrom(
    std::istream& in, std::shared_ptr<const ItemSubsetSpace> subsets) {
  // The body runs from here to the trailing checksum. Every count below is
  // bounded by the bytes still left in it before anything is allocated.
  const std::streamoff start = in.tellg();
  in.seekg(0, std::ios::end);
  const std::streamoff size = in.tellg();
  in.seekg(start);
  if (start < 0 || !in ||
      size - start < static_cast<std::streamoff>(sizeof(uint64_t))) {
    return Status::IoError("truncated state (no checksum)");
  }
  BodyReader body(in, static_cast<uint64_t>(size - start) - sizeof(uint64_t));
  uint64_t stored_fp = 0;
  BW_RETURN_IF_ERROR(body.Get(&stored_fp));
  Options options;
  CubeBuildConfig& c = options.config;
  uint8_t cv = 0;
  BW_RETURN_IF_ERROR(body.Get(&c.min_subset_size));
  BW_RETURN_IF_ERROR(body.Get(&c.min_examples_per_model));
  BW_RETURN_IF_ERROR(body.Get(&cv));
  BW_RETURN_IF_ERROR(body.Get(&c.cv_folds));
  BW_RETURN_IF_ERROR(body.Get(&c.seed));
  c.compute_cv_stats = cv != 0;
  uint8_t has_mask = 0;
  BW_RETURN_IF_ERROR(body.Get(&has_mask));
  std::vector<uint8_t> mask;
  if (has_mask != 0) {
    int64_t n = 0;
    BW_RETURN_IF_ERROR(body.Get(&n));
    if (n < 0 || n > kMaxStateCount ||
        static_cast<uint64_t>(n) > body.remaining()) {
      return Status::IoError("implausible mask size in state");
    }
    mask.resize(static_cast<size_t>(n));
    BW_RETURN_IF_ERROR(body.Read(mask.data(), mask.size()));
    for (uint8_t& m : mask) m = m != 0 ? 1 : 0;
  }
  int32_t num_features = 0;
  BW_RETURN_IF_ERROR(body.Get(&num_features));
  if (num_features < 0 || num_features > kMaxArity) {
    return Status::IoError("bad state num_features");
  }
  int64_t delta_batches = 0;
  BW_RETURN_IF_ERROR(body.Get(&delta_batches));
  if (delta_batches < 0) return Status::IoError("bad state delta_batches");
  int64_t num_regions = 0;
  BW_RETURN_IF_ERROR(body.Get(&num_regions));
  // Regions are only created by non-empty rows, which fix the arity.
  if (num_regions < 0 || num_regions > kMaxStateCount ||
      (num_regions > 0 && num_features == 0)) {
    return Status::IoError("implausible region count in state");
  }
  BW_ASSIGN_OR_RETURN(
      std::unique_ptr<BellwetherState> state,
      Init(std::move(subsets), std::move(options),
           has_mask != 0 ? &mask : nullptr));
  if (state->fingerprint_ != stored_fp) {
    return Status::FailedPrecondition(
        "state fingerprint mismatch (stale or foreign state file)");
  }
  state->num_features_ = num_features;
  state->delta_batches_ = delta_batches;
  const size_t p = static_cast<size_t>(num_features);
  const uint64_t slot_bytes =
      (2 + RegressionSuffStats::PackedSize(p) + p) * sizeof(double);
  const int64_t nsig = static_cast<int64_t>(state->significant_.size());
  const int32_t num_items = state->subsets_->num_items();
  const int32_t min_examples = state->options_.config.min_examples_per_model;
  olap::RegionId prev_region = olap::kInvalidRegion;
  for (int64_t i = 0; i < num_regions; ++i) {
    int64_t region = olap::kInvalidRegion;
    int64_t touched = 0;
    BW_RETURN_IF_ERROR(body.Get(&region));
    BW_RETURN_IF_ERROR(body.Get(&touched));
    if (region <= prev_region) {  // also rejects negative ids
      return Status::IoError("state regions out of order");
    }
    prev_region = region;
    if (touched < 0 || touched > nsig) {
      return Status::IoError("implausible slot count in state");
    }
    RegionSlot& slot = state->SlotFor(region, num_features);
    int32_t prev_k = -1;
    for (int64_t j = 0; j < touched; ++j) {
      int32_t k = -1;
      int64_t n = 0;
      double sum_w = 0.0;
      double ytwy = 0.0;
      BW_RETURN_IF_ERROR(body.Get(&k));
      BW_RETURN_IF_ERROR(body.Get(&n));
      if (k <= prev_k || k >= nsig) {
        return Status::IoError("state slot index out of range");
      }
      prev_k = k;
      if (n < 0 || n > kMaxExamples) {
        return Status::IoError("implausible example count in state slot");
      }
      if (slot_bytes > body.remaining()) {
        return Status::IoError("truncated state (slot stats)");
      }
      BW_RETURN_IF_ERROR(body.Get(&sum_w));
      BW_RETURN_IF_ERROR(body.Get(&ytwy));
      std::vector<double> packed(RegressionSuffStats::PackedSize(p));
      std::vector<double> xtwy(p);
      BW_RETURN_IF_ERROR(
          body.Read(packed.data(), packed.size() * sizeof(double)));
      BW_RETURN_IF_ERROR(body.Read(xtwy.data(), xtwy.size() * sizeof(double)));
      slot.stats[k] = RegressionSuffStats::FromPacked(
          p, std::move(packed), std::move(xtwy), ytwy, n, sum_w);
      slot.errors[k] = TrainingErrorOfStats(slot.stats[k], min_examples);
    }
    RegionTrainingSet& rows = slot.rows;
    BW_RETURN_IF_ERROR(storage::ReadRegionRecord(&body, &rows));
    if (rows.region != region || rows.num_features != num_features) {
      return Status::IoError("state rows do not match their region");
    }
    if (rows.num_examples() > static_cast<size_t>(kMaxStateCount)) {
      return Status::IoError("implausible row count in state");
    }
    for (int32_t item : rows.items) {
      if (item < 0 || item >= num_items) {
        return Status::IoError("state row item index out of range");
      }
    }
  }
  uint64_t end_marker = 0;
  BW_RETURN_IF_ERROR(body.Get(&end_marker));
  if (end_marker != kStateEndMarker) {
    return Status::IoError("state end marker missing");
  }
  if (body.remaining() != 0) {
    return Status::IoError("trailing bytes after state end");
  }
  uint64_t stored_checksum = 0;
  if (!in.read(reinterpret_cast<char*>(&stored_checksum),
               sizeof(stored_checksum))) {
    return Status::IoError("truncated state (checksum)");
  }
  if (stored_checksum != body.checksum()) {
    return Status::IoError("state checksum mismatch");
  }
  // A reopened state re-derives every cell on its first Finalize
  // (finalized_once_ is false), which is deterministic from the restored
  // statistics and rows — so kill/reopen converges bit for bit.
  Metrics().opens->Increment(1);
  return state;
}

StateDeltaSink::StateDeltaSink(BellwetherState* state, size_t sets_per_batch)
    : state_(state), sets_per_batch_(sets_per_batch < 1 ? 1 : sets_per_batch) {}

Status StateDeltaSink::Append(RegionTrainingSet&& set) {
  buffered_bytes_ += set.ByteSize();
  NoteAppend(set, buffered_bytes_);
  buffer_.push_back(std::move(set));
  if (buffer_.size() >= sets_per_batch_) return Flush();
  return Status::OK();
}

Status StateDeltaSink::Flush() {
  if (buffer_.empty()) return Status::OK();
  std::vector<RegionTrainingSet> batch;
  batch.swap(buffer_);
  buffered_bytes_ = 0;
  return state_->ApplyDelta(std::move(batch));
}

Result<std::unique_ptr<storage::TrainingDataSource>> StateDeltaSink::Finish() {
  BW_RETURN_IF_ERROR(CheckOrdering());
  BW_RETURN_IF_ERROR(Flush());
  std::unique_ptr<storage::TrainingDataSource> empty =
      std::make_unique<storage::MemoryTrainingData>(
          std::vector<RegionTrainingSet>{});
  return empty;
}

}  // namespace bellwether::core

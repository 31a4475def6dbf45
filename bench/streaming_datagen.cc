// Out-of-core smoke bench for the streaming training-data pipeline
// (docs/PERFORMANCE.md "Memory footprint & spill"): generates the mail-order
// training data twice — once unbudgeted into memory, once through a
// BudgetedSink with a deliberately tiny memory budget so the sets migrate
// to disk mid-stream — then asserts the budgeted run is bit-identical in
// every artifact the determinism tests compare (training sets, profile,
// basic-search result). The run report is written as JSON for the CI
// artifact (BENCH_streaming_datagen.json unless --report-out=<path>):
//
//   ./build/bench/streaming_datagen --budget-bytes=4096

#include <cstdio>
#include <memory>
#include <string>

#include "bench/bench_util.h"
#include "common/stopwatch.h"
#include "core/basic_search.h"
#include "core/training_data_gen.h"
#include "datagen/mail_order.h"
#include "obs/metrics.h"
#include "storage/training_data.h"
#include "storage/training_data_sink.h"

namespace {

using namespace bellwether;         // NOLINT
using namespace bellwether::bench;  // NOLINT

bool SetsIdentical(storage::TrainingDataSource* a,
                   storage::TrainingDataSource* b) {
  if (a->num_region_sets() != b->num_region_sets()) return false;
  for (size_t i = 0; i < a->num_region_sets(); ++i) {
    auto sa = a->Read(i);
    auto sb = b->Read(i);
    if (!sa.ok() || !sb.ok()) return false;
    if (sa->region != sb->region || sa->items != sb->items ||
        sa->features != sb->features || sa->targets != sb->targets ||
        sa->weights != sb->weights) {
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  BenchRunner runner(argc, argv, "streaming_datagen",
                     "Budgeted out-of-core generation vs the unbudgeted run");
  const double scale = FlagDouble(argc, argv, "scale", 1.0);
  const auto budget_bytes = static_cast<size_t>(
      FlagDouble(argc, argv, "budget-bytes", 4096.0));
  const std::string spill_path =
      FlagString(argc, argv, "spill", "/tmp/bw_streaming_datagen.spill");
  runner.report().SetConfig("scale", scale);
  runner.report().SetConfig("memory_budget_bytes",
                            static_cast<int64_t>(budget_bytes));

  datagen::MailOrderConfig config;
  config.num_items = static_cast<int32_t>(300 * scale);
  config.seed = 1996;
  runner.report().SetConfig("seed", static_cast<int64_t>(config.seed));
  datagen::MailOrderDataset dataset;
  runner.TimePhase("datagen", [&] {
    dataset = datagen::GenerateMailOrder(config);
  });
  const core::BellwetherSpec spec = dataset.MakeSpec(85.0, 0.5);

  // ---- Unbudgeted reference: everything resident ----
  Result<core::GeneratedTrainingData> ref = Status::OK();
  const double mem_seconds = runner.TimePhase("training_data_gen_memory", [&] {
    ref = core::GenerateTrainingDataInMemory(spec);
  });
  if (!ref.ok()) {
    std::fprintf(stderr, "%s\n", ref.status().ToString().c_str());
    return 1;
  }
  size_t total_bytes = 0, largest_set_bytes = 0;
  for (const auto& set : *ref->memory_sets()) {
    total_bytes += set.ByteSize();
    largest_set_bytes = std::max(largest_set_bytes, set.ByteSize());
  }

  // ---- Budgeted run: budget << total data forces the spill ----
  auto* gauge =
      obs::DefaultMetrics().GetGauge(obs::kMDatagenPeakResidentBytes);
  gauge->Reset();
  storage::BudgetedSink sink(budget_bytes, spill_path);
  Result<core::TrainingDataProfile> profile = Status::OK();
  Result<std::unique_ptr<storage::TrainingDataSource>> source = Status::OK();
  const double budget_seconds =
      runner.TimePhase("training_data_gen_budgeted", [&] {
        profile = core::GenerateTrainingData(spec, &sink);
        if (profile.ok()) source = sink.Finish();
      });
  if (!profile.ok()) {
    std::fprintf(stderr, "%s\n", profile.status().ToString().c_str());
    return 1;
  }
  if (!source.ok()) {
    std::fprintf(stderr, "%s\n", source.status().ToString().c_str());
    return 1;
  }
  const double peak_resident = gauge->Value();

  // ---- Bit-identity assertions (the out-of-core determinism contract) ----
  bool identical = SetsIdentical(ref->source.get(), source->get());
  identical = identical && profile->targets == ref->profile.targets &&
              profile->region_costs == ref->profile.region_costs &&
              profile->feasible.regions == ref->profile.feasible.regions;
  core::BasicSearchOptions options;
  options.estimate = regression::ErrorEstimate::kTrainingSet;
  Result<core::BasicSearchResult> ref_search = Status::OK();
  Result<core::BasicSearchResult> budget_search = Status::OK();
  runner.TimePhase("search_reference", [&] {
    ref_search = core::RunBasicBellwetherSearch(ref->source.get(), options);
  });
  runner.TimePhase("search_budgeted", [&] {
    budget_search = core::RunBasicBellwetherSearch(source->get(), options);
  });
  if (!ref_search.ok() || !budget_search.ok()) {
    std::fprintf(stderr, "search failed\n");
    return 1;
  }
  identical = identical &&
              budget_search->bellwether == ref_search->bellwether &&
              budget_search->error.rmse == ref_search->error.rmse &&
              budget_search->model.beta() == ref_search->model.beta();

  Row({"Mode", "Time(s)", "Resident", "Sets"});
  Row({"memory", Fmt(mem_seconds, "%.3f"),
       Fmt(static_cast<double>(total_bytes), "%.0f"),
       Fmt(static_cast<double>(ref->source->num_region_sets()), "%.0f")});
  Row({"budgeted", Fmt(budget_seconds, "%.3f"), Fmt(peak_resident, "%.0f"),
       Fmt(static_cast<double>((*source)->num_region_sets()), "%.0f")});
  std::printf("\nbudget=%zu bytes, total=%zu bytes, largest set=%zu bytes, "
              "spilled=%s, identical=%s\n",
              budget_bytes, total_bytes, largest_set_bytes,
              sink.spilled() ? "yes" : "no", identical ? "yes" : "NO");
  if (!identical) {
    std::fprintf(stderr,
                 "determinism violation: budgeted generation differs from "
                 "the unbudgeted run\n");
    return 1;
  }
  if (!sink.spilled() && budget_bytes < total_bytes) {
    std::fprintf(stderr, "budget below total data but the sink never "
                         "spilled\n");
    return 1;
  }

  runner.report().SetCount("total_training_set_bytes",
                           static_cast<int64_t>(total_bytes));
  runner.report().SetCount("largest_region_set_bytes",
                           static_cast<int64_t>(largest_set_bytes));
  runner.report().SetCount(
      "region_sets", static_cast<int64_t>(ref->source->num_region_sets()));
  runner.report().SetCount("spilled", sink.spilled() ? 1 : 0);
  runner.report().SetCount("identical_to_unbudgeted", identical ? 1 : 0);
  runner.report().SetValue("peak_resident_training_bytes", peak_resident);
  (void)mem_seconds;
  (void)budget_seconds;
  std::remove(spill_path.c_str());
  return runner.Finish();
}

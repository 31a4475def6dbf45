// Flight-recorder run reports (src/obs/report.*): histogram percentile
// edge cases, JSON round-trip bit-identity, the logical/timing split and its
// thread-count byte-identity contract, the config fingerprint, the builder
// report attachments, and the benchdiff comparison.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/basic_search.h"
#include "core/bellwether_cube.h"
#include "core/bellwether_tree.h"
#include "datagen/simulation.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "obs/trace.h"
#include "storage/training_data.h"
#include "test_util.h"

namespace bellwether::obs {
namespace {

// ---------------------------------------------------------------------------
// Histogram percentiles
// ---------------------------------------------------------------------------

TEST(HistogramPercentileTest, EmptyHistogramIsZero) {
  EXPECT_EQ(EstimateHistogramPercentile({1.0, 10.0}, {0, 0, 0}, 0.5), 0.0);
  EXPECT_EQ(EstimateHistogramPercentile({1.0, 10.0}, {0, 0, 0}, 0.99), 0.0);
}

TEST(HistogramPercentileTest, SingleSampleLandsInItsBucket) {
  // One observation in (1, 10]: every quantile interpolates inside it.
  const std::vector<double> bounds{1.0, 10.0};
  const std::vector<int64_t> counts{0, 1, 0};
  for (double q : {0.01, 0.5, 0.99}) {
    const double v = EstimateHistogramPercentile(bounds, counts, q);
    EXPECT_GT(v, 1.0) << "q=" << q;
    EXPECT_LE(v, 10.0) << "q=" << q;
  }
}

TEST(HistogramPercentileTest, AllEqualSamplesStayInOneBucket) {
  // 100 samples in the first bucket [0, 1]: estimates stay within it and
  // are monotone in the quantile.
  const std::vector<double> bounds{1.0, 10.0, 100.0};
  const std::vector<int64_t> counts{100, 0, 0, 0};
  double prev = -1.0;
  for (double q : {0.0, 0.25, 0.5, 0.95, 1.0}) {
    const double v = EstimateHistogramPercentile(bounds, counts, q);
    EXPECT_GE(v, 0.0);
    EXPECT_LE(v, 1.0);
    EXPECT_GE(v, prev) << "not monotone at q=" << q;
    prev = v;
  }
}

TEST(HistogramPercentileTest, OverflowBucketClampsToLastFiniteBound) {
  // Everything in the +Inf overflow bucket: report the highest finite bound
  // rather than inventing an unbounded estimate.
  EXPECT_EQ(EstimateHistogramPercentile({1.0, 10.0}, {0, 0, 5}, 0.5), 10.0);
  EXPECT_EQ(EstimateHistogramPercentile({1.0, 10.0}, {0, 0, 5}, 0.99), 10.0);
}

TEST(HistogramPercentileTest, QuantileIsClamped) {
  const std::vector<double> bounds{1.0};
  const std::vector<int64_t> counts{4, 0};
  EXPECT_EQ(EstimateHistogramPercentile(bounds, counts, -0.5),
            EstimateHistogramPercentile(bounds, counts, 0.0));
  EXPECT_EQ(EstimateHistogramPercentile(bounds, counts, 1.5),
            EstimateHistogramPercentile(bounds, counts, 1.0));
}

TEST(HistogramPercentileTest, SingleBucketHistogramInterpolatesFromZero) {
  // Degenerate histogram with one finite bucket [0, 5]: estimates
  // interpolate linearly from the implicit 0 lower edge.
  const std::vector<double> bounds{5.0};
  const std::vector<int64_t> counts{4, 0};
  EXPECT_EQ(EstimateHistogramPercentile(bounds, counts, 0.0), 0.0);
  EXPECT_NEAR(EstimateHistogramPercentile(bounds, counts, 0.5), 2.5, 1e-12);
  EXPECT_NEAR(EstimateHistogramPercentile(bounds, counts, 1.0), 5.0, 1e-12);
}

TEST(HistogramPercentileTest, SingleBucketOverflowOnlyClampsToTheBound) {
  EXPECT_EQ(EstimateHistogramPercentile({5.0}, {0, 9}, 0.5), 5.0);
  EXPECT_EQ(EstimateHistogramPercentile({5.0}, {0, 9}, 0.99), 5.0);
}

TEST(HistogramPercentileTest, MalformedShapesReturnZero) {
  // No finite buckets, or a count vector that does not match bounds+1.
  EXPECT_EQ(EstimateHistogramPercentile({}, {7}, 0.5), 0.0);
  EXPECT_EQ(EstimateHistogramPercentile({1.0}, {7}, 0.5), 0.0);
  EXPECT_EQ(EstimateHistogramPercentile({1.0}, {1, 2, 3}, 0.5), 0.0);
}

TEST(HistogramPercentileTest, InterpolatesAcrossBuckets) {
  // 10 samples in (0,1], 10 in (1,2]: the median sits at the bucket edge
  // and p95 inside the second bucket.
  const std::vector<double> bounds{1.0, 2.0};
  const std::vector<int64_t> counts{10, 10, 0};
  EXPECT_NEAR(EstimateHistogramPercentile(bounds, counts, 0.5), 1.0, 1e-12);
  const double p95 = EstimateHistogramPercentile(bounds, counts, 0.95);
  EXPECT_GT(p95, 1.5);
  EXPECT_LE(p95, 2.0);
}

// ---------------------------------------------------------------------------
// RunReport serialization
// ---------------------------------------------------------------------------

RunReport MakeFullReport() {
  RunReport r{"unit_test"};
  r.SetConfig("scale", 0.5);
  r.SetConfig("items", static_cast<int64_t>(123));
  r.SetConfig("dataset", "simulation");
  r.SetCount("rows_scanned", 4567);
  r.SetCount("negative", -3);
  r.SetValue("rmse", 0.123456789012345);
  r.SetText("bellwether", "[1-8, MA]");
  r.AddPhase("build", 1.25);
  r.AddPhase("build", 0.75);  // merges: 2.0s, count 2
  r.AddPhase("scan", 0.004);
  return r;
}

TEST(RunReportTest, RoundTripIsBitIdentical) {
  RunReport r = MakeFullReport();
  // Snapshot a local registry so metrics sections round-trip too.
  MetricsRegistry registry;
  registry.GetCounter("test_total")->Increment(7);
  registry.GetGauge("test_gauge")->Set(2.5);
  auto* h = registry.GetHistogram("test_hist", {1.0, 10.0});
  h->Observe(0.5);
  h->Observe(5.0);
  h->Observe(50.0);
  r.CaptureMetrics(registry);
  r.CaptureEnvironment();

  const std::string json = r.ToJson();
  auto parsed = RunReport::FromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->ToJson(), json);

  // Parsed fields match the originals, not only the serialized bytes.
  EXPECT_EQ(parsed->name(), "unit_test");
  EXPECT_EQ(parsed->GetCount("rows_scanned"), 4567);
  EXPECT_EQ(parsed->GetValue("rmse"), 0.123456789012345);
  EXPECT_EQ(parsed->phases().at("build").count, 2);
  EXPECT_EQ(parsed->phases().at("build").wall_seconds, 2.0);
  EXPECT_EQ(parsed->metric_counters().at("test_total"), 7);
  EXPECT_EQ(parsed->metric_histograms().at("test_hist").count, 3);
}

TEST(RunReportTest, LogicalJsonRoundTripsAndExcludesTimingSections) {
  RunReport r = MakeFullReport();
  r.CaptureEnvironment();
  const std::string logical = r.LogicalJson();
  // Logical identity: no wall times, no environment, no metrics.
  EXPECT_EQ(logical.find("phases"), std::string::npos);
  EXPECT_EQ(logical.find("environment"), std::string::npos);
  EXPECT_EQ(logical.find("metrics"), std::string::npos);
  EXPECT_EQ(logical.find("peak_rss"), std::string::npos);
  EXPECT_NE(logical.find("\"config\""), std::string::npos);
  EXPECT_NE(logical.find("config_fingerprint"), std::string::npos);
  EXPECT_NE(logical.find("rows_scanned"), std::string::npos);

  auto parsed = RunReport::FromJson(logical);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->LogicalJson(), logical);
}

TEST(RunReportTest, FromJsonRejectsWrongSchemaOrVersion) {
  EXPECT_FALSE(RunReport::FromJson("{}").ok());
  EXPECT_FALSE(RunReport::FromJson("not json").ok());
  RunReport r{"x"};
  std::string json = r.ToJson();
  const size_t pos = json.find("bellwether.run_report");
  ASSERT_NE(pos, std::string::npos);
  json.replace(pos, 10, "otherthing");
  EXPECT_FALSE(RunReport::FromJson(json).ok());
}

TEST(RunReportTest, TimedPhaseSpansAreNotRecordedTwice) {
  // A bench-timed phase (AddPhase plus a kPhaseSpanCategory span), a
  // bench span without its own AddPhase, and a library span.
  Trace trace;
  RunReport r{"phases"};
  {
    TraceSpan phase("evaluate", kPhaseSpanCategory, &trace);
    { TraceSpan sweep("budget_sweep", "bench", &trace); }
    { TraceSpan lib("RainForestLevelScan", "bellwether", &trace); }
  }
  r.AddPhase("evaluate", 0.5);
  r.CapturePhasesFromTrace(trace);
  EXPECT_EQ(r.phases().count("evaluate"), 1u);
  EXPECT_EQ(r.phases().at("evaluate").count, 1);
  EXPECT_EQ(r.phases().count("span/evaluate"), 0u);
  EXPECT_EQ(r.phases().count("span/budget_sweep"), 1u);
  EXPECT_EQ(r.phases().count("span/RainForestLevelScan"), 1u);
  EXPECT_EQ(r.phases().size(), 3u);
}

TEST(RunReportTest, ConfigFingerprintIgnoresInsertionOrder) {
  RunReport a{"r"};
  a.SetConfig("alpha", 1.0);
  a.SetConfig("beta", "two");
  RunReport b{"r"};
  b.SetConfig("beta", "two");
  b.SetConfig("alpha", 1.0);
  EXPECT_EQ(a.ConfigFingerprint(), b.ConfigFingerprint());

  b.SetConfig("alpha", 2.0);
  EXPECT_NE(a.ConfigFingerprint(), b.ConfigFingerprint());
}

// ---------------------------------------------------------------------------
// benchdiff
// ---------------------------------------------------------------------------

RunReport TimedReport(double build_seconds) {
  RunReport r{"bench"};
  r.SetConfig("scale", 1.0);
  r.SetCount("rows", 100);
  r.AddPhase("build", build_seconds);
  r.AddPhase("tiny", 0.0001);
  return r;
}

TEST(BenchDiffTest, IdenticalReportsPass) {
  const RunReport r = TimedReport(1.0);
  const BenchDiffResult diff = CompareRunReports(r, r);
  EXPECT_FALSE(diff.failed);
  EXPECT_TRUE(diff.entries.empty()) << diff.Summary();
}

TEST(BenchDiffTest, TwoTimesSlowdownFails) {
  const BenchDiffResult diff =
      CompareRunReports(TimedReport(1.0), TimedReport(2.0));
  EXPECT_TRUE(diff.failed);
  ASSERT_EQ(diff.entries.size(), 1u) << diff.Summary();
  EXPECT_EQ(diff.entries[0].kind, BenchDiffKind::kRegression);
  EXPECT_EQ(diff.entries[0].key, "build");
  EXPECT_NEAR(diff.entries[0].ratio, 2.0, 1e-9);
  EXPECT_NE(diff.Summary().find("REGRESSION"), std::string::npos);
}

TEST(BenchDiffTest, SlowdownBelowThresholdPasses) {
  const BenchDiffResult diff =
      CompareRunReports(TimedReport(1.0), TimedReport(1.10));
  EXPECT_FALSE(diff.failed) << diff.Summary();
}

TEST(BenchDiffTest, NoiseFloorSuppressesMicroPhases) {
  // "tiny" doubles too (0.1ms -> 0.2ms) but stays under min_seconds in both
  // runs, so only phases above the floor can regress.
  RunReport old_run = TimedReport(1.0);
  RunReport new_run = TimedReport(1.0);
  new_run.AddPhase("tiny", 0.0001);  // now 2x the baseline's tiny phase
  const BenchDiffResult diff = CompareRunReports(old_run, new_run);
  EXPECT_FALSE(diff.failed) << diff.Summary();
}

TEST(BenchDiffTest, ImprovementIsReportedNotFailed) {
  const BenchDiffResult diff =
      CompareRunReports(TimedReport(2.0), TimedReport(1.0));
  EXPECT_FALSE(diff.failed);
  ASSERT_EQ(diff.entries.size(), 1u);
  EXPECT_EQ(diff.entries[0].kind, BenchDiffKind::kImprovement);
}

TEST(BenchDiffTest, CountDriftFailsOnlyWithTheOption) {
  RunReport old_run = TimedReport(1.0);
  RunReport new_run = TimedReport(1.0);
  new_run.SetCount("rows", 99);
  const BenchDiffResult soft = CompareRunReports(old_run, new_run);
  EXPECT_FALSE(soft.failed);
  ASSERT_EQ(soft.entries.size(), 1u);
  EXPECT_EQ(soft.entries[0].kind, BenchDiffKind::kCountDrift);

  BenchDiffOptions strict;
  strict.fail_on_count_drift = true;
  EXPECT_TRUE(CompareRunReports(old_run, new_run, strict).failed);
}

TEST(BenchDiffTest, PhasePresentInOnlyOneRunIsReported) {
  RunReport old_run = TimedReport(1.0);
  RunReport new_run = TimedReport(1.0);
  new_run.AddPhase("extra", 1.0);
  const BenchDiffResult diff = CompareRunReports(old_run, new_run);
  EXPECT_FALSE(diff.failed);
  ASSERT_EQ(diff.entries.size(), 1u);
  EXPECT_EQ(diff.entries[0].kind, BenchDiffKind::kPhaseOnlyInOne);
  EXPECT_EQ(diff.entries[0].key, "extra");
}

// ---------------------------------------------------------------------------
// Profile section and allocation drift
// ---------------------------------------------------------------------------

ReportProfile MakeProfileSection(int64_t build_calls) {
  ReportProfile p;
  p.period_us = 1000;
  p.total_samples = 10;
  p.dropped_samples = 1;
  p.self_samples = {{"hot_loop", 6}, {"other", 4}};
  p.alloc["build"] = {1 << 20, build_calls, build_calls};
  return p;
}

TEST(RunReportTest, ProfileSectionRoundTripsAndStaysOutOfLogicalJson) {
  RunReport r = MakeFullReport();
  r.set_profile(MakeProfileSection(1000));

  const std::string json = r.ToJson();
  EXPECT_NE(json.find("\"profile\""), std::string::npos);
  auto parsed = RunReport::FromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->ToJson(), json);
  EXPECT_EQ(parsed->profile(), r.profile());

  // Sample counts are timing, not logical identity.
  EXPECT_EQ(r.LogicalJson().find("profile"), std::string::npos);
  EXPECT_EQ(r.LogicalJson(), MakeFullReport().LogicalJson());
}

TEST(RunReportTest, EmptyProfileSectionIsOmittedFromToJson) {
  // A report written with profiling disabled keeps its historical shape.
  RunReport r = MakeFullReport();
  ASSERT_TRUE(r.profile().empty());
  EXPECT_EQ(r.ToJson().find("\"profile\""), std::string::npos);
}

TEST(RunReportTest, SummarizeProfileTakesTopNFramesAndAllocCounters) {
  Profile p;
  p.AddStack("phase;a", 5);
  p.AddStack("phase;b", 3);
  p.AddStack("phase;c", 1);
  p.set_period_us(2000);
  p.add_dropped_samples(4);
  std::map<std::string, HeapTracker::LabelStats> alloc;
  alloc["phase"] = {4096, 100, 90};

  const ReportProfile summary = SummarizeProfile(p, alloc, /*top_n=*/2);
  EXPECT_EQ(summary.period_us, 2000);
  EXPECT_EQ(summary.total_samples, 9);
  EXPECT_EQ(summary.dropped_samples, 4);
  ASSERT_EQ(summary.self_samples.size(), 2u) << "top_n must cap the table";
  EXPECT_EQ(summary.self_samples.at("a"), 5);
  EXPECT_EQ(summary.self_samples.at("b"), 3);
  ASSERT_TRUE(summary.alloc.count("phase"));
  EXPECT_EQ(summary.alloc.at("phase").bytes, 4096);
  EXPECT_EQ(summary.alloc.at("phase").calls, 100);
  EXPECT_EQ(summary.alloc.at("phase").frees, 90);
}

TEST(BenchDiffTest, AllocDriftIsReportedAndFailsOnlyWithTheOption) {
  RunReport old_run = TimedReport(1.0);
  old_run.set_profile(MakeProfileSection(1000));
  RunReport new_run = TimedReport(1.0);
  new_run.set_profile(MakeProfileSection(2000));

  const BenchDiffResult soft = CompareRunReports(old_run, new_run);
  EXPECT_FALSE(soft.failed);
  ASSERT_EQ(soft.entries.size(), 1u) << soft.Summary();
  EXPECT_EQ(soft.entries[0].kind, BenchDiffKind::kAllocDrift);
  EXPECT_EQ(soft.entries[0].key, "build");
  EXPECT_NEAR(soft.entries[0].ratio, 2.0, 1e-9);
  EXPECT_NE(soft.Summary().find("allocs"), std::string::npos);

  BenchDiffOptions strict;
  strict.fail_on_alloc_drift = true;
  EXPECT_TRUE(CompareRunReports(old_run, new_run, strict).failed);
}

TEST(BenchDiffTest, AllocDecreaseIsReportedButNeverFails) {
  // The gate is one-sided: an intentional alloc-count improvement (arena
  // reuse, batching) is reported for visibility but must not fail even
  // with fail_on_alloc_drift, so it re-baselines on the next upload.
  RunReport old_run = TimedReport(1.0);
  old_run.set_profile(MakeProfileSection(2000));
  RunReport new_run = TimedReport(1.0);
  new_run.set_profile(MakeProfileSection(500));

  BenchDiffOptions strict;
  strict.fail_on_alloc_drift = true;
  const BenchDiffResult diff = CompareRunReports(old_run, new_run, strict);
  ASSERT_EQ(diff.entries.size(), 1u) << diff.Summary();
  EXPECT_EQ(diff.entries[0].kind, BenchDiffKind::kAllocDrift);
  EXPECT_NEAR(diff.entries[0].ratio, 0.25, 1e-9);
  EXPECT_FALSE(diff.failed) << diff.Summary();
}

TEST(BenchDiffTest, AllocDriftBelowTheCallFloorIsIgnored) {
  // 10 -> 30 calls is 3x but both sit under kAllocDriftFloorCalls; phases
  // that barely allocate must not jitter the gate.
  RunReport old_run = TimedReport(1.0);
  old_run.set_profile(MakeProfileSection(10));
  RunReport new_run = TimedReport(1.0);
  new_run.set_profile(MakeProfileSection(30));
  const BenchDiffResult diff = CompareRunReports(old_run, new_run);
  EXPECT_TRUE(diff.entries.empty()) << diff.Summary();
}

TEST(BenchDiffTest, ToJsonCarriesVerdictAndEntries) {
  RunReport old_run = TimedReport(1.0);
  RunReport new_run = TimedReport(2.0);
  new_run.SetCount("rows", 99);
  const BenchDiffResult diff = CompareRunReports(old_run, new_run);
  ASSERT_TRUE(diff.failed);

  const std::string json = diff.ToJson();
  EXPECT_NE(json.find("\"failed\":true"), std::string::npos) << json;
  EXPECT_NE(json.find("\"schema_mismatch\":false"), std::string::npos);
  EXPECT_NE(json.find("\"kind\":\"REGRESSION\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"kind\":\"count-drift\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"key\":\"build\""), std::string::npos);
}

// ---------------------------------------------------------------------------
// Builder attachments and the thread-count identity contract
// ---------------------------------------------------------------------------

datagen::SimulationDataset MakeSim(uint64_t seed) {
  datagen::SimulationConfig config;
  config.num_items = 150;
  config.generator_tree_nodes = 7;
  config.noise = 0.2;
  config.num_windows = 3;
  config.location_fanouts = {2, 2};
  config.seed = seed;
  return datagen::GenerateSimulation(config);
}

TEST(BuilderReportTest, SearchAttachesReportWithLogicalTelemetry) {
  datagen::SimulationDataset sim = MakeSim(61);
  storage::MemoryTrainingData source(sim.sets);
  core::BasicSearchOptions options;
  auto result = core::RunBasicBellwetherSearch(&source, options);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  const RunReport& r = result->report;
  EXPECT_EQ(r.name(), "basic_search");
  EXPECT_EQ(r.GetCount("search.regions_scored"),
            result->telemetry.regions_scored);
  EXPECT_EQ(r.GetCount("search.rows_scanned"), result->telemetry.rows_scanned);
  EXPECT_FALSE(r.config().count("exec.num_threads"))
      << "thread counts must not enter the logical config";
  EXPECT_TRUE(r.phases().count("search.scan"));
}

TEST(BuilderReportTest, TreeAndCubeAttachReports) {
  datagen::SimulationDataset sim = MakeSim(63);
  storage::MemoryTrainingData tree_src(sim.sets);
  core::TreeBuildConfig tree_cfg;
  tree_cfg.split_columns = sim.feature_columns;
  tree_cfg.min_items = 25;
  tree_cfg.max_depth = 3;
  tree_cfg.min_examples_per_model = 8;
  auto tree =
      core::BuildBellwetherTreeRainForest(&tree_src, sim.items, tree_cfg);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_EQ(tree->build_report().name(), "tree_rainforest");
  EXPECT_EQ(tree->build_report().GetCount("tree.nodes_created"),
            static_cast<int64_t>(tree->nodes().size()));

  auto subsets =
      core::ItemSubsetSpace::Create(sim.items, sim.item_hierarchies);
  ASSERT_TRUE(subsets.ok());
  core::CubeBuildConfig cube_cfg;
  cube_cfg.min_subset_size = 20;
  cube_cfg.min_examples_per_model = 8;
  storage::MemoryTrainingData cube_src(sim.sets);
  auto cube =
      core::BuildBellwetherCubeSingleScan(&cube_src, *subsets, cube_cfg);
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  EXPECT_EQ(cube->build_report().name(), "cube_single_scan");
  EXPECT_EQ(cube->build_report().GetCount("cube.cells_materialized"),
            static_cast<int64_t>(cube->cells().size()));
}

TEST(BuilderReportTest, LogicalJsonByteIdenticalAcrossThreadCounts) {
  datagen::SimulationDataset sim = MakeSim(65);
  auto subsets =
      core::ItemSubsetSpace::Create(sim.items, sim.item_hierarchies);
  ASSERT_TRUE(subsets.ok());

  std::string serial_search, serial_tree, serial_cube;
  for (int32_t threads : {1, 3}) {
    SCOPED_TRACE("num_threads=" + std::to_string(threads));

    core::BasicSearchOptions search_opts;
    search_opts.exec.num_threads = threads;
    storage::MemoryTrainingData search_src(sim.sets);
    auto search = core::RunBasicBellwetherSearch(&search_src, search_opts);
    ASSERT_TRUE(search.ok());

    core::TreeBuildConfig tree_cfg;
    tree_cfg.split_columns = sim.feature_columns;
    tree_cfg.min_items = 25;
    tree_cfg.max_depth = 3;
    tree_cfg.min_examples_per_model = 8;
    tree_cfg.exec.num_threads = threads;
    storage::MemoryTrainingData tree_src(sim.sets);
    auto tree =
        core::BuildBellwetherTreeRainForest(&tree_src, sim.items, tree_cfg);
    ASSERT_TRUE(tree.ok());

    core::CubeBuildConfig cube_cfg;
    cube_cfg.min_subset_size = 20;
    cube_cfg.min_examples_per_model = 8;
    cube_cfg.exec.num_threads = threads;
    auto cube = BuildCubeViaState(sim.sets, *subsets, cube_cfg);
    ASSERT_TRUE(cube.ok());

    if (threads == 1) {
      serial_search = search->report.LogicalJson();
      serial_tree = tree->build_report().LogicalJson();
      serial_cube = cube->build_report().LogicalJson();
      EXPECT_FALSE(serial_search.empty());
    } else {
      EXPECT_EQ(search->report.LogicalJson(), serial_search);
      EXPECT_EQ(tree->build_report().LogicalJson(), serial_tree);
      EXPECT_EQ(cube->build_report().LogicalJson(), serial_cube);
    }
  }
}

}  // namespace
}  // namespace bellwether::obs

// Tests of the benchmark's own helpers and a tiny seeded run of every
// workload, traced and untraced.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "obs/json.h"
#include "stats.h"
#include "workloads.h"

namespace perfbench {
namespace {

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // unsorted on purpose
  return v;
}

TEST(TailPercentileTest, PicksHighestPercentileWithTenBeyond) {
  const Tail t200 = TailPercentile(OneTo(200));
  EXPECT_EQ(t200.percentile, 95);
  EXPECT_EQ(t200.value, 190.0);
  EXPECT_EQ(t200.samples, 200);
  EXPECT_EQ(t200.beyond, 10);

  const Tail t1000 = TailPercentile(OneTo(1000));
  EXPECT_EQ(t1000.percentile, 99);
  EXPECT_EQ(t1000.value, 990.0);

  // 150 samples: p93 reads rank 140 with 10 beyond; p94 would leave 9.
  const Tail t150 = TailPercentile(OneTo(150));
  EXPECT_EQ(t150.percentile, 93);
  EXPECT_EQ(t150.value, 140.0);
  EXPECT_EQ(t150.beyond, 10);
}

TEST(TailPercentileTest, TooFewSamplesReportNoPercentile) {
  const Tail t = TailPercentile(OneTo(10));
  EXPECT_EQ(t.percentile, 0);
  EXPECT_EQ(t.samples, 10);
  EXPECT_EQ(TailPercentile({}).percentile, 0);
}

TEST(MedianTest, OddAndEvenCounts) {
  EXPECT_EQ(Median({3, 1, 2}), 2.0);
  EXPECT_EQ(Median({4, 1, 3, 2}), 2.5);
  EXPECT_EQ(Median({}), 0.0);
}

TEST(LedgerTest, FailedFracCountsCallsPredictionsAndChecks) {
  Ledger ledger;
  EXPECT_EQ(ledger.failed_frac(), 0.0);
  EXPECT_TRUE(ledger.Record(true));    // a call that succeeded
  EXPECT_FALSE(ledger.Record(false));  // a call that failed
  ledger.RecordMany(5, 2);             // five predictions, two unanswered
  EXPECT_TRUE(ledger.Record(true));    // a check that held
  EXPECT_EQ(ledger.attempted(), 8);
  EXPECT_EQ(ledger.failed(), 3);
  EXPECT_DOUBLE_EQ(ledger.failed_frac(), 3.0 / 8.0);
}

std::set<std::string> ManifestNames(const char* section) {
  std::ifstream in(PERFBENCH_MANIFEST);
  const std::string text((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  auto doc = bellwether::obs::ParseJson(text);
  std::set<std::string> names;
  if (!doc.ok() || doc->Find(section) == nullptr) return names;
  for (const auto& entry : doc->Find(section)->array()) {
    names.insert(entry.Find("name")->str());
  }
  return names;
}

template <size_t N>
std::set<std::string> Names(const MetricSpec (&specs)[N]) {
  std::set<std::string> names;
  for (const MetricSpec& m : specs) names.insert(m.name);
  return names;
}

TEST(ManifestTest, BenchmarkJsonListsWhatIsEmitted) {
  EXPECT_EQ(ManifestNames("end_to_end"), Names(kEndToEndMetrics));
  EXPECT_EQ(ManifestNames("per_layer"), Names(kPerLayerMetrics));
  EXPECT_EQ(ManifestNames("workloads"),
            std::set<std::string>(ListedWorkloadNames().begin(),
                                  ListedWorkloadNames().end()));
}

class TinyRunTest : public ::testing::TestWithParam<std::string> {};

TEST_P(TinyRunTest, EmitsEveryMetricAndPassesItsChecks) {
  for (const bool trace : {false, true}) {
    RunConfig config;
    config.workload = GetParam();
    config.seed = 5;
    config.seconds = 0.01;
    config.trace = trace;
    config.work_dir = ::testing::TempDir();
    config.sizes = Sizes::Tiny();
    const RunResult result = RunWorkload(config);
    for (const std::string& e : result.errors) ADD_FAILURE() << e;
    EXPECT_TRUE(result.correct);
    EXPECT_GT(result.attempted, 0);
    EXPECT_EQ(result.failed, 0);
    const std::set<std::string> want =
        trace ? Names(kPerLayerMetrics) : Names(kEndToEndMetrics);
    std::set<std::string> got;
    for (const auto& [name, value] : result.metrics) {
      got.insert(name);
      EXPECT_TRUE(std::isfinite(value)) << name;
    }
    EXPECT_EQ(got, want);
    if (!trace) {
      for (const auto& [name, value] : result.metrics) {
        EXPECT_GT(value, 0.0) << name;
      }
    }
    bool has_failed_frac = false;
    for (const Line& line : result.lines) {
      has_failed_frac = has_failed_frac || line.name == "failed_frac";
    }
    EXPECT_TRUE(has_failed_frac);
  }
}

INSTANTIATE_TEST_SUITE_P(Workloads, TinyRunTest,
                         ::testing::ValuesIn(WorkloadNames()));

TEST(RunWorkloadTest, UnknownWorkloadIsAnError) {
  RunConfig config;
  config.workload = "no_such_workload";
  const RunResult result = RunWorkload(config);
  EXPECT_FALSE(result.correct);
  EXPECT_FALSE(result.errors.empty());
}

}  // namespace
}  // namespace perfbench

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "common/random.h"
#include "obs/heap_track.h"
#include "obs/trace.h"
#include "regression/dataset.h"
#include "regression/error.h"
#include "regression/linear_model.h"

namespace bellwether::regression {
namespace {

// y = 3 + 2*x with small deterministic structure, exact fit expected.
Dataset MakeExactLinear() {
  Dataset d(2);  // intercept + x
  for (double x : {0.0, 1.0, 2.0, 3.0, 4.0}) {
    d.Add({1.0, x}, 3.0 + 2.0 * x);
  }
  return d;
}

Dataset MakeNoisyLinear(int n, double noise, uint64_t seed) {
  Rng rng(seed);
  Dataset d(3);
  for (int i = 0; i < n; ++i) {
    const double x1 = rng.NextDouble(-5, 5);
    const double x2 = rng.NextDouble(-5, 5);
    d.Add({1.0, x1, x2},
          1.5 - 2.0 * x1 + 0.5 * x2 + noise * rng.NextGaussian());
  }
  return d;
}

TEST(DatasetTest, AddAndAccess) {
  Dataset d = MakeExactLinear();
  EXPECT_EQ(d.num_examples(), 5u);
  EXPECT_EQ(d.num_features(), 2u);
  EXPECT_DOUBLE_EQ(d.x(2)[1], 2.0);
  EXPECT_DOUBLE_EQ(d.y(2), 7.0);
  EXPECT_DOUBLE_EQ(d.w(2), 1.0);
}

TEST(DatasetTest, Subset) {
  Dataset d = MakeExactLinear();
  Dataset s = d.Subset({0, 4});
  EXPECT_EQ(s.num_examples(), 2u);
  EXPECT_DOUBLE_EQ(s.y(1), 11.0);
}

TEST(LinearModelTest, ExactRecovery) {
  auto model = FitLeastSquares(MakeExactLinear());
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(model->beta()[0], 3.0, 1e-9);
  EXPECT_NEAR(model->beta()[1], 2.0, 1e-9);
  EXPECT_NEAR(model->Predict({1.0, 10.0}), 23.0, 1e-8);
}

TEST(LinearModelTest, NoisyRecovery) {
  auto model = FitLeastSquares(MakeNoisyLinear(2000, 0.1, 5));
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(model->beta()[0], 1.5, 0.05);
  EXPECT_NEAR(model->beta()[1], -2.0, 0.05);
  EXPECT_NEAR(model->beta()[2], 0.5, 0.05);
}

TEST(LinearModelTest, FitFailsOnEmpty) {
  RegressionSuffStats stats(2);
  EXPECT_FALSE(stats.Fit().ok());
  EXPECT_FALSE(stats.TrainingSse().ok());
}

TEST(SuffStatsTest, WlsDownweightsOutliers) {
  // Clean line y = x plus one gross outlier with negligible weight.
  Dataset d(2);
  d.AddWeighted({1.0, 1.0}, 1.0, 1.0);
  d.AddWeighted({1.0, 2.0}, 2.0, 1.0);
  d.AddWeighted({1.0, 3.0}, 3.0, 1.0);
  d.AddWeighted({1.0, 4.0}, 100.0, 1e-8);
  auto model = FitLeastSquares(d);
  ASSERT_TRUE(model.ok());
  EXPECT_NEAR(model->beta()[0], 0.0, 1e-3);
  EXPECT_NEAR(model->beta()[1], 1.0, 1e-3);
}

// Theorem 1: g is fixed-size and q (element-wise sum) recombines exactly —
// merged statistics over any partition equal the monolithic statistics.
class SuffStatsMergeTest : public ::testing::TestWithParam<int> {};

TEST_P(SuffStatsMergeTest, MergeEqualsMonolithic) {
  Rng rng(GetParam());
  const size_t p = 1 + rng.NextUint64(5);
  Dataset d(p);
  const int n = 50 + static_cast<int>(rng.NextUint64(100));
  std::vector<double> x(p);
  for (int i = 0; i < n; ++i) {
    for (auto& v : x) v = rng.NextDouble(-3, 3);
    d.AddWeighted(x, rng.NextDouble(-10, 10), rng.NextDouble(0.1, 2.0));
  }
  RegressionSuffStats whole(p);
  whole.AddDataset(d);

  // Split into 3 random parts.
  RegressionSuffStats parts[3] = {RegressionSuffStats(p),
                                  RegressionSuffStats(p),
                                  RegressionSuffStats(p)};
  for (size_t i = 0; i < d.num_examples(); ++i) {
    parts[rng.NextUint64(3)].Add(d.x(i), d.y(i), d.w(i));
  }
  RegressionSuffStats merged(p);
  for (auto& part : parts) merged.Merge(part);

  EXPECT_EQ(merged.num_examples(), whole.num_examples());
  EXPECT_NEAR(merged.ytwy(), whole.ytwy(), 1e-7);
  const std::vector<double>& got = merged.packed_xtwx();
  const std::vector<double>& want = whole.packed_xtwx();
  ASSERT_EQ(got.size(), want.size());
  // Frobenius distance of the full matrices: an off-diagonal packed entry
  // stands for two cells.
  double dist2 = 0.0;
  for (size_t r = 0; r < p; ++r) {
    for (size_t c = r; c < p; ++c) {
      const size_t idx = RegressionSuffStats::PackedIndex(p, r, c);
      const double d = got[idx] - want[idx];
      dist2 += (r == c ? 1.0 : 2.0) * d * d;
    }
  }
  EXPECT_LT(std::sqrt(dist2), 1e-7);
  ASSERT_TRUE(whole.TrainingSse().ok());
  ASSERT_TRUE(merged.TrainingSse().ok());
  EXPECT_NEAR(*merged.TrainingSse(), *whole.TrainingSse(),
              1e-6 * (1.0 + *whole.TrainingSse()));
}

INSTANTIATE_TEST_SUITE_P(Seeds, SuffStatsMergeTest, ::testing::Range(1, 11));

TEST(SuffStatsTest, MergeIntoDefaultConstructed) {
  RegressionSuffStats a;  // empty, arity 0
  RegressionSuffStats b(2);
  b.Add(std::vector<double>{1.0, 2.0}.data(), 3.0);
  a.Merge(b);
  EXPECT_EQ(a.num_examples(), 1);
  EXPECT_EQ(a.num_features(), 2u);
}

TEST(SuffStatsTest, SseMatchesDirectComputation) {
  Dataset d = MakeNoisyLinear(200, 1.0, 9);
  RegressionSuffStats stats(d.num_features());
  stats.AddDataset(d);
  auto model = stats.Fit();
  ASSERT_TRUE(model.ok());
  double direct = 0.0;
  for (size_t i = 0; i < d.num_examples(); ++i) {
    const double e = d.y(i) - model->Predict(d.x(i));
    direct += e * e;
  }
  ASSERT_TRUE(stats.TrainingSse().ok());
  EXPECT_NEAR(*stats.TrainingSse(), direct, 1e-6 * (1.0 + direct));
}

TEST(SuffStatsTest, InterpolatingModelHasZeroMse) {
  // n == p: degrees of freedom 0.
  Dataset d(2);
  d.Add({1.0, 1.0}, 5.0);
  d.Add({1.0, 2.0}, 7.0);
  RegressionSuffStats stats(2);
  stats.AddDataset(d);
  ASSERT_TRUE(stats.TrainingMse().ok());
  EXPECT_DOUBLE_EQ(*stats.TrainingMse(), 0.0);
}

TEST(SuffStatsTest, ResetClears) {
  RegressionSuffStats stats(2);
  stats.Add(std::vector<double>{1.0, 1.0}.data(), 2.0);
  stats.Reset();
  EXPECT_TRUE(stats.empty());
  EXPECT_EQ(stats.num_features(), 2u);
}

// ---- The normal-equation solve, driven through FromPacked + Fit() ----

// A statistic whose X'WX is `upper` (packed upper triangle) and X'WY `b`.
RegressionSuffStats StatsFor(size_t p, std::vector<double> upper,
                             std::vector<double> b) {
  return RegressionSuffStats::FromPacked(p, std::move(upper), std::move(b),
                                         /*ytwy=*/0.0, /*n=*/1,
                                         /*sum_w=*/1.0);
}

// A x for the symmetric matrix stored as packed upper triangle `upper`.
std::vector<double> MultiplyPacked(size_t p, const std::vector<double>& upper,
                                   const std::vector<double>& x) {
  std::vector<double> out(p, 0.0);
  for (size_t r = 0; r < p; ++r) {
    for (size_t c = 0; c < p; ++c) {
      const size_t idx = r <= c ? RegressionSuffStats::PackedIndex(p, r, c)
                                : RegressionSuffStats::PackedIndex(p, c, r);
      out[r] += upper[idx] * x[c];
    }
  }
  return out;
}

TEST(MatrixTest, Dot) {
  const double a[] = {1, 2, 3};
  const double b[] = {4, 5, 6};
  EXPECT_DOUBLE_EQ(Dot(a, b, 3), 32.0);
  // Past one four-wide block: the accumulators and the tail both count.
  const double c[] = {1, 2, 3, 4, 5, 6, 7};
  const double ones[] = {1, 1, 1, 1, 1, 1, 1};
  EXPECT_DOUBLE_EQ(Dot(c, ones, 7), 28.0);
}

TEST(SolveTest, SolveSpdKnownSystem) {
  // A = [[4,2],[2,3]], b = [10, 8] -> x = [1.75, 1.5].
  auto x = StatsFor(2, {4, 2, 3}, {10, 8}).Fit();
  ASSERT_TRUE(x.ok());
  EXPECT_NEAR(x->beta()[0], 1.75, 1e-12);
  EXPECT_NEAR(x->beta()[1], 1.5, 1e-12);
}

TEST(SolveTest, SolveSpdRidgeFallbackOnSingular) {
  // Rank-deficient PSD matrix: the ridge fallback should still produce a
  // finite solution with a small residual on the range of A.
  const std::vector<double> upper = {1, 1, 1};
  auto x = StatsFor(2, upper, {2, 2}).Fit();
  ASSERT_TRUE(x.ok());
  const std::vector<double> r = MultiplyPacked(2, upper, x->beta());
  EXPECT_NEAR(r[0], 2.0, 1e-3);
  EXPECT_NEAR(r[1], 2.0, 1e-3);
}

// Property: the solve handles random SPD systems (A = B'B + I) to high
// accuracy, across sizes — on and off the stack-scratch arities.
class SolveSpdPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SolveSpdPropertyTest, RandomSpdSystemsSolve) {
  const size_t n = static_cast<size_t>(GetParam());
  Rng rng(1000 + n);
  for (int trial = 0; trial < 10; ++trial) {
    std::vector<double> b(n * n);
    for (double& v : b) v = rng.NextGaussian();
    std::vector<double> upper(RegressionSuffStats::PackedSize(n));
    for (size_t r = 0; r < n; ++r) {
      for (size_t c = r; c < n; ++c) {
        double acc = 0.0;
        for (size_t k = 0; k < n; ++k) acc += b[k * n + r] * b[k * n + c];
        if (r == c) acc += 1.0;
        upper[RegressionSuffStats::PackedIndex(n, r, c)] = acc;
      }
    }
    std::vector<double> rhs(n);
    for (double& v : rhs) v = rng.NextGaussian();
    auto x = StatsFor(n, upper, rhs).Fit();
    ASSERT_TRUE(x.ok());
    const std::vector<double> back = MultiplyPacked(n, upper, x->beta());
    for (size_t i = 0; i < n; ++i) EXPECT_NEAR(back[i], rhs[i], 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, SolveSpdPropertyTest,
                         ::testing::Values(1, 2, 3, 5, 8, 13, 21));

TEST(ErrorTest, NormalQuantiles) {
  EXPECT_NEAR(NormalQuantileTwoSided(0.95), 1.959964, 1e-4);
  EXPECT_NEAR(NormalQuantileTwoSided(0.99), 2.575829, 1e-4);
  EXPECT_NEAR(NormalQuantileTwoSided(0.90), 1.644854, 1e-4);
}

TEST(ErrorTest, ConfidenceBounds) {
  ErrorStats e;
  e.rmse = 10.0;
  e.stddev = 2.0;
  e.num_folds = 4;
  const double ub = e.UpperConfidenceBound(0.95);
  const double lb = e.LowerConfidenceBound(0.95);
  EXPECT_NEAR(ub, 10.0 + 1.959964 * 2.0 / 2.0, 1e-3);
  EXPECT_NEAR(lb, 10.0 - 1.959964 * 2.0 / 2.0, 1e-3);
  // Degenerate spread: bound equals the estimate.
  e.stddev = 0.0;
  EXPECT_DOUBLE_EQ(e.UpperConfidenceBound(0.99), 10.0);
}

TEST(ErrorTest, TrainingErrorApproximatesNoiseLevel) {
  Dataset d = MakeNoisyLinear(2000, 2.0, 13);
  auto err = TrainingSetError(d);
  ASSERT_TRUE(err.ok());
  EXPECT_NEAR(err->rmse, 2.0, 0.15);
}

TEST(ErrorTest, CrossValidationApproximatesNoiseLevel) {
  Dataset d = MakeNoisyLinear(1000, 2.0, 17);
  Rng rng(1);
  auto err = CrossValidationError(d, 10, &rng);
  ASSERT_TRUE(err.ok());
  EXPECT_EQ(err->num_folds, 10);
  EXPECT_NEAR(err->rmse, 2.0, 0.25);
  EXPECT_GT(err->stddev, 0.0);
}

TEST(ErrorTest, TrainingAndCvAgreeForLinearModels) {
  // §7.1 Fig. 7(c): for simple linear models, training-set error tracks
  // cross-validation error closely.
  Dataset d = MakeNoisyLinear(800, 1.5, 23);
  Rng rng(2);
  auto cv = CrossValidationError(d, 10, &rng);
  auto tr = TrainingSetError(d);
  ASSERT_TRUE(cv.ok());
  ASSERT_TRUE(tr.ok());
  EXPECT_NEAR(cv->rmse, tr->rmse, 0.1 * tr->rmse);
}

TEST(ErrorTest, CvIsDeterministicGivenSeed) {
  Dataset d = MakeNoisyLinear(300, 1.0, 29);
  Rng r1(7), r2(7);
  auto a = CrossValidationError(d, 10, &r1);
  auto b = CrossValidationError(d, 10, &r2);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_DOUBLE_EQ(a->rmse, b->rmse);
}

TEST(ErrorTest, CvRejectsTinyInputs) {
  Dataset d(1);
  d.Add({1.0}, 1.0);
  Rng rng(1);
  EXPECT_FALSE(CrossValidationError(d, 10, &rng).ok());
}

TEST(ErrorTest, EvaluateRmseKnownValue) {
  LinearModel model({0.0, 1.0});  // y_hat = x
  Dataset d(2);
  d.Add({1.0, 1.0}, 2.0);  // error 1
  d.Add({1.0, 2.0}, 2.0);  // error 0
  EXPECT_NEAR(EvaluateRmse(model, d), std::sqrt(0.5), 1e-12);
}

// ---- Cross-validation from fold statistics vs the row-based oracle ----

// The row-based k-fold CV that CrossValidationError replaced: the same
// shuffle and round-robin folds, but every fold copies its training and test
// rows and refits from a fresh scan. Kept as the oracle for the
// fold-statistics path, which differs from it only in the summation order of
// each training statistic.
Result<ErrorStats> RowBasedCrossValidationError(const Dataset& data,
                                                int32_t k, Rng* rng) {
  if (k < 2) return Status::InvalidArgument("cross-validation needs k >= 2");
  const size_t n = data.num_examples();
  if (n < 2) {
    return Status::FailedPrecondition(
        "cross-validation needs at least 2 examples");
  }
  const int32_t folds = std::min<int32_t>(k, static_cast<int32_t>(n));
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  rng->Shuffle(&order);

  std::vector<double> fold_errors;
  std::vector<size_t> train_idx, test_idx;
  for (int32_t f = 0; f < folds; ++f) {
    train_idx.clear();
    test_idx.clear();
    for (size_t i = 0; i < n; ++i) {
      if (static_cast<int32_t>(i % folds) == f) {
        test_idx.push_back(order[i]);
      } else {
        train_idx.push_back(order[i]);
      }
    }
    if (test_idx.empty() || train_idx.empty()) continue;
    auto model = FitLeastSquares(data.Subset(train_idx));
    if (!model.ok()) continue;
    fold_errors.push_back(EvaluateRmse(*model, data.Subset(test_idx)));
  }
  if (fold_errors.empty()) {
    return Status::NumericError("no usable cross-validation fold");
  }
  double mean = 0.0;
  for (double e : fold_errors) mean += e;
  mean /= static_cast<double>(fold_errors.size());
  double var = 0.0;
  for (double e : fold_errors) var += (e - mean) * (e - mean);
  var = fold_errors.size() > 1
            ? var / static_cast<double>(fold_errors.size() - 1)
            : 0.0;
  ErrorStats out;
  out.rmse = mean;
  out.stddev = std::sqrt(var);
  out.num_folds = static_cast<int32_t>(fold_errors.size());
  return out;
}

// A well-conditioned random design of arity p (intercept first), optionally
// weighted.
Dataset MakeRandomDesign(size_t n, size_t p, bool weighted, Rng& rng) {
  Dataset d(p);
  std::vector<double> x(p);
  for (size_t i = 0; i < n; ++i) {
    x[0] = 1.0;
    double y = 2.0;
    for (size_t j = 1; j < p; ++j) {
      x[j] = rng.NextDouble(-3, 3);
      y += (0.5 + static_cast<double>(j)) * x[j];
    }
    y += rng.NextGaussian();
    if (weighted) {
      d.AddWeighted(x, y, rng.NextDouble(0.25, 4.0));
    } else {
      d.Add(x, y);
    }
  }
  return d;
}

// Relative gap of the fold-statistics CV to the oracle, measured against
// the RMSE (the stddev is a difference of fold errors, so its rounding
// scales with them, not with itself). Also checks the fold count and that
// both paths leave the Rng in the same state.
double CvGapToOracle(const Dataset& d, int32_t k, uint64_t seed) {
  Rng fast_rng(seed), oracle_rng(seed);
  auto fast = CrossValidationError(d, k, &fast_rng);
  auto oracle = RowBasedCrossValidationError(d, k, &oracle_rng);
  EXPECT_EQ(fast.ok(), oracle.ok());
  EXPECT_EQ(fast_rng.NextUint64(), oracle_rng.NextUint64());
  if (!fast.ok() || !oracle.ok()) return 0.0;
  EXPECT_EQ(fast->num_folds, oracle->num_folds);
  const double scale = std::max(oracle->rmse, 1e-300);
  return std::max(std::abs(fast->rmse - oracle->rmse),
                  std::abs(fast->stddev - oracle->stddev)) /
         scale;
}

TEST(CvFoldStatsTest, MatchesRowOracleOnRandomDesigns) {
  Rng rng(4242);
  double worst = 0.0;
  for (bool weighted : {false, true}) {
    for (size_t p : {1, 2, 3, 6, 8, 11}) {
      for (size_t n : {12, 57, 200, 1000}) {
        for (int32_t k : {2, 5, 10}) {
          // Well-conditioned: every training fold has at least 2p rows.
          if (n * (k - 1) / k < 2 * p) continue;
          SCOPED_TRACE("weighted=" + std::to_string(weighted) +
                       " p=" + std::to_string(p) + " n=" + std::to_string(n) +
                       " k=" + std::to_string(k));
          const Dataset d = MakeRandomDesign(n, p, weighted, rng);
          const double gap = CvGapToOracle(d, k, rng.NextUint64());
          EXPECT_LE(gap, 1e-9);
          worst = std::max(worst, gap);
        }
      }
    }
  }
  RecordProperty("max_relative_gap", std::to_string(worst));
}

TEST(CvFoldStatsTest, FewerExamplesThanFoldsUsesOneFoldPerExample) {
  Rng rng(7);
  const Dataset d = MakeRandomDesign(6, 2, /*weighted=*/false, rng);
  Rng r(11);
  auto cv = CrossValidationError(d, 10, &r);
  ASSERT_TRUE(cv.ok());
  EXPECT_EQ(cv->num_folds, 6);
  EXPECT_LE(CvGapToOracle(d, 10, 11), 1e-9);
}

TEST(CvFoldStatsTest, TwoExamplesGiveTwoFolds) {
  Dataset d(1);
  d.Add({1.0}, 3.0);
  d.Add({1.0}, 5.0);
  Rng r(3);
  auto cv = CrossValidationError(d, 10, &r);
  ASSERT_TRUE(cv.ok());
  // Each fold trains on the other example's mean and misses by 2.
  EXPECT_EQ(cv->num_folds, 2);
  EXPECT_DOUBLE_EQ(cv->rmse, 2.0);
  EXPECT_DOUBLE_EQ(cv->stddev, 0.0);
  EXPECT_EQ(CvGapToOracle(d, 10, 3), 0.0);
}

TEST(CvFoldStatsTest, UnsolvableFoldsAreSkippedOnBothPaths) {
  // One row whose square overflows makes X'WX non-finite for every training
  // fold that contains it; those fits fail and are skipped, and only the
  // fold that holds the row out is scored (its error is infinite, since the
  // row is in its test set).
  Rng rng(19);
  Dataset d = MakeRandomDesign(40, 2, /*weighted=*/false, rng);
  d.Add({1.0, 1e200}, 1.0);
  Rng fast_rng(5), oracle_rng(5);
  auto fast = CrossValidationError(d, 10, &fast_rng);
  auto oracle = RowBasedCrossValidationError(d, 10, &oracle_rng);
  ASSERT_TRUE(fast.ok());
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(fast->num_folds, 1);
  EXPECT_EQ(fast->num_folds, oracle->num_folds);
  EXPECT_EQ(fast->rmse, oracle->rmse);
  EXPECT_EQ(fast_rng.NextUint64(), oracle_rng.NextUint64());
}

TEST(CvFoldStatsTest, NoSolvableFoldFailsOnBothPaths) {
  // Two overflowing rows in a two-row dataset: no fold can be fitted.
  Dataset d(2);
  d.Add({1.0, 1e200}, 1.0);
  d.Add({1.0, -1e200}, 2.0);
  Rng fast_rng(5), oracle_rng(5);
  auto fast = CrossValidationError(d, 10, &fast_rng);
  auto oracle = RowBasedCrossValidationError(d, 10, &oracle_rng);
  ASSERT_FALSE(fast.ok());
  ASSERT_FALSE(oracle.ok());
  EXPECT_EQ(fast.status().code(), oracle.status().code());
}

TEST(CvFoldStatsTest, CollinearFoldsAgreeWithOracle) {
  // A copied column makes every training fold's X'WX singular; the ridge
  // ladder of Fit() solves each one, on both paths alike.
  Rng rng(23);
  Dataset d(3);
  for (int i = 0; i < 80; ++i) {
    const double x = rng.NextDouble(-2, 2);
    d.Add({1.0, x, x}, 1.0 + 3.0 * x + 0.1 * rng.NextGaussian());
  }
  EXPECT_LE(CvGapToOracle(d, 10, 29), 1e-9);
}

TEST(CvFoldStatsTest, InvalidArgumentsMatchOracle) {
  Rng rng(1);
  const Dataset d = MakeRandomDesign(20, 2, /*weighted=*/false, rng);
  Rng a(2), b(2);
  EXPECT_EQ(CrossValidationError(d, 1, &a).status().code(),
            RowBasedCrossValidationError(d, 1, &b).status().code());
  EXPECT_EQ(a.NextUint64(), b.NextUint64());
}

// Allocations do not grow with n beyond the one shuffled index vector: k
// fold accumulators, one training accumulator and k fitted models.
TEST(CvFoldStatsTest, AllocationCountDoesNotGrowWithExamples) {
  if (!obs::HeapTracker::interposed()) {
    GTEST_SKIP() << "sanitizer build: allocator interposition compiled out";
  }
  obs::Trace quiet;
  quiet.set_enabled(false);
  auto count_allocs = [&](size_t n) {
    Rng rng(31);
    const Dataset d = MakeRandomDesign(n, 6, /*weighted=*/true, rng);
    Rng cv_rng(37);
    obs::HeapTracker::Enable();
    bool ok = false;
    {
      obs::TraceSpan span("cv-alloc", "test", &quiet);
      ok = CrossValidationError(d, 10, &cv_rng).ok();
    }
    const auto snapshot = obs::HeapTracker::Snapshot();
    obs::HeapTracker::Disable();
    EXPECT_TRUE(ok);
    auto it = snapshot.find("cv-alloc");
    return it == snapshot.end() ? int64_t{0} : it->second.alloc_calls;
  };
  const int64_t small = count_allocs(200);
  const int64_t large = count_allocs(2000);
  EXPECT_GT(small, 0);
  EXPECT_EQ(small, large);
}

}  // namespace
}  // namespace bellwether::regression

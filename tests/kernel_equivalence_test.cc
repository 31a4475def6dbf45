// Randomized property tests pinning the optimized kernels of the
// cache-conscious pass to retained reference implementations:
//
//  * RegressionSuffStats packed Add / batched AddBatch vs a naive full-
//    matrix reference. The packed kernels keep the per-element left-to-
//    right summation order of the scalar path, but the compiler is free to
//    contract a*b+c into FMA differently per loop (-ffp-contract), so the
//    comparison uses a small documented relative bound rather than bit
//    equality.
//  * Merge and the flat NumericAgg MergeSlice run: pure same-order
//    additions, compared exactly.
//  * The KeyBitsAgg run (distinct-key bitmaps): word-wise OR, compared
//    with a std::set union.
//  * The packed in-place normal-equation solve vs the dense Cholesky it
//    replaced (RefSolveSpd): same operations in the same order, compared
//    bit for bit, including the ridge and mean-fallback tiers.
//
// Determinism of *one binary* across thread counts and checkpoint resume is
// covered by parallel_determinism_test and robust_test; these tests pin the
// numerics of the kernels themselves.

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "datagen/hierarchy_util.h"
#include "obs/heap_track.h"
#include "obs/trace.h"
#include "olap/cube.h"
#include "olap/region.h"
#include "regression/linear_model.h"

namespace bellwether {
namespace {

using regression::RegressionSuffStats;

// Relative bound for values that may differ only by FMA contraction
// choices: a handful of ULPs. 64 * eps is ~1.4e-14 relative — far below
// any tolerance the consumers use, far above real contraction drift.
constexpr double kContractionRelBound = 64 * 1e-16;

void ExpectClose(double a, double b, const char* what) {
  const double scale = std::max({std::abs(a), std::abs(b), 1.0});
  EXPECT_LE(std::abs(a - b), kContractionRelBound * scale)
      << what << ": " << a << " vs " << b;
}

// Reference accumulator: the pre-packing implementation — full p x p
// row-major matrix, scalar rank-1 updates.
struct RefSuffStats {
  explicit RefSuffStats(size_t p)
      : p(p), xtwx(p * p, 0.0), xtwy(p, 0.0), ytwy(0.0), n(0), sum_w(0.0) {}

  void Add(const double* x, double y, double w) {
    for (size_t r = 0; r < p; ++r) {
      const double wr = w * x[r];
      for (size_t c = 0; c < p; ++c) xtwx[r * p + c] += wr * x[c];
      xtwy[r] += wr * y;
    }
    ytwy += w * y * y;
    ++n;
    sum_w += w;
  }

  void Merge(const RefSuffStats& o) {
    for (size_t i = 0; i < p * p; ++i) xtwx[i] += o.xtwx[i];
    for (size_t j = 0; j < p; ++j) xtwy[j] += o.xtwy[j];
    ytwy += o.ytwy;
    n += o.n;
    sum_w += o.sum_w;
  }

  size_t p;
  std::vector<double> xtwx;  // p x p, row-major
  std::vector<double> xtwy;
  double ytwy;
  int64_t n;
  double sum_w;
};

// X'WX of `s` as a full p x p row-major matrix, mirrored from the packed
// upper triangle.
std::vector<double> Unpack(const RegressionSuffStats& s) {
  const size_t p = s.num_features();
  std::vector<double> full(p * p);
  for (size_t r = 0; r < p; ++r) {
    for (size_t c = r; c < p; ++c) {
      const double v =
          s.packed_xtwx()[RegressionSuffStats::PackedIndex(p, r, c)];
      full[r * p + c] = v;
      full[c * p + r] = v;
    }
  }
  return full;
}

// Reference solver: the dense Jacobi-equilibrated Cholesky with ridge
// escalation that the packed in-place solve replaced, on a row-major
// n x n matrix. Kept verbatim in its operation order so the packed solve
// can be pinned to it bit for bit.
Result<std::vector<double>> RefSolveSpd(const std::vector<double>& a,
                                        const std::vector<double>& b,
                                        double max_ridge = 1e-4) {
  const size_t n = b.size();
  if (n == 0) return std::vector<double>{};
  auto at = [n](std::vector<double>& m, size_t r, size_t c) -> double& {
    return m[r * n + c];
  };
  std::vector<double> d(n, 1.0);
  for (size_t i = 0; i < n; ++i) {
    const double diag = a[i * n + i];
    d[i] = diag > 0.0 && std::isfinite(diag) ? 1.0 / std::sqrt(diag) : 1.0;
  }
  std::vector<double> scaled(n * n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < n; ++c) {
      at(scaled, r, c) = a[r * n + c] * d[r] * d[c];
    }
  }
  std::vector<double> rhs(n);
  for (size_t i = 0; i < n; ++i) rhs[i] = b[i] * d[i];

  double ridge = 0.0;
  for (int attempt = 0; attempt < 10; ++attempt) {
    std::vector<double> l = scaled;
    if (ridge > 0.0) {
      for (size_t i = 0; i < n; ++i) at(l, i, i) += ridge;
    }
    bool factored = true;
    for (size_t j = 0; j < n && factored; ++j) {
      double dd = at(l, j, j);
      for (size_t k = 0; k < j; ++k) dd -= at(l, j, k) * at(l, j, k);
      if (!(dd > 0.0) || !std::isfinite(dd)) {
        factored = false;
        break;
      }
      const double dj = std::sqrt(dd);
      at(l, j, j) = dj;
      for (size_t i = j + 1; i < n; ++i) {
        double s = at(l, i, j);
        for (size_t k = 0; k < j; ++k) s -= at(l, i, k) * at(l, j, k);
        at(l, i, j) = s / dj;
      }
    }
    if (factored) {
      std::vector<double> y(n);
      for (size_t i = 0; i < n; ++i) {
        double s = rhs[i];
        for (size_t k = 0; k < i; ++k) s -= at(l, i, k) * y[k];
        y[i] = s / at(l, i, i);
      }
      std::vector<double> x(n);
      for (size_t ii = n; ii-- > 0;) {
        double s = y[ii];
        for (size_t k = ii + 1; k < n; ++k) s -= at(l, k, ii) * x[k];
        x[ii] = s / at(l, ii, ii);
      }
      for (size_t i = 0; i < n; ++i) x[i] *= d[i];
      return x;
    }
    ridge = (ridge == 0.0) ? 1e-10 : ridge * 10.0;
    if (ridge > max_ridge) break;
  }
  return Status::NumericError("RefSolveSpd: not positive definite");
}

std::vector<double> RandomRows(Rng& rng, size_t n, size_t p) {
  std::vector<double> rows(n * p);
  for (size_t i = 0; i < n; ++i) {
    rows[i * p] = 1.0;  // intercept, like real designs
    for (size_t j = 1; j < p; ++j) {
      rows[i * p + j] = rng.NextDouble(-10, 10);
    }
  }
  return rows;
}

void CompareToRef(const RegressionSuffStats& s, const RefSuffStats& ref) {
  ASSERT_EQ(s.num_features(), ref.p);
  EXPECT_EQ(s.num_examples(), ref.n);
  ExpectClose(s.sum_weights(), ref.sum_w, "sum_w");
  ExpectClose(s.ytwy(), ref.ytwy, "ytwy");
  const size_t p = ref.p;
  for (size_t r = 0; r < p; ++r) {
    ExpectClose(s.xtwy()[r], ref.xtwy[r], "xtwy");
    // The packed kernel computes the upper triangle; the reference fills
    // both halves with (potentially ulp-asymmetric) products. Compare
    // against the upper-triangle entry.
    for (size_t c = r; c < p; ++c) {
      ExpectClose(s.packed_xtwx()[RegressionSuffStats::PackedIndex(p, r, c)],
                  ref.xtwx[r * p + c], "xtwx");
    }
  }
}

class SuffStatsEquivalenceTest : public ::testing::TestWithParam<size_t> {};

TEST_P(SuffStatsEquivalenceTest, PackedAddMatchesReference) {
  const size_t p = GetParam();
  Rng rng(100 + p);
  const size_t n = 257;
  const auto rows = RandomRows(rng, n, p);
  RegressionSuffStats packed(p);
  RefSuffStats ref(p);
  for (size_t i = 0; i < n; ++i) {
    const double y = rng.NextDouble(-5, 5);
    const double w = rng.NextDouble(0.1, 2.0);
    packed.Add(rows.data() + i * p, y, w);
    ref.Add(rows.data() + i * p, y, w);
  }
  CompareToRef(packed, ref);
}

TEST_P(SuffStatsEquivalenceTest, AddBatchMatchesSequentialAdds) {
  const size_t p = GetParam();
  Rng rng(200 + p);
  // Deliberately not a multiple of 4: exercises the blocked body + tail.
  const size_t n = 123;
  const auto rows = RandomRows(rng, n, p);
  std::vector<double> ys(n), ws(n);
  for (size_t i = 0; i < n; ++i) {
    ys[i] = rng.NextDouble(-5, 5);
    ws[i] = rng.NextDouble(0.1, 2.0);
  }

  RegressionSuffStats batched(p);
  batched.AddBatch(rows.data(), ys.data(), ws.data(), n);
  RegressionSuffStats sequential(p);
  for (size_t i = 0; i < n; ++i) {
    sequential.Add(rows.data() + i * p, ys[i], ws[i]);
  }

  EXPECT_EQ(batched.num_examples(), sequential.num_examples());
  ExpectClose(batched.sum_weights(), sequential.sum_weights(), "sum_w");
  ExpectClose(batched.ytwy(), sequential.ytwy(), "ytwy");
  for (size_t j = 0; j < p; ++j) {
    ExpectClose(batched.xtwy()[j], sequential.xtwy()[j], "xtwy");
  }
  const auto& bp = batched.packed_xtwx();
  const auto& sp = sequential.packed_xtwx();
  ASSERT_EQ(bp.size(), sp.size());
  for (size_t i = 0; i < bp.size(); ++i) {
    ExpectClose(bp[i], sp[i], "packed xtwx");
  }

  // Null weights == all-ones weights, bit-exact.
  RegressionSuffStats ols_null(p), ols_ones(p);
  std::vector<double> ones(n, 1.0);
  ols_null.AddBatch(rows.data(), ys.data(), nullptr, n);
  ols_ones.AddBatch(rows.data(), ys.data(), ones.data(), n);
  EXPECT_EQ(ols_null.packed_xtwx(), ols_ones.packed_xtwx());
  EXPECT_EQ(ols_null.xtwy(), ols_ones.xtwy());
  EXPECT_EQ(ols_null.ytwy(), ols_ones.ytwy());
}

TEST_P(SuffStatsEquivalenceTest, MergeIsExactFlatSum) {
  const size_t p = GetParam();
  Rng rng(300 + p);
  const size_t n = 64;
  const auto rows_a = RandomRows(rng, n, p);
  const auto rows_b = RandomRows(rng, n, p);
  RegressionSuffStats a(p), b(p);
  RefSuffStats ra(p), rb(p);
  for (size_t i = 0; i < n; ++i) {
    const double ya = rng.NextDouble(), yb = rng.NextDouble();
    a.Add(rows_a.data() + i * p, ya);
    ra.Add(rows_a.data() + i * p, ya, 1.0);
    b.Add(rows_b.data() + i * p, yb);
    rb.Add(rows_b.data() + i * p, yb, 1.0);
  }
  // Exactness of the flat sum: merging packed stats must equal element-wise
  // addition of the individual packed arrays, bit for bit.
  std::vector<double> expect = a.packed_xtwx();
  for (size_t i = 0; i < expect.size(); ++i) {
    expect[i] += b.packed_xtwx()[i];
  }
  a.Merge(b);
  EXPECT_EQ(a.packed_xtwx(), expect);
  // And it still agrees with the reference merge up to contraction drift.
  ra.Merge(rb);
  CompareToRef(a, ra);
}

TEST_P(SuffStatsEquivalenceTest, PackedIndexMatchesUnpackedLayout) {
  const size_t p = GetParam();
  Rng rng(500 + p);
  RegressionSuffStats s(p);
  RefSuffStats ref(p);
  std::vector<double> x(p);
  for (int i = 0; i < 20; ++i) {
    for (auto& v : x) v = rng.NextDouble(-3, 3);
    const double y = rng.NextDouble();
    s.Add(x.data(), y);
    ref.Add(x.data(), y, 1.0);
  }
  // PackedIndex walks the packed array in storage order (row r holds
  // columns r..p-1, back to back) and lands on the entry the full
  // row-major matrix keeps at (r, c).
  ASSERT_EQ(s.packed_xtwx().size(), RegressionSuffStats::PackedSize(p));
  size_t next = 0;
  for (size_t r = 0; r < p; ++r) {
    for (size_t c = r; c < p; ++c) {
      const size_t idx = RegressionSuffStats::PackedIndex(p, r, c);
      EXPECT_EQ(idx, next++);
      ExpectClose(s.packed_xtwx()[idx], ref.xtwx[r * p + c], "xtwx");
    }
  }
}

// Statistics that drive every tier of the solve: well-conditioned random
// designs, a duplicated column (singular: the solver's internal ridge
// escalation), and the duplicated column with its packed cross term pushed
// past the diagonals (indefinite: FitWithFallback's heavy-ridge refit, or
// the weighted-mean model when even that fails).
RegressionSuffStats SolveTrialStats(size_t p, int trial, Rng& rng) {
  const size_t n = 40 + 8 * p;
  auto rows = RandomRows(rng, n, p);
  const int kind = trial % 4;
  // Column `dup` copies column `src` (p >= 2).
  const size_t dup = p - 1;
  const size_t src = p >= 3 ? 1 : 0;
  if (kind >= 1 && p >= 2) {
    for (size_t i = 0; i < n; ++i) rows[i * p + dup] = rows[i * p + src];
  }
  RegressionSuffStats s(p);
  for (size_t i = 0; i < n; ++i) {
    s.Add(rows.data() + i * p, rng.NextDouble(-5, 5), rng.NextDouble(0.1, 2));
  }
  if (kind < 2) return s;
  std::vector<double> packed = s.packed_xtwx();
  if (p == 1) {
    packed[0] = -packed[0];
  } else {
    // Scale the src/dup cross term: a little past the diagonals (kind 2)
    // or far past them (kind 3).
    const double factor = kind == 2 ? 1.0 + 1e-3 * (1 + trial / 4) : 3.0;
    packed[RegressionSuffStats::PackedIndex(p, src, dup)] *= factor;
  }
  return RegressionSuffStats::FromPacked(p, std::move(packed), s.xtwy(),
                                         s.ytwy(), s.num_examples(),
                                         s.sum_weights());
}

TEST_P(SuffStatsEquivalenceTest, PackedSolveMatchesDenseReferenceBitForBit) {
  const size_t p = GetParam();
  Rng rng(600 + p);
  int tiers[3] = {0, 0, 0};
  for (int trial = 0; trial < 16; ++trial) {
    SCOPED_TRACE("trial " + std::to_string(trial));
    const RegressionSuffStats s = SolveTrialStats(p, trial, rng);
    const std::vector<double> full = Unpack(s);

    // Fit() and TrainingSse() against the ordinary-ridge reference.
    auto ref = RefSolveSpd(full, s.xtwy());
    auto fit = s.Fit();
    auto sse = s.TrainingSse();
    ASSERT_EQ(fit.ok(), ref.ok());
    ASSERT_EQ(sse.ok(), ref.ok());
    if (ref.ok()) {
      EXPECT_EQ(fit->beta(), *ref);
      const double want = s.ytwy() - regression::Dot(s.xtwy().data(),
                                                     ref->data(), p);
      EXPECT_EQ(*sse, want < 0.0 ? 0.0 : want);
    }

    // FitWithFallback(): the reference degradation chain.
    auto robust = s.FitWithFallback();
    ASSERT_TRUE(robust.ok());
    regression::FitDegradation want_tier =
        regression::FitDegradation::kMeanFallback;
    std::vector<double> want_beta;
    if (ref.ok()) {
      want_tier = regression::FitDegradation::kNone;
      want_beta = *ref;
    } else if (auto heavy = RefSolveSpd(full, s.xtwy(), 1e2); heavy.ok()) {
      bool finite = true;
      for (double b : *heavy) finite = finite && std::isfinite(b);
      if (finite) {
        want_tier = regression::FitDegradation::kRidge;
        want_beta = *heavy;
      }
    }
    if (want_tier == regression::FitDegradation::kMeanFallback) {
      want_beta.assign(p, 0.0);
      const double mean =
          s.sum_weights() > 0.0 ? s.xtwy()[0] / s.sum_weights() : 0.0;
      want_beta[0] = std::isfinite(mean) ? mean : 0.0;
    }
    EXPECT_EQ(robust->degradation, want_tier);
    EXPECT_EQ(robust->model.beta(), want_beta);
    ++tiers[static_cast<int>(want_tier)];
  }
  // Every tier of the chain ran (p = 1 has no cross term to perturb, so
  // only its ordinary and mean-fallback tiers do).
  EXPECT_GT(tiers[0], 0);
  if (p >= 2) {
    EXPECT_GT(tiers[1], 0);
  }
  EXPECT_GT(tiers[2], 0);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SuffStatsEquivalenceTest,
                         ::testing::Values(1, 2, 3, 4, 5, 7, 8, 9, 13, 24));

// TrainingSse keeps its solve scratch and beta on the stack up to arity 8,
// so the per-cell error of the cube and tree builders costs no allocation.
TEST(SuffStatsAllocationTest, TrainingSseAllocatesNothingUpToArity8) {
  if (!obs::HeapTracker::interposed()) {
    GTEST_SKIP() << "sanitizer build: allocator interposition compiled out";
  }
  // A disabled trace: the span only labels allocations and records nothing
  // itself.
  obs::Trace quiet;
  quiet.set_enabled(false);
  Rng rng(700);
  for (size_t p = 1; p <= 8; ++p) {
    SCOPED_TRACE("p=" + std::to_string(p));
    RegressionSuffStats s(p);
    const auto rows = RandomRows(rng, 30, p);
    for (size_t i = 0; i < 30; ++i) {
      s.Add(rows.data() + i * p, rng.NextDouble());
    }
    obs::HeapTracker::Enable();
    double sse = 0.0;
    bool ok = true;
    {
      obs::TraceSpan span("sse-alloc", "test", &quiet);
      for (int call = 0; call < 4; ++call) {
        auto r = s.TrainingSse();
        ok = ok && r.ok();
        if (r.ok()) sse += *r;
      }
    }
    const auto snapshot = obs::HeapTracker::Snapshot();
    obs::HeapTracker::Disable();
    ASSERT_TRUE(ok);
    EXPECT_GE(sse, 0.0);
    auto it = snapshot.find("sse-alloc");
    const int64_t calls = it == snapshot.end() ? 0 : it->second.alloc_calls;
    EXPECT_EQ(calls, 0);
  }
}

// ---- Flat CUBE rollup ----

// Reference for the NumericAgg run specialization: the generic per-cell
// skip-empty merge (identical to the pre-flattening MergeSlice body).
void RefMergeRun(olap::NumericAgg* dst, const olap::NumericAgg* src,
                 size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (!src[i].empty()) dst[i].Merge(src[i]);
  }
}

TEST(FlatMergeRunTest, NumericAggRunMatchesPerCellReferenceExactly) {
  Rng rng(42);
  // Sizes around the chunk boundary (32) plus a big sparse run.
  for (size_t n : {0ul, 1ul, 31ul, 32ul, 33ul, 64ul, 100ul, 1000ul}) {
    for (double density : {0.0, 0.05, 0.5, 1.0}) {
      std::vector<olap::NumericAgg> src(n), dst(n);
      for (size_t i = 0; i < n; ++i) {
        if (rng.NextDouble() < density) {
          const int k = 1 + static_cast<int>(rng.NextUint64(3));
          for (int j = 0; j < k; ++j) src[i].Add(rng.NextDouble(-100, 100));
        }
        if (rng.NextDouble() < density) {
          dst[i].Add(rng.NextDouble(-100, 100));
        }
      }
      std::vector<olap::NumericAgg> expect = dst;
      RefMergeRun(expect.data(), src.data(), n);
      olap::detail::MergeAccRun(dst.data(), src.data(), n);
      for (size_t i = 0; i < n; ++i) {
        EXPECT_EQ(dst[i].sum, expect[i].sum);
        EXPECT_EQ(dst[i].count, expect[i].count);
        EXPECT_EQ(dst[i].min, expect[i].min);
        EXPECT_EQ(dst[i].max, expect[i].max);
      }
    }
  }
}

// Key bitmaps against a std::set union oracle: 100 cells of three words
// (ids 0..149, so bits land in every word), merged as one flat run.
TEST(FlatMergeRunTest, KeyBitsAggRunMatchesReference) {
  Rng rng(43);
  const size_t n = 100;
  constexpr int32_t kWords = 3;
  std::vector<olap::KeyBitsAgg> src(n * kWords), dst(n * kWords);
  std::vector<std::set<int32_t>> expect(n);
  for (size_t i = 0; i < n; ++i) {
    const int k = static_cast<int>(rng.NextUint64(5));
    for (int j = 0; j < k; ++j) {
      const auto id = static_cast<int32_t>(rng.NextUint64(150));
      olap::SetKeyBit(&src[i * kWords], id);
      expect[i].insert(id);
    }
    if (rng.NextDouble() < 0.5) {
      const auto id = static_cast<int32_t>(rng.NextUint64(150));
      olap::SetKeyBit(&dst[i * kWords], id);
      expect[i].insert(id);
    }
  }
  olap::detail::MergeAccRun(dst.data(), src.data(), n * kWords);
  for (size_t i = 0; i < n; ++i) {
    std::vector<int32_t> got;
    olap::ForEachKeyBit(&dst[i * kWords], kWords,
                        [&got](int32_t id) { got.push_back(id); });
    EXPECT_EQ(got, std::vector<int32_t>(expect[i].begin(), expect[i].end()))
        << "cell " << i;
  }
}

// End-to-end rollup oracle: aggregate every draw directly into every
// containing region and compare against the cube after Rollup(). count/min/
// max are exact (order-independent); sum is compared within the
// contraction/reassociation bound because the rollup tree adds partial sums
// in a different order than direct accumulation.
TEST(FlatRollupTest, RollupMatchesContainingRegionOracle) {
  std::vector<olap::Dimension> dims;
  dims.emplace_back(olap::IntervalDimension("Time", 6));
  dims.emplace_back(
      datagen::BuildBalancedHierarchy("Loc", "All", {3, 3}, "L"));
  olap::RegionSpace space(std::move(dims));
  const auto& loc = std::get<olap::HierarchicalDimension>(space.dim(1));
  const auto& leaves = loc.leaves();

  const int32_t items = 7;
  olap::RegionItemCube<olap::NumericAgg> cube(&space, items);
  std::vector<std::vector<olap::NumericAgg>> oracle(
      space.NumRegions(), std::vector<olap::NumericAgg>(items));
  Rng rng(44);
  for (int draw = 0; draw < 500; ++draw) {
    const int32_t item = static_cast<int32_t>(rng.NextUint64(items));
    const olap::PointCoords point{
        static_cast<int32_t>(1 + rng.NextUint64(6)),
        leaves[rng.NextUint64(leaves.size())]};
    const double v = rng.NextDouble(-50, 50);
    cube.BaseCell(point, item).Add(v);
    space.ForEachContainingRegion(
        point, [&](olap::RegionId r) { oracle[r][item].Add(v); });
  }
  cube.Rollup();
  for (olap::RegionId r = 0; r < space.NumRegions(); ++r) {
    for (int32_t i = 0; i < items; ++i) {
      const auto& got = cube.Cell(r, i);
      const auto& want = oracle[r][i];
      EXPECT_EQ(got.count, want.count) << "region " << r << " item " << i;
      EXPECT_EQ(got.min, want.min);
      EXPECT_EQ(got.max, want.max);
      const double scale =
          std::max({std::abs(got.sum), std::abs(want.sum), 1.0});
      EXPECT_LE(std::abs(got.sum - want.sum), 1e-10 * scale);
    }
  }
}

}  // namespace
}  // namespace bellwether

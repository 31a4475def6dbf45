#include "regression/linear_model.h"

#include <algorithm>
#include <cmath>

#include "obs/metrics.h"

namespace bellwether::regression {

namespace {

// Ridge ceiling of an ordinary fit; FitWithFallback's second tier raises it.
constexpr double kDefaultMaxRidge = 1e-4;

// Arities whose solve scratch lives on the stack (the arities Add unrolls).
constexpr size_t kStackArity = 8;

// Doubles SolvePacked needs for arity p — the equilibrated lower triangle,
// its Cholesky factor, then d, rhs and y — plus p for a caller's beta.
constexpr size_t SolveScratchSize(size_t p) { return p * (p + 1) + 4 * p; }

// Scratch for one solve: on the stack up to kStackArity, else one heap
// buffer. Both cases hand SolvePacked the same flat double array.
class SolveScratch {
 public:
  explicit SolveScratch(size_t p) {
    if (p > kStackArity) {
      heap_.resize(SolveScratchSize(p));
      data_ = heap_.data();
    }
  }
  SolveScratch(const SolveScratch&) = delete;
  SolveScratch& operator=(const SolveScratch&) = delete;

  double* data() { return data_; }
  // The last p doubles, which SolvePacked leaves alone.
  double* beta(size_t p) { return data_ + SolveScratchSize(p) - p; }

 private:
  // Left uninitialized: SolvePacked writes every slot before reading it,
  // and zeroing the array measured ~15% of a p = 3 TrainingSse.
  double stack_[SolveScratchSize(kStackArity)];
  std::vector<double> heap_;
  double* data_ = stack_;
};

// Index of (i, j), j <= i, in a packed row-major lower triangle.
inline size_t LowerIndex(size_t i, size_t j) { return i * (i + 1) / 2 + j; }

// In-place Cholesky of the packed lower triangle `l` of order n; returns
// false if a non-positive pivot is encountered.
bool CholeskyFactor(double* l, size_t n) {
  for (size_t j = 0; j < n; ++j) {
    const double* lj = l + LowerIndex(j, 0);
    double d = lj[j];
    for (size_t k = 0; k < j; ++k) d -= lj[k] * lj[k];
    if (!(d > 0.0) || !std::isfinite(d)) return false;
    const double dj = std::sqrt(d);
    l[LowerIndex(j, j)] = dj;
    for (size_t i = j + 1; i < n; ++i) {
      double* li = l + LowerIndex(i, 0);
      double s = li[j];
      for (size_t k = 0; k < j; ++k) s -= li[k] * lj[k];
      li[j] = s / dj;
    }
  }
  return true;
}

// Where a ridge escalation stands: the next ridge to try and the
// factorizations made so far. A solve that gives up leaves it past its
// ceiling, so a solve with a higher ceiling resumes there.
struct RidgeLadder {
  double ridge = 0.0;
  int attempt = 0;
};

// Solves the normal equations A beta = b, with A given as its packed upper
// triangle (RegressionSuffStats::PackedIndex layout), by Cholesky
// factorization. If A is singular or indefinite, retries with a ridge
// (A + lambda I) escalating from `ladder` up to `max_ridge`, the way
// statistics packages fall back to a pseudo-inverse on collinear designs.
// Writes beta only on success. `scratch` holds SolveScratchSize(n) - n
// doubles.
bool SolvePacked(const double* upper, const double* b, size_t n,
                 double max_ridge, double* scratch, double* beta,
                 RidgeLadder* ladder) {
  const size_t tri = n * (n + 1) / 2;
  double* scaled = scratch;
  double* l = scaled + tri;
  double* d = l + tri;
  double* rhs = d + n;
  double* y = rhs + n;
  // Jacobi equilibration: solve (D^-1/2 A D^-1/2) y = D^-1/2 b and map the
  // solution back with x = D^-1/2 y. Normal-equation matrices of regression
  // designs mix wildly different feature scales (an intercept next to a
  // dollar amount); equilibration makes the factorization's success
  // deterministic instead of knife-edge and keeps the ridge meaningful.
  for (size_t i = 0; i < n; ++i) {
    const double diag = upper[RegressionSuffStats::PackedIndex(n, i, i)];
    d[i] = diag > 0.0 && std::isfinite(diag) ? 1.0 / std::sqrt(diag) : 1.0;
  }
  for (size_t i = 0; i < n; ++i) {
    for (size_t j = 0; j <= i; ++j) {
      scaled[LowerIndex(i, j)] =
          upper[RegressionSuffStats::PackedIndex(n, j, i)] * d[i] * d[j];
    }
  }
  for (size_t i = 0; i < n; ++i) rhs[i] = b[i] * d[i];

  double ridge = ladder->ridge;
  int attempt = ladder->attempt;
  for (; attempt < 10 && ridge <= max_ridge; ++attempt) {
    std::copy(scaled, scaled + tri, l);
    if (ridge > 0.0) {
      for (size_t i = 0; i < n; ++i) l[LowerIndex(i, i)] += ridge;
    }
    if (CholeskyFactor(l, n)) {
      // Forward substitution L y = rhs, then back substitution L' x = y.
      for (size_t i = 0; i < n; ++i) {
        const double* li = l + LowerIndex(i, 0);
        double s = rhs[i];
        for (size_t k = 0; k < i; ++k) s -= li[k] * y[k];
        y[i] = s / li[i];
      }
      for (size_t ii = n; ii-- > 0;) {
        double s = y[ii];
        for (size_t k = ii + 1; k < n; ++k) s -= l[LowerIndex(k, ii)] * beta[k];
        beta[ii] = s / l[LowerIndex(ii, ii)];
      }
      for (size_t i = 0; i < n; ++i) beta[i] *= d[i];
      return true;
    }
    // The equilibrated matrix has a unit diagonal, so the ridge is already
    // relative to the problem scale.
    ridge = (ridge == 0.0) ? 1e-10 : ridge * 10.0;
  }
  *ladder = RidgeLadder{ridge, attempt};
  return false;
}

Status NotPositiveDefinite() {
  return Status::NumericError(
      "normal equations not positive definite even with ridge");
}

}  // namespace

double Dot(const double* a, const double* b, size_t n) {
  const double* __restrict pa = a;
  const double* __restrict pb = b;
  // Four independent accumulators break the add-latency dependency chain and
  // let the autovectorizer use full-width FMA lanes.
  double s0 = 0.0, s1 = 0.0, s2 = 0.0, s3 = 0.0;
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    s0 += pa[i] * pb[i];
    s1 += pa[i + 1] * pb[i + 1];
    s2 += pa[i + 2] * pb[i + 2];
    s3 += pa[i + 3] * pb[i + 3];
  }
  double acc = (s0 + s1) + (s2 + s3);
  for (; i < n; ++i) acc += pa[i] * pb[i];
  return acc;
}

const char* FitDegradationName(FitDegradation d) {
  switch (d) {
    case FitDegradation::kNone:
      return "none";
    case FitDegradation::kRidge:
      return "ridge";
    case FitDegradation::kMeanFallback:
      return "mean";
  }
  return "unknown";
}

RegressionSuffStats::RegressionSuffStats(size_t num_features)
    : p_(num_features),
      xtwx_packed_(PackedSize(num_features), 0.0),
      xtwy_(num_features, 0.0),
      ytwy_(0.0),
      n_(0),
      sum_w_(0.0) {}

void RegressionSuffStats::Reset() {
  xtwx_packed_.assign(PackedSize(p_), 0.0);
  xtwy_.assign(p_, 0.0);
  ytwy_ = 0.0;
  n_ = 0;
  sum_w_ = 0.0;
}

void RegressionSuffStats::AddBatch(const double* xs, const double* ys,
                                   const double* ws, size_t n) {
  const size_t p = p_;
  double* __restrict tri = xtwx_packed_.data();
  double* __restrict xy = xtwy_.data();
  size_t i = 0;
  // Register-blocked rank-4 update: each packed accumulator is loaded and
  // stored once per four examples, with four FMAs in between. The chained
  // `+=` keeps the left-to-right per-element summation order of four
  // scalar Add() calls.
  for (; i + 4 <= n; i += 4) {
    const double* __restrict x0 = xs + i * p;
    const double* __restrict x1 = x0 + p;
    const double* __restrict x2 = x1 + p;
    const double* __restrict x3 = x2 + p;
    const double w0 = ws == nullptr ? 1.0 : ws[i];
    const double w1 = ws == nullptr ? 1.0 : ws[i + 1];
    const double w2 = ws == nullptr ? 1.0 : ws[i + 2];
    const double w3 = ws == nullptr ? 1.0 : ws[i + 3];
    BW_DCHECK(w0 > 0.0 && w1 > 0.0 && w2 > 0.0 && w3 > 0.0);
    const double y0 = ys[i], y1 = ys[i + 1], y2 = ys[i + 2], y3 = ys[i + 3];
    size_t idx = 0;
    for (size_t r = 0; r < p; ++r) {
      const double a0 = w0 * x0[r];
      const double a1 = w1 * x1[r];
      const double a2 = w2 * x2[r];
      const double a3 = w3 * x3[r];
      double* __restrict trow = tri + idx;
      const size_t len = p - r;
      for (size_t c = 0; c < len; ++c) {
        trow[c] = trow[c] + a0 * x0[r + c] + a1 * x1[r + c] + a2 * x2[r + c] +
                  a3 * x3[r + c];
      }
      idx += len;
      xy[r] = xy[r] + a0 * y0 + a1 * y1 + a2 * y2 + a3 * y3;
    }
    ytwy_ = ytwy_ + w0 * y0 * y0 + w1 * y1 * y1 + w2 * y2 * y2 + w3 * y3 * y3;
    sum_w_ = sum_w_ + w0 + w1 + w2 + w3;
  }
  n_ += static_cast<int64_t>(i);
  for (; i < n; ++i) Add(xs + i * p, ys[i], ws == nullptr ? 1.0 : ws[i]);
}

void RegressionSuffStats::AddDataset(const Dataset& data) {
  BW_CHECK(data.num_features() == p_);
  AddBatch(data.x_data(), data.y_data(), data.w_data(), data.num_examples());
}

Result<LinearModel> RegressionSuffStats::Fit() const {
  if (n_ == 0) {
    return Status::FailedPrecondition("cannot fit a model on 0 examples");
  }
  SolveScratch scratch(p_);
  std::vector<double> beta(p_);
  RidgeLadder ladder;
  if (!SolvePacked(xtwx_packed_.data(), xtwy_.data(), p_, kDefaultMaxRidge,
                   scratch.data(), beta.data(), &ladder)) {
    return NotPositiveDefinite();
  }
  return LinearModel(std::move(beta));
}

Result<RobustFit> RegressionSuffStats::FitWithFallback(
    double heavy_ridge) const {
  if (n_ == 0) {
    return Status::FailedPrecondition("cannot fit a model on 0 examples");
  }
  SolveScratch scratch(p_);
  std::vector<double> beta(p_);
  RidgeLadder ladder;
  if (SolvePacked(xtwx_packed_.data(), xtwy_.data(), p_, kDefaultMaxRidge,
                  scratch.data(), beta.data(), &ladder)) {
    return RobustFit{LinearModel(std::move(beta)), FitDegradation::kNone};
  }
  // The heavy-ridge tier resumes the ladder where the ordinary one stopped:
  // its failed attempts would fail again, bit for bit.
  if (SolvePacked(xtwx_packed_.data(), xtwy_.data(), p_, heavy_ridge,
                  scratch.data(), beta.data(), &ladder)) {
    bool finite = true;
    for (double b : beta) finite = finite && std::isfinite(b);
    if (finite) {
      obs::DefaultMetrics()
          .GetCounter(obs::kMRegressionRidgeRefits)
          ->Increment();
      return RobustFit{LinearModel(std::move(beta)), FitDegradation::kRidge};
    }
  }
  // Last resort: predict the weighted mean of the targets. Feature 0 is the
  // intercept column (constant 1), so X'WY[0] / sum(w) is that mean.
  beta.assign(p_, 0.0);
  const double mean = sum_w_ > 0.0 ? xtwy_[0] / sum_w_ : 0.0;
  beta[0] = std::isfinite(mean) ? mean : 0.0;
  obs::DefaultMetrics()
      .GetCounter(obs::kMRegressionMeanFallbacks)
      ->Increment();
  return RobustFit{LinearModel(std::move(beta)),
                   FitDegradation::kMeanFallback};
}

RegressionSuffStats RegressionSuffStats::FromPacked(size_t p,
                                                    std::vector<double> packed,
                                                    std::vector<double> xtwy,
                                                    double ytwy, int64_t n,
                                                    double sum_w) {
  BW_CHECK(packed.size() == PackedSize(p));
  BW_CHECK(xtwy.size() == p);
  RegressionSuffStats out(p);
  out.xtwx_packed_ = std::move(packed);
  out.xtwy_ = std::move(xtwy);
  out.ytwy_ = ytwy;
  out.n_ = n;
  out.sum_w_ = sum_w;
  return out;
}

Result<double> RegressionSuffStats::TrainingSse() const {
  if (n_ == 0) {
    return Status::FailedPrecondition("SSE of an empty training set");
  }
  // beta lives in the scratch tail, so this path allocates nothing at
  // p <= kStackArity.
  SolveScratch scratch(p_);
  double* beta = scratch.beta(p_);
  RidgeLadder ladder;
  if (!SolvePacked(xtwx_packed_.data(), xtwy_.data(), p_, kDefaultMaxRidge,
                   scratch.data(), beta, &ladder)) {
    return NotPositiveDefinite();
  }
  // Y'WY - (X'WY)' beta, with beta = (X'WX)^-1 (X'WY).
  const double sse = ytwy_ - Dot(xtwy_.data(), beta, p_);
  // Guard tiny negative values from floating-point cancellation.
  return sse < 0.0 ? 0.0 : sse;
}

Result<double> RegressionSuffStats::TrainingMse() const {
  BW_ASSIGN_OR_RETURN(double sse, TrainingSse());
  const int64_t dof = n_ - static_cast<int64_t>(p_);
  if (dof <= 0) return 0.0;  // interpolating model
  return sse / static_cast<double>(dof);
}

Result<double> RegressionSuffStats::TrainingRmse() const {
  BW_ASSIGN_OR_RETURN(double mse, TrainingMse());
  return std::sqrt(mse);
}

Result<LinearModel> FitLeastSquares(const Dataset& data) {
  RegressionSuffStats stats(data.num_features());
  stats.AddDataset(data);
  return stats.Fit();
}

}  // namespace bellwether::regression

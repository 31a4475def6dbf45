#include "regression/error.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace bellwether::regression {

double ErrorStats::UpperConfidenceBound(double confidence) const {
  if (num_folds <= 1 || stddev == 0.0) return rmse;
  const double z = NormalQuantileTwoSided(confidence);
  return rmse + z * stddev / std::sqrt(static_cast<double>(num_folds));
}

double ErrorStats::LowerConfidenceBound(double confidence) const {
  if (num_folds <= 1 || stddev == 0.0) return rmse;
  const double z = NormalQuantileTwoSided(confidence);
  return std::max(0.0, rmse - z * stddev / std::sqrt(
                                              static_cast<double>(num_folds)));
}

namespace {

// Acklam's rational approximation to the standard normal inverse CDF;
// absolute error < 1.15e-9 over (0, 1).
double NormalInverseCdf(double p) {
  BW_CHECK(p > 0.0 && p < 1.0);
  static const double a[] = {-3.969683028665376e+01, 2.209460984245205e+02,
                             -2.759285104469687e+02, 1.383577518672690e+02,
                             -3.066479806614716e+01, 2.506628277459239e+00};
  static const double b[] = {-5.447609879822406e+01, 1.615858368580409e+02,
                             -1.556989798598866e+02, 6.680131188771972e+01,
                             -1.328068155288572e+01};
  static const double c[] = {-7.784894002430293e-03, -3.223964580411365e-01,
                             -2.400758277161838e+00, -2.549732539343734e+00,
                             4.374664141464968e+00,  2.938163982698783e+00};
  static const double d[] = {7.784695709041462e-03, 3.224671290700398e-01,
                             2.445134137142996e+00, 3.754408661907416e+00};
  const double plow = 0.02425;
  const double phigh = 1 - plow;
  double q, r;
  if (p < plow) {
    q = std::sqrt(-2 * std::log(p));
    return (((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
            c[5]) /
           ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
  }
  if (p <= phigh) {
    q = p - 0.5;
    r = q * q;
    return (((((a[0] * r + a[1]) * r + a[2]) * r + a[3]) * r + a[4]) * r +
            a[5]) *
           q /
           (((((b[0] * r + b[1]) * r + b[2]) * r + b[3]) * r + b[4]) * r + 1);
  }
  q = std::sqrt(-2 * std::log(1 - p));
  return -(((((c[0] * q + c[1]) * q + c[2]) * q + c[3]) * q + c[4]) * q +
           c[5]) /
         ((((d[0] * q + d[1]) * q + d[2]) * q + d[3]) * q + 1);
}

// Weighted RMSE of `model` over the `count` rows row_at(0), row_at(1), ...
// of `data`, summed in that order.
template <typename RowAt>
double WeightedRmse(const LinearModel& model, const Dataset& data,
                    size_t count, RowAt row_at) {
  double sse = 0.0;
  double sum_w = 0.0;
  for (size_t j = 0; j < count; ++j) {
    const size_t i = row_at(j);
    const double e = data.y(i) - model.Predict(data.x(i));
    sse += data.w(i) * e * e;
    sum_w += data.w(i);
  }
  return sum_w > 0.0 ? std::sqrt(sse / sum_w) : 0.0;
}

}  // namespace

double NormalQuantileTwoSided(double confidence) {
  BW_CHECK(confidence > 0.0 && confidence < 1.0);
  return NormalInverseCdf(0.5 + confidence / 2.0);
}

double EvaluateRmse(const LinearModel& model, const Dataset& data) {
  return WeightedRmse(model, data, data.num_examples(),
                      [](size_t i) { return i; });
}

Result<ErrorStats> TrainingSetError(const Dataset& data) {
  RegressionSuffStats stats(data.num_features());
  stats.AddDataset(data);
  BW_ASSIGN_OR_RETURN(double rmse, stats.TrainingRmse());
  ErrorStats out;
  out.rmse = rmse;
  out.stddev = 0.0;
  out.num_folds = 1;
  return out;
}

Result<ErrorStats> CrossValidationError(const Dataset& data, int32_t k,
                                        Rng* rng) {
  BW_CHECK(rng != nullptr);
  if (k < 2) return Status::InvalidArgument("cross-validation needs k >= 2");
  const size_t n = data.num_examples();
  if (n < 2) {
    return Status::FailedPrecondition(
        "cross-validation needs at least 2 examples");
  }
  const int32_t folds = std::min<int32_t>(k, static_cast<int32_t>(n));
  // Random permutation -> round-robin fold assignment: shuffled position i
  // belongs to fold i % folds.
  std::vector<size_t> order(n);
  for (size_t i = 0; i < n; ++i) order[i] = i;
  rng->Shuffle(&order);

  // One pass: each row goes into its fold's sufficient statistic.
  const size_t p = data.num_features();
  const auto stride = static_cast<size_t>(folds);
  std::vector<RegressionSuffStats> fold_stats(stride, RegressionSuffStats(p));
  for (size_t i = 0; i < n; ++i) {
    const size_t row = order[i];
    fold_stats[i % stride].Add(data.x(row), data.y(row), data.w(row));
  }

  std::vector<double> fold_errors;
  fold_errors.reserve(folds);
  RegressionSuffStats train(p);
  for (size_t f = 0; f < stride; ++f) {
    // Theorem 1: the training fold's statistic is the merge of the others.
    train.Reset();
    for (size_t g = 0; g < stride; ++g) {
      if (g != f) train.Merge(fold_stats[g]);
    }
    auto model = train.Fit();
    if (!model.ok()) continue;  // unsolvable fold (e.g. non-finite X'WX)
    // The held-out error comes from the fold's own residuals, not from the
    // expanded Y'WY - 2b'X'WY + b'X'WXb, which cancels for a well-fit model.
    const size_t count = (n - f + stride - 1) / stride;
    fold_errors.push_back(WeightedRmse(
        *model, data, count, [&](size_t j) { return order[f + j * stride]; }));
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

Result<ErrorStats> EstimateError(const Dataset& data, ErrorEstimate estimate,
                                 int32_t k, Rng* rng) {
  if (estimate == ErrorEstimate::kTrainingSet) return TrainingSetError(data);
  return CrossValidationError(data, k, rng);
}

}  // namespace bellwether::regression

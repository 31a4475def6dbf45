#ifndef BELLWETHER_REGRESSION_ERROR_H_
#define BELLWETHER_REGRESSION_ERROR_H_

#include <cstdint>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "regression/dataset.h"
#include "regression/linear_model.h"

namespace bellwether::regression {

/// Which error estimate of §2 to use when scoring a region's model.
enum class ErrorEstimate {
  kCrossValidation,  // n-fold CV RMSE (paper default, n = 10)
  kTrainingSet,      // training-set RMSE from the sufficient statistic
};

/// An error estimate together with the spread needed for confidence bounds.
struct ErrorStats {
  double rmse = 0.0;
  /// Standard deviation of the per-fold RMSEs (0 for training-set error).
  double stddev = 0.0;
  /// Number of folds the estimate averaged over (1 for training-set error).
  int32_t num_folds = 1;

  /// Upper bound of the two-sided `confidence` interval of the error, under
  /// the paper's normality assumption over fold errors: rmse + z * sd/sqrt(k).
  double UpperConfidenceBound(double confidence) const;
  /// Lower bound of the same interval (clamped at 0).
  double LowerConfidenceBound(double confidence) const;
};

/// Two-sided standard-normal quantile for the given confidence level, e.g.
/// 0.95 -> 1.959964. Computed with the Acklam inverse-CDF approximation.
double NormalQuantileTwoSided(double confidence);

/// RMSE of `model` on `data` (weighted when the dataset is weighted).
double EvaluateRmse(const LinearModel& model, const Dataset& data);

/// Training-set error: fit on `data`, evaluate on `data`, with the
/// degrees-of-freedom correction of §6.4. Cheap: one pass + one solve.
Result<ErrorStats> TrainingSetError(const Dataset& data);

/// k-fold cross-validation RMSE (§2), computed from fold statistics. The n
/// row positions are shuffled once (the only use of *rng) and position i
/// goes to fold i % min(k, n). One pass adds every row to its fold's
/// RegressionSuffStats; each fold's training statistic is then the merge of
/// the other folds' (Theorem 1), solved with Fit(), so no rows are copied
/// and nothing is refit from the rows. The held-out error is the weighted
/// RMSE of the fold's own residuals, not the expanded
/// Y'WY - 2b'X'WY + b'X'WXb, which cancels for a well-fit model.
/// Deterministic for a fixed *rng. Folds with an unsolvable fit are skipped;
/// fails when no fold is usable or data is smaller than 2 examples.
Result<ErrorStats> CrossValidationError(const Dataset& data, int32_t k,
                                        Rng* rng);

/// Dispatches on `estimate`; cross-validation uses `k` folds.
Result<ErrorStats> EstimateError(const Dataset& data, ErrorEstimate estimate,
                                 int32_t k, Rng* rng);

}  // namespace bellwether::regression

#endif  // BELLWETHER_REGRESSION_ERROR_H_

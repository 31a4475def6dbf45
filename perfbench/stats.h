#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstdint>
#include <vector>

namespace perfbench {

/// Median of `samples` (mean of the middle two for an even count); 0 when
/// there are none.
double Median(std::vector<double> samples);

/// A tail latency: the highest whole percentile that still leaves at least
/// `min_beyond` samples above it, so the figure rests on more than a
/// handful of outliers. Ranks are nearest-rank: percentile p reads the
/// ceil(p * n / 100)-th smallest sample, and `beyond` counts the samples
/// ranked after it.
struct Tail {
  int percentile = 0;  // 0 when no percentile leaves `min_beyond` samples
  double value = 0.0;
  int64_t samples = 0;
  int64_t beyond = 0;
};
Tail TailPercentile(std::vector<double> samples, int64_t min_beyond = 10);

/// Operations a run attempted and how many failed: library calls that
/// returned an error, predictions left unanswered, and output checks that
/// did not hold all count against the same total.
class Ledger {
 public:
  /// Records one operation; returns `ok`.
  bool Record(bool ok) {
    ++attempted_;
    if (!ok) ++failed_;
    return ok;
  }
  /// Records `attempted` operations of which `failed` failed.
  void RecordMany(int64_t attempted, int64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  /// failed / attempted; 0 before anything was attempted.
  double failed_frac() const {
    return attempted_ == 0 ? 0.0
                           : static_cast<double>(failed_) /
                                 static_cast<double>(attempted_);
  }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_

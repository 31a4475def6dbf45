#include "core/classification_search.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/random.h"
#include "core/eval_util.h"

namespace bellwether::core {

namespace {

// Labeled dataset of one region training set (masked items skipped).
classify::LabeledDataset ToLabeled(
    const storage::RegionTrainingSet& set,
    const std::function<int32_t(double)>& labeler,
    const std::vector<uint8_t>* item_mask) {
  classify::LabeledDataset data;
  data.num_features = set.num_features;
  std::vector<double> row(set.num_features);
  for (size_t i = 0; i < set.num_examples(); ++i) {
    if (ItemMasked(item_mask, set.items[i])) continue;
    row.assign(set.row(i), set.row(i) + set.num_features);
    data.Add(row, labeler(set.targets[i]));
  }
  return data;
}

}  // namespace

double ClassificationSearchResult::AverageError() const {
  double sum = 0.0;
  int64_t n = 0;
  for (const auto& s : scores) {
    if (!s.usable) continue;
    sum += s.error.rmse;
    ++n;
  }
  return n > 0 ? sum / static_cast<double>(n) : 0.0;
}

Result<ClassificationSearchResult> RunClassificationBellwetherSearch(
    storage::TrainingDataSource* source, const ClassificationOptions& options,
    const std::vector<uint8_t>* item_mask) {
  if (!options.labeler) {
    return Status::InvalidArgument("classification search needs a labeler");
  }
  if (options.num_classes < 2) {
    return Status::InvalidArgument("need at least 2 classes");
  }
  ClassificationSearchResult result;
  size_t index = 0;
  BW_RETURN_IF_ERROR(source->Scan([&](const storage::RegionTrainingSet& set)
                                      -> Status {
    ClassificationRegionScore score;
    score.region = set.region;
    const classify::LabeledDataset data =
        ToLabeled(set, options.labeler, item_mask);
    score.num_examples = data.num_examples();
    if (data.num_examples() >=
        static_cast<size_t>(std::max(options.min_examples, 2))) {
      Rng rng(RegionSeed(options.seed, set.region));
      auto err = options.cv_folds > 1
                     ? classify::CrossValidateNb(data, options.num_classes,
                                                 options.cv_folds, &rng)
                     : classify::TrainingErrorNb(data, options.num_classes);
      if (err.ok()) {
        score.error = *err;
        score.usable = true;
      }
    }
    result.scores.push_back(score);
    ++index;
    return Status::OK();
  }));

  double best = std::numeric_limits<double>::infinity();
  size_t best_index = 0;
  for (size_t i = 0; i < result.scores.size(); ++i) {
    const auto& s = result.scores[i];
    if (s.usable && s.error.rmse < best) {
      best = s.error.rmse;
      result.bellwether = s.region;
      result.error = s.error;
      best_index = i;
    }
  }
  if (result.found()) {
    BW_ASSIGN_OR_RETURN(storage::RegionTrainingSet set,
                        source->Read(best_index));
    const classify::LabeledDataset data =
        ToLabeled(set, options.labeler, item_mask);
    classify::NbSuffStats stats(data.num_features, options.num_classes);
    for (size_t i = 0; i < data.num_examples(); ++i) {
      stats.Add(data.row(i), data.y[i]);
    }
    BW_ASSIGN_OR_RETURN(result.model, stats.Fit());
  }
  return result;
}

std::function<int32_t(double)> ThresholdLabeler(double threshold) {
  return [threshold](double target) { return target > threshold ? 1 : 0; };
}

double MedianTarget(const std::vector<double>& targets) {
  std::vector<double> finite;
  for (double t : targets) {
    if (std::isfinite(t)) finite.push_back(t);
  }
  if (finite.empty()) return 0.0;
  std::sort(finite.begin(), finite.end());
  const size_t n = finite.size();
  return n % 2 == 1 ? finite[n / 2]
                    : 0.5 * (finite[n / 2 - 1] + finite[n / 2]);
}

}  // namespace bellwether::core

#include "core/classification_cube.h"

#include <algorithm>
#include <limits>

#include "common/check.h"
#include "core/cube_build_internal.h"

namespace bellwether::core {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

using classify::GaussianNbModel;
using classify::NbSuffStats;
using storage::RegionTrainingSet;

struct Pick {
  double error = kInf;
  olap::RegionId region = olap::kInvalidRegion;
  NbSuffStats stats;

  void Offer(double err, olap::RegionId r, const NbSuffStats& s) {
    if (err < error) {
      error = err;
      region = r;
      stats = s;
    }
  }
};

Status ValidateConfig(const ClassificationCubeConfig& config) {
  if (!config.labeler) {
    return Status::InvalidArgument("classification cube needs a labeler");
  }
  if (config.num_classes < 2) {
    return Status::InvalidArgument("need at least 2 classes");
  }
  return Status::OK();
}

Result<ClassificationCube> Finalize(
    std::shared_ptr<const ItemSubsetSpace> subsets,
    const std::vector<int32_t>& sizes,
    const std::vector<SubsetId>& significant, std::vector<Pick> picks) {
  std::vector<int64_t> cell_of(subsets->NumSubsets(), -1);
  std::vector<ClassificationCubeCell> cells;
  for (size_t k = 0; k < significant.size(); ++k) {
    ClassificationCubeCell cell;
    cell.subset = significant[k];
    cell.subset_size = sizes[significant[k]];
    if (picks[k].region != olap::kInvalidRegion && picks[k].error < kInf) {
      auto model = picks[k].stats.Fit();
      if (model.ok()) {
        cell.has_model = true;
        cell.region = picks[k].region;
        cell.error = picks[k].error;
        cell.model = std::move(model).value();
      }
    }
    cell_of[cell.subset] = static_cast<int64_t>(cells.size());
    cells.push_back(std::move(cell));
  }
  return ClassificationCube(std::move(subsets), std::move(cell_of),
                            std::move(cells));
}

}  // namespace

Result<int32_t> ClassificationCube::PredictItem(
    int32_t item, const RegionFeatureLookup& lookup) const {
  struct Candidate {
    double error;
    SubsetId subset;
    const ClassificationCubeCell* cell;
  };
  std::vector<Candidate> candidates;
  subsets_->ForEachContainingSubset(item, [&](SubsetId s) {
    const ClassificationCubeCell* cell = FindCell(s);
    if (cell != nullptr && cell->has_model) {
      candidates.push_back({cell->error, s, cell});
    }
  });
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              if (a.error != b.error) return a.error < b.error;
              return a.subset < b.subset;
            });
  for (const Candidate& c : candidates) {
    const double* x = lookup.Find(c.cell->region, item);
    if (x == nullptr) continue;
    return c.cell->model.Predict(x);
  }
  return Status::NotFound("no candidate region has data for the item");
}

Result<ClassificationCube> BuildClassificationCubeNaive(
    storage::TrainingDataSource* source,
    std::shared_ptr<const ItemSubsetSpace> subsets,
    const ClassificationCubeConfig& config,
    const std::vector<uint8_t>* item_mask) {
  BW_RETURN_IF_ERROR(ValidateConfig(config));
  const std::vector<int32_t> sizes =
      internal::SubsetSizes(*subsets, item_mask);
  const std::vector<SubsetId> significant =
      internal::SignificantSubsets(sizes, config.min_subset_size);
  std::vector<Pick> picks(significant.size());
  const size_t num_sets = source->num_region_sets();

  std::vector<uint8_t> member(subsets->num_items(), 0);
  for (size_t k = 0; k < significant.size(); ++k) {
    const SubsetId sid = significant[k];
    for (int32_t i = 0; i < subsets->num_items(); ++i) {
      member[i] =
          !ItemMasked(item_mask, i) && subsets->SubsetContainsItem(sid, i);
    }
    for (size_t s = 0; s < num_sets; ++s) {
      BW_ASSIGN_OR_RETURN(RegionTrainingSet set, source->Read(s));
      NbSuffStats stats(set.num_features, config.num_classes);
      for (size_t row = 0; row < set.num_examples(); ++row) {
        if (member[set.items[row]]) {
          stats.Add(set.row(row), config.labeler(set.targets[row]));
        }
      }
      if (stats.num_examples() <
          std::max<int64_t>(config.min_examples_per_model, 2)) {
        continue;
      }
      auto model = stats.Fit();
      if (!model.ok()) continue;
      // Training-set misclassification rate over the same rows.
      int64_t wrong = 0;
      for (size_t row = 0; row < set.num_examples(); ++row) {
        if (!member[set.items[row]]) continue;
        if (model->Predict(set.row(row)) !=
            config.labeler(set.targets[row])) {
          ++wrong;
        }
      }
      picks[k].Offer(static_cast<double>(wrong) /
                         static_cast<double>(stats.num_examples()),
                     set.region, stats);
    }
  }
  return Finalize(std::move(subsets), sizes, significant, std::move(picks));
}

Result<ClassificationCube> BuildClassificationCubeOptimized(
    storage::TrainingDataSource* source,
    std::shared_ptr<const ItemSubsetSpace> subsets,
    const ClassificationCubeConfig& config,
    const std::vector<uint8_t>* item_mask) {
  BW_RETURN_IF_ERROR(ValidateConfig(config));
  const std::vector<int32_t> sizes =
      internal::SubsetSizes(*subsets, item_mask);
  const std::vector<SubsetId> significant =
      internal::SignificantSubsets(sizes, config.min_subset_size);
  std::vector<Pick> picks(significant.size());
  const std::vector<std::vector<int32_t>> containing =
      internal::ContainingSignificantSubsets(*subsets, significant, item_mask);
  // Per item: its base subset (leaf coordinate combination).
  std::vector<SubsetId> base_of(subsets->num_items());
  for (int32_t i = 0; i < subsets->num_items(); ++i) {
    base_of[i] = subsets->BaseSubsetOf(i);
  }

  const size_t num_subsets = static_cast<size_t>(subsets->NumSubsets());
  std::vector<NbSuffStats> lattice(num_subsets);
  std::vector<GaussianNbModel> models(significant.size());
  std::vector<uint8_t> model_ok(significant.size());
  std::vector<int64_t> wrong(significant.size());
  std::vector<int64_t> counted(significant.size());

  BW_RETURN_IF_ERROR(source->Scan([&](const RegionTrainingSet& set)
                                      -> Status {
    // Pass 1 over the rows: accumulate NB statistics at base subsets.
    for (auto& s : lattice) {
      if (!s.empty()) s.Reset();
    }
    for (size_t row = 0; row < set.num_examples(); ++row) {
      const int32_t item = set.items[row];
      if (ItemMasked(item_mask, item)) continue;
      NbSuffStats& s = lattice[base_of[item]];
      if (s.num_classes() == 0) {
        s = NbSuffStats(set.num_features, config.num_classes);
      }
      s.Add(set.row(row), config.labeler(set.targets[row]));
    }
    // Lattice rollup (element-wise merges; NB statistics are algebraic).
    internal::RollupSubsetStats(subsets->space(), &lattice);
    // Fit per significant subset.
    for (size_t k = 0; k < significant.size(); ++k) {
      wrong[k] = 0;
      counted[k] = 0;
      model_ok[k] = 0;
      const NbSuffStats& s = lattice[significant[k]];
      if (s.num_examples() <
          std::max<int64_t>(config.min_examples_per_model, 2)) {
        continue;
      }
      auto model = s.Fit();
      if (!model.ok()) continue;
      models[k] = std::move(model).value();
      model_ok[k] = 1;
    }
    // Pass 2 over the rows: scatter misclassifications to every containing
    // significant subset (error counts are additive over rows).
    for (size_t row = 0; row < set.num_examples(); ++row) {
      const int32_t item = set.items[row];
      if (ItemMasked(item_mask, item)) continue;
      const int32_t label = config.labeler(set.targets[row]);
      for (int32_t k : containing[item]) {
        if (!model_ok[k]) continue;
        ++counted[k];
        if (models[k].Predict(set.row(row)) != label) ++wrong[k];
      }
    }
    for (size_t k = 0; k < significant.size(); ++k) {
      if (!model_ok[k] || counted[k] == 0) continue;
      picks[k].Offer(static_cast<double>(wrong[k]) /
                         static_cast<double>(counted[k]),
                     set.region, lattice[significant[k]]);
    }
    return Status::OK();
  }));
  return Finalize(std::move(subsets), sizes, significant, std::move(picks));
}

}  // namespace bellwether::core

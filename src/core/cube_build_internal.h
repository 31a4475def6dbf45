#ifndef BELLWETHER_CORE_CUBE_BUILD_INTERNAL_H_
#define BELLWETHER_CORE_CUBE_BUILD_INTERNAL_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <string_view>
#include <variant>
#include <vector>

#include "common/stopwatch.h"
#include "core/bellwether_cube.h"
#include "core/eval_util.h"
#include "olap/region.h"
#include "regression/linear_model.h"
#include "storage/training_data.h"

/// Shared internals of the cube builders. The three serial reference
/// builders (naive / single-scan / optimized) and the mutable
/// BellwetherState all produce cubes through the same two phases exposed
/// here — derive a CubeCell from a per-subset Pick, then assemble cells into
/// a BellwetherCube with its telemetry and flight-recorder report — so their
/// outputs stay bit-identical by construction. The Gaussian NB
/// classification cube shares the lattice skeleton (subset sizes,
/// significant subsets, containing lists, rollup). Not part of the public
/// API.
namespace bellwether::core::internal {

inline constexpr double kCubeInf = std::numeric_limits<double>::infinity();

/// Best region tracked across regions for one subset. Besides the min-error
/// candidate, tracks a *fallback* candidate — the region with the most
/// examples for the subset (ties to the earliest region) — so a subset where
/// every region's error is infinite can still get a flagged degraded cell.
/// Both candidates depend only on the sequence of Offer() calls, which every
/// builder issues in ascending region order, so cube equivalence (Lemma 2 /
/// Theorem 1) is preserved.
struct Pick {
  double error = kCubeInf;
  olap::RegionId region = olap::kInvalidRegion;
  regression::RegressionSuffStats stats;
  olap::RegionId fallback_region = olap::kInvalidRegion;
  int64_t fallback_examples = -1;
  regression::RegressionSuffStats fallback_stats;

  void Offer(double err, olap::RegionId r,
             const regression::RegressionSuffStats& s) {
    if (err < error) {
      error = err;
      region = r;
      stats = s;
    }
    if (s.num_examples() > fallback_examples) {
      fallback_examples = s.num_examples();
      fallback_region = r;
      fallback_stats = s;
    }
  }
};

/// Sizes |S| of all cube subsets, counting masked items only.
std::vector<int32_t> SubsetSizes(const ItemSubsetSpace& subsets,
                                 const std::vector<uint8_t>* item_mask);

/// Significant subsets (|S| >= K), ascending SubsetId — the iceberg cube
/// query over the item table (§6.3).
std::vector<SubsetId> SignificantSubsets(const std::vector<int32_t>& sizes,
                                         int32_t min_size);

/// Per item, the significant subsets that contain it, as ascending indices
/// into `significant`; masked items get an empty list. Folding each row into
/// exactly these subsets is the per-region work of the single-scan builder
/// and of BellwetherState::ApplyDelta.
std::vector<std::vector<int32_t>> ContainingSignificantSubsets(
    const ItemSubsetSpace& subsets, const std::vector<SubsetId>& significant,
    const std::vector<uint8_t>* item_mask);

/// In-place lattice rollup of per-subset statistics, indexed by SubsetId:
/// each hierarchy node merges into its parent, one hierarchy at a time (the
/// data-cube computation of Observation 1 / Theorem 1). `Stats` needs only
/// empty() and Merge(), so the regression and the classification cube roll
/// up through the same loops in the same order.
template <typename Stats>
void RollupSubsetStats(const olap::RegionSpace& space,
                       std::vector<Stats>* stats) {
  const size_t nd = space.num_dims();
  std::vector<int32_t> cards(nd);
  std::vector<int64_t> strides(nd, 1);
  for (size_t d = 0; d < nd; ++d) {
    cards[d] = olap::DimensionCardinality(space.dim(d));
  }
  for (size_t d = nd - 1; d-- > 0;) strides[d] = strides[d + 1] * cards[d + 1];
  const int64_t total = space.NumRegions();
  for (size_t d = 0; d < nd; ++d) {
    const auto& h = std::get<olap::HierarchicalDimension>(space.dim(d));
    const int64_t stride = strides[d];
    const int64_t block = stride * cards[d];
    for (olap::NodeId n : h.NodesBottomUp()) {
      if (n == h.root()) continue;
      const olap::NodeId parent = h.parent(n);
      for (int64_t hi = 0; hi < total; hi += block) {
        for (int64_t lo = 0; lo < stride; ++lo) {
          Stats& src = (*stats)[hi + n * stride + lo];
          if (src.empty()) continue;
          (*stats)[hi + parent * stride + lo].Merge(src);
        }
      }
    }
  }
}

/// Access to a region's raw training rows for the CV post-pass, abstracted
/// over where the rows live (a TrainingDataSource for the reference
/// builders, retained in-memory rows for BellwetherState). Contract: a
/// region with no rows available returns OK *without* invoking the callback
/// (the cell just goes without CV stats); any other error propagates.
using RegionRowsVisitor = std::function<Status(
    olap::RegionId,
    const std::function<Status(const storage::RegionTrainingSet&)>&)>;

/// RegionRowsVisitor over a TrainingDataSource: one Read per visited region
/// (preserving the fig11 I/O accounting of the historical CV post-pass).
/// Calls source->RegionIds() at construction — callers gate construction on
/// config.compute_cv_stats.
RegionRowsVisitor SourceRowsVisitor(storage::TrainingDataSource* source);

/// Derives one cube cell from its subset's Pick: fit the min-error
/// candidate (graceful degradation), fall back to the most-examples
/// candidate when no region had finite error, then attach cross-validated
/// error statistics via `rows` (may be null when CV is off). Pure with
/// respect to build telemetry — AssembleCube re-derives the degradation
/// counters from the finished cells.
Result<CubeCell> BuildCubeCell(SubsetId sid, int32_t subset_size,
                               const Pick& pick, const CubeBuildConfig& config,
                               const std::vector<uint8_t>* item_mask,
                               const ItemSubsetSpace& subsets,
                               const RegionRowsVisitor& rows);

/// Assembles finished cells into the final cube: subset -> cell index,
/// telemetry completion (cell counts, degradation counters recounted from
/// the cells, wall time from `build_watch`), registry metrics, and the
/// flight-recorder report named after `builder_name`. The report's logical
/// sections depend only on config and cell contents, so equal cell vectors
/// produce byte-identical LogicalJson regardless of how the cells were
/// derived (a reference builder's scan vs. delta maintenance).
Result<BellwetherCube> AssembleCube(
    std::string_view builder_name,
    std::shared_ptr<const ItemSubsetSpace> subsets,
    const CubeBuildConfig& config, std::vector<CubeCell> cells,
    CubeBuildTelemetry telemetry, const Stopwatch& build_watch);

}  // namespace bellwether::core::internal

#endif  // BELLWETHER_CORE_CUBE_BUILD_INTERNAL_H_

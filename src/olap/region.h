#ifndef BELLWETHER_OLAP_REGION_H_
#define BELLWETHER_OLAP_REGION_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "olap/dimension.h"

namespace bellwether::olap {

/// Flat index of a candidate region inside a RegionSpace.
using RegionId = int64_t;
constexpr RegionId kInvalidRegion = -1;

/// Per-dimension coordinate of a region. For a hierarchical dimension this is
/// a NodeId; for an interval dimension it is window_end - 1 (so coordinates
/// are always 0-based and dense).
using RegionCoords = std::vector<int32_t>;

/// Per-dimension coordinate of a fact-table point: a *leaf* NodeId for a
/// hierarchical dimension, or a 1-based time point for an interval dimension.
using PointCoords = std::vector<int32_t>;

/// The candidate region set R (paper §3.2): the cross product of the
/// coordinates of the fact-table dimensions. Provides dense region ids,
/// containment tests, enumeration of containing regions of a point, and the
/// finest-grained cell space used by cost tables.
class RegionSpace {
 public:
  explicit RegionSpace(std::vector<Dimension> dims);

  size_t num_dims() const { return dims_.size(); }
  const Dimension& dim(size_t d) const { return dims_[d]; }

  /// |R| — the total number of candidate regions.
  int64_t NumRegions() const { return num_regions_; }

  /// Flat id of a region from its coordinates.
  RegionId Encode(const RegionCoords& coords) const;
  /// Inverse of Encode.
  RegionCoords Decode(RegionId id) const;

  /// Human-readable region label, e.g. "[1-8, MD]".
  std::string RegionLabel(RegionId id) const;

  /// Parses a label of the form produced by RegionLabel.
  Result<RegionId> FindRegion(const std::vector<std::string>& parts) const;

  /// True if the fact point lies inside the region.
  bool RegionContainsPoint(RegionId region, const PointCoords& point) const;

  /// True if every point of `inner` lies inside `outer` (coordinate-wise
  /// subtree / prefix containment).
  bool RegionContainsRegion(RegionId outer, RegionId inner) const;

  /// Invokes `fn` for every region containing the point (the cross product
  /// of ancestor chains and suffix windows).
  void ForEachContainingRegion(const PointCoords& point,
                               const std::function<void(RegionId)>& fn) const;

  /// Region coordinates of the *base cell* a point falls in: the leaf node
  /// itself / the window ending exactly at the point's time.
  RegionCoords BaseCellOf(const PointCoords& point) const;

  /// ---- Finest-grained cell space (cost tables attach to these cells) ----
  /// A finest cell is a combination of (leaf node, single time point).

  int64_t NumFinestCells() const { return num_finest_cells_; }

  /// Finest-cell id of a fact point.
  int64_t FinestCellOf(const PointCoords& point) const;

  /// All finest cells covered by a region.
  std::vector<int64_t> FinestCellsIn(RegionId region) const;

  /// The full-space region: root node on every hierarchical dimension, the
  /// longest window on every interval dimension.
  RegionId FullRegion() const;

 private:
  /// Dimension d's coordinate of the region id whose dimensions 0..d-1 were
  /// already popped off `rest`; leaves the remainder in `rest`. Decoding one
  /// coordinate at a time lets the containment tests run without a
  /// RegionCoords allocation.
  int32_t PopCoord(RegionId* rest, size_t d) const;

  std::vector<Dimension> dims_;
  std::vector<int32_t> cardinalities_;
  std::vector<int64_t> strides_;  // region-id strides, row-major
  int64_t num_regions_;
  // Finest-cell space.
  std::vector<int32_t> finest_cardinalities_;
  std::vector<int64_t> finest_strides_;
  int64_t num_finest_cells_;
  // For hierarchical dims: node -> index within leaves() (or -1).
  std::vector<std::vector<int32_t>> leaf_index_;
};

}  // namespace bellwether::olap

#endif  // BELLWETHER_OLAP_REGION_H_

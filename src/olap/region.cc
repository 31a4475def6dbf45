#include "olap/region.h"

#include <algorithm>

#include "common/check.h"

namespace bellwether::olap {

RegionSpace::RegionSpace(std::vector<Dimension> dims)
    : dims_(std::move(dims)) {
  BW_CHECK(!dims_.empty());
  num_regions_ = 1;
  num_finest_cells_ = 1;
  cardinalities_.resize(dims_.size());
  finest_cardinalities_.resize(dims_.size());
  leaf_index_.resize(dims_.size());
  for (size_t d = 0; d < dims_.size(); ++d) {
    cardinalities_[d] = DimensionCardinality(dims_[d]);
    if (const auto* h = std::get_if<HierarchicalDimension>(&dims_[d])) {
      const auto& leaves = h->leaves();
      finest_cardinalities_[d] = static_cast<int32_t>(leaves.size());
      leaf_index_[d].assign(h->num_nodes(), -1);
      for (size_t i = 0; i < leaves.size(); ++i) {
        leaf_index_[d][leaves[i]] = static_cast<int32_t>(i);
      }
    } else {
      finest_cardinalities_[d] =
          std::get<IntervalDimension>(dims_[d]).max_time();
    }
    num_regions_ *= cardinalities_[d];
    num_finest_cells_ *= finest_cardinalities_[d];
  }
  // Row-major strides.
  strides_.assign(dims_.size(), 1);
  finest_strides_.assign(dims_.size(), 1);
  for (size_t d = dims_.size() - 1; d-- > 0;) {
    strides_[d] = strides_[d + 1] * cardinalities_[d + 1];
    finest_strides_[d] = finest_strides_[d + 1] * finest_cardinalities_[d + 1];
  }
}

RegionId RegionSpace::Encode(const RegionCoords& coords) const {
  BW_DCHECK(coords.size() == dims_.size());
  RegionId id = 0;
  for (size_t d = 0; d < dims_.size(); ++d) {
    BW_DCHECK(coords[d] >= 0 && coords[d] < cardinalities_[d]);
    id += coords[d] * strides_[d];
  }
  return id;
}

RegionCoords RegionSpace::Decode(RegionId id) const {
  BW_DCHECK(id >= 0 && id < num_regions_);
  RegionCoords coords(dims_.size());
  for (size_t d = 0; d < dims_.size(); ++d) coords[d] = PopCoord(&id, d);
  return coords;
}

std::string RegionSpace::RegionLabel(RegionId id) const {
  const RegionCoords coords = Decode(id);
  std::string out = "[";
  for (size_t d = 0; d < dims_.size(); ++d) {
    if (d) out += ", ";
    if (const auto* h = std::get_if<HierarchicalDimension>(&dims_[d])) {
      out += h->label(coords[d]);
    } else {
      const auto& iv = std::get<IntervalDimension>(dims_[d]);
      const auto [start, end] = iv.WindowBounds(coords[d]);
      out += std::to_string(start) + "-" + std::to_string(end);
    }
  }
  out += "]";
  return out;
}

Result<RegionId> RegionSpace::FindRegion(
    const std::vector<std::string>& parts) const {
  if (parts.size() != dims_.size()) {
    return Status::InvalidArgument("region spec has wrong arity");
  }
  RegionCoords coords(dims_.size());
  for (size_t d = 0; d < dims_.size(); ++d) {
    if (const auto* h = std::get_if<HierarchicalDimension>(&dims_[d])) {
      BW_ASSIGN_OR_RETURN(NodeId n, h->FindNode(parts[d]));
      coords[d] = n;
    } else {
      const auto& iv = std::get<IntervalDimension>(dims_[d]);
      // Accept "t" (meaning [1..t] / [t..t]) or "s-e".
      const std::string& spec = parts[d];
      const size_t dash = spec.rfind('-');
      int32_t start = 1;
      int32_t end = 0;
      if (dash == std::string::npos) {
        end = static_cast<int32_t>(std::atoi(spec.c_str()));
        if (iv.kind() == WindowKind::kSliding) start = end;
      } else {
        start = static_cast<int32_t>(std::atoi(spec.substr(0, dash).c_str()));
        end = static_cast<int32_t>(std::atoi(spec.substr(dash + 1).c_str()));
      }
      const int32_t id = iv.FindWindow(start, end);
      if (id < 0) {
        return Status::OutOfRange("no such window: " + parts[d]);
      }
      coords[d] = id;
    }
  }
  return Encode(coords);
}

int32_t RegionSpace::PopCoord(RegionId* rest, size_t d) const {
  const auto coord = static_cast<int32_t>(*rest / strides_[d]);
  *rest %= strides_[d];
  return coord;
}

bool RegionSpace::RegionContainsPoint(RegionId region,
                                      const PointCoords& point) const {
  BW_DCHECK(point.size() == dims_.size());
  BW_DCHECK(region >= 0 && region < num_regions_);
  for (size_t d = 0; d < dims_.size(); ++d) {
    const int32_t coord = PopCoord(&region, d);
    if (const auto* h = std::get_if<HierarchicalDimension>(&dims_[d])) {
      if (!h->Contains(coord, point[d])) return false;
    } else {
      const auto& iv = std::get<IntervalDimension>(dims_[d]);
      if (!iv.ContainsWindow(coord, point[d])) return false;
    }
  }
  return true;
}

bool RegionSpace::RegionContainsRegion(RegionId outer, RegionId inner) const {
  BW_DCHECK(outer >= 0 && outer < num_regions_);
  BW_DCHECK(inner >= 0 && inner < num_regions_);
  for (size_t d = 0; d < dims_.size(); ++d) {
    const int32_t co = PopCoord(&outer, d);
    const int32_t ci = PopCoord(&inner, d);
    if (const auto* h = std::get_if<HierarchicalDimension>(&dims_[d])) {
      if (!h->Contains(co, ci)) return false;
    } else {
      const auto& iv = std::get<IntervalDimension>(dims_[d]);
      if (!iv.WindowContainsWindow(co, ci)) return false;
    }
  }
  return true;
}

void RegionSpace::ForEachContainingRegion(
    const PointCoords& point, const std::function<void(RegionId)>& fn) const {
  BW_DCHECK(point.size() == dims_.size());
  // Per-dimension candidate coordinates.
  std::vector<std::vector<int32_t>> choices(dims_.size());
  for (size_t d = 0; d < dims_.size(); ++d) {
    if (const auto* h = std::get_if<HierarchicalDimension>(&dims_[d])) {
      for (NodeId a : h->AncestorsOf(point[d])) choices[d].push_back(a);
    } else {
      const auto& iv = std::get<IntervalDimension>(dims_[d]);
      iv.ForEachWindowContaining(
          point[d], [&](int32_t w) { choices[d].push_back(w); });
    }
  }
  // Odometer over the cross product.
  std::vector<size_t> pos(dims_.size(), 0);
  RegionCoords coords(dims_.size());
  for (;;) {
    for (size_t d = 0; d < dims_.size(); ++d) coords[d] = choices[d][pos[d]];
    fn(Encode(coords));
    size_t d = dims_.size();
    while (d-- > 0) {
      if (++pos[d] < choices[d].size()) break;
      pos[d] = 0;
      if (d == 0) return;
    }
  }
}

RegionCoords RegionSpace::BaseCellOf(const PointCoords& point) const {
  BW_DCHECK(point.size() == dims_.size());
  RegionCoords coords(dims_.size());
  for (size_t d = 0; d < dims_.size(); ++d) {
    if (std::holds_alternative<HierarchicalDimension>(dims_[d])) {
      coords[d] = point[d];  // the leaf node itself
    } else {
      coords[d] = point[d] - 1;  // window ending exactly at t
    }
  }
  return coords;
}

int64_t RegionSpace::FinestCellOf(const PointCoords& point) const {
  int64_t id = 0;
  for (size_t d = 0; d < dims_.size(); ++d) {
    int32_t idx;
    if (std::holds_alternative<HierarchicalDimension>(dims_[d])) {
      idx = leaf_index_[d][point[d]];
      BW_DCHECK(idx >= 0);
    } else {
      idx = point[d] - 1;
    }
    id += idx * finest_strides_[d];
  }
  return id;
}

std::vector<int64_t> RegionSpace::FinestCellsIn(RegionId region) const {
  const RegionCoords coords = Decode(region);
  std::vector<std::vector<int32_t>> choices(dims_.size());
  for (size_t d = 0; d < dims_.size(); ++d) {
    if (const auto* h = std::get_if<HierarchicalDimension>(&dims_[d])) {
      for (NodeId leaf : h->LeavesUnder(coords[d])) {
        choices[d].push_back(leaf_index_[d][leaf]);
      }
    } else {
      const auto& iv = std::get<IntervalDimension>(dims_[d]);
      const auto [start, end] = iv.WindowBounds(coords[d]);
      for (int32_t t = start; t <= end; ++t) choices[d].push_back(t - 1);
    }
  }
  std::vector<int64_t> out;
  std::vector<size_t> pos(dims_.size(), 0);
  for (;;) {
    int64_t id = 0;
    for (size_t d = 0; d < dims_.size(); ++d) {
      id += choices[d][pos[d]] * finest_strides_[d];
    }
    out.push_back(id);
    size_t d = dims_.size();
    bool done = true;
    while (d-- > 0) {
      if (++pos[d] < choices[d].size()) {
        done = false;
        break;
      }
      pos[d] = 0;
    }
    if (done) break;
  }
  return out;
}

RegionId RegionSpace::FullRegion() const {
  RegionCoords coords(dims_.size());
  for (size_t d = 0; d < dims_.size(); ++d) {
    if (std::holds_alternative<HierarchicalDimension>(dims_[d])) {
      coords[d] = 0;  // root
    } else {
      coords[d] = cardinalities_[d] - 1;  // longest window
    }
  }
  return Encode(coords);
}

}  // namespace bellwether::olap

#ifndef BELLWETHER_OLAP_CUBE_H_
#define BELLWETHER_OLAP_CUBE_H_

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <optional>
#include <type_traits>
#include <unordered_map>
#include <vector>

#include "common/check.h"
#include "olap/region.h"
#include "table/ops.h"

namespace bellwether::olap {

/// Distributive numeric accumulator covering SUM / COUNT / MIN / MAX and the
/// algebraic AVG. One instance per (region, item) cell.
struct NumericAgg {
  double sum = 0.0;
  int64_t count = 0;
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();

  void Add(double v) {
    sum += v;
    ++count;
    min = std::min(min, v);
    max = std::max(max, v);
  }

  void Merge(const NumericAgg& o) {
    sum += o.sum;
    count += o.count;
    min = std::min(min, o.min);
    max = std::max(max, o.max);
  }

  bool empty() const { return count == 0; }

  /// Aggregate result; nullopt when no values were accumulated (except
  /// kCount, which is 0).
  std::optional<double> Finish(table::AggFn fn) const {
    using table::AggFn;
    if (fn == AggFn::kCount) return static_cast<double>(count);
    if (count == 0) return std::nullopt;
    switch (fn) {
      case AggFn::kSum:
        return sum;
      case AggFn::kMin:
        return min;
      case AggFn::kMax:
        return max;
      case AggFn::kAvg:
        return sum / static_cast<double>(count);
      default:
        BW_CHECK(false);
    }
    return std::nullopt;
  }
};

/// One 64-bit word of a distinct-key bitmap, the accumulator of the pi_FK
/// feature queries (paper §4.1, third form): the set of distinct foreign
/// keys an item references within a region. Keys are mapped to dense ids
/// (DenseKeyIds); a cell over K keys is KeyBitsWords(K) consecutive words,
/// and bit b of word w marks id 64 * w + b. Union is a word-wise OR, so the
/// aggregate is distributive: rollup stays exact even when the same key
/// appears in several child cells, and merging allocates nothing.
struct KeyBitsAgg {
  uint64_t bits = 0;

  void Merge(const KeyBitsAgg& o) { bits |= o.bits; }
  bool empty() const { return bits == 0; }
};

/// Words per bitmap cell over `num_keys` dense ids: ceil(num_keys / 64), and
/// at least one so an empty domain still has a (never set) cell.
inline int32_t KeyBitsWords(int32_t num_keys) {
  return std::max<int32_t>(1, (num_keys + 63) / 64);
}

/// Sets dense id `id` in the bitmap cell whose first word is `cell`.
inline void SetKeyBit(KeyBitsAgg* cell, int32_t id) {
  cell[id >> 6].bits |= uint64_t{1} << (id & 63);
}

/// Calls f(id) for every id set in the `words`-word cell at `cell`, in
/// ascending id order.
template <typename F>
inline void ForEachKeyBit(const KeyBitsAgg* cell, int32_t words, F&& f) {
  for (int32_t w = 0; w < words; ++w) {
    for (uint64_t b = cell[w].bits; b != 0; b &= b - 1) {
      f(w * 64 + std::countr_zero(b));
    }
  }
}

/// Dense ids over a reference table's keys: a key's id is its rank in
/// ascending key order. Walking a bitmap's ids in ascending order therefore
/// visits the keys in ascending order too.
class DenseKeyIds {
 public:
  /// From a key -> reference-row index (table::BuildKeyIndex).
  explicit DenseKeyIds(const std::unordered_map<int64_t, size_t>& key_rows) {
    std::vector<std::pair<int64_t, size_t>> sorted(key_rows.begin(),
                                                   key_rows.end());
    std::sort(sorted.begin(), sorted.end());
    ids_.reserve(sorted.size());
    rows_.reserve(sorted.size());
    for (const auto& [key, row] : sorted) {
      ids_.emplace(key, static_cast<int32_t>(rows_.size()));
      rows_.push_back(row);
    }
  }

  /// Dense id of `key`, or -1 if the reference has no such key.
  int32_t Find(int64_t key) const {
    const auto it = ids_.find(key);
    return it == ids_.end() ? -1 : it->second;
  }
  /// Reference row of dense id `id`.
  size_t RowAt(int32_t id) const { return rows_[id]; }
  int32_t size() const { return static_cast<int32_t>(rows_.size()); }
  /// Words per bitmap cell over this domain.
  int32_t words() const { return KeyBitsWords(size()); }

 private:
  std::unordered_map<int64_t, int32_t> ids_;
  std::vector<size_t> rows_;
};

namespace detail {

/// Merges a contiguous run of `n` accumulators cell-by-cell, skipping empty
/// sources (for KeyBitsAgg, a word-wise OR).
template <typename Acc>
inline void MergeAccRun(Acc* dst, const Acc* src, size_t n) {
  for (size_t i = 0; i < n; ++i) {
    if (!src[i].empty()) dst[i].Merge(src[i]);
  }
}

/// NumericAgg is a flat POD (four scalar fields, no indirection), and
/// merging an *empty* NumericAgg is the identity: sum += 0, count += 0,
/// min(x, +inf) = x, max(x, -inf) = x. That makes the run merge a plain
/// contiguous array addition the autovectorizer can lift — no per-cell
/// branch. Rollup sources are mostly empty (base cells are sparse), so
/// groups of four source counts are OR-ed first and an all-empty group is
/// skipped without touching dst at all. Four cells is the sweet spot: at a
/// few-percent base density a 32-cell block is ~70% likely to contain at
/// least one live cell (skipping almost nothing), while a 4-cell group
/// skips ~85% of dst read+write traffic and still amortizes the branch.
inline void MergeAccRun(NumericAgg* dst, const NumericAgg* src, size_t n) {
  static_assert(std::is_trivially_copyable_v<NumericAgg>);
  constexpr size_t kGroup = 4;
  size_t i = 0;
  for (; i + kGroup <= n; i += kGroup) {
    const NumericAgg* __restrict s = src + i;
    if ((s[0].count | s[1].count | s[2].count | s[3].count) == 0) continue;
    NumericAgg* __restrict d = dst + i;
    for (size_t j = 0; j < kGroup; ++j) {
      d[j].sum += s[j].sum;
      d[j].count += s[j].count;
      d[j].min = std::min(d[j].min, s[j].min);
      d[j].max = std::max(d[j].max, s[j].max);
    }
  }
  for (; i < n; ++i) {
    if (src[i].count != 0) dst[i].Merge(src[i]);
  }
}

/// Fan-in merge: folds `k` source runs into one destination run in a single
/// pass. The group of destination cells stays in registers/L1 across all k
/// sources instead of the destination slice being re-streamed from memory
/// once per source (the hierarchy rollup's children -> parent pattern).
/// Per-element summation order equals k successive MergeAccRun calls in
/// srcs order.
template <typename Acc>
inline void MergeAccRunFanIn(Acc* dst, const Acc* const* srcs, size_t k,
                             size_t n) {
  for (size_t j = 0; j < k; ++j) MergeAccRun(dst, srcs[j], n);
}

inline void MergeAccRunFanIn(NumericAgg* dst, const NumericAgg* const* srcs,
                             size_t k, size_t n) {
  constexpr size_t kGroup = 4;
  size_t i = 0;
  for (; i + kGroup <= n; i += kGroup) {
    NumericAgg* __restrict d = dst + i;
    for (size_t j = 0; j < k; ++j) {
      const NumericAgg* __restrict s = srcs[j] + i;
      if ((s[0].count | s[1].count | s[2].count | s[3].count) == 0) continue;
      for (size_t c = 0; c < kGroup; ++c) {
        d[c].sum += s[c].sum;
        d[c].count += s[c].count;
        d[c].min = std::min(d[c].min, s[c].min);
        d[c].max = std::max(d[c].max, s[c].max);
      }
    }
  }
  for (; i < n; ++i) {
    for (size_t j = 0; j < k; ++j) {
      if (srcs[j][i].count != 0) dst[i].Merge(srcs[j][i]);
    }
  }
}

}  // namespace detail

/// Maps external item ids to dense indices [0, size).
class ItemDictionary {
 public:
  /// Index of `id`, inserting it if new.
  int32_t GetOrAdd(int64_t id) {
    auto [it, inserted] = index_.emplace(id, ids_.size());
    if (inserted) ids_.push_back(id);
    return static_cast<int32_t>(it->second);
  }

  /// Index of `id`, or -1 if unknown.
  int32_t Find(int64_t id) const {
    auto it = index_.find(id);
    return it == index_.end() ? -1 : static_cast<int32_t>(it->second);
  }

  int64_t IdAt(int32_t index) const { return ids_[index]; }
  int32_t size() const { return static_cast<int32_t>(ids_.size()); }

 private:
  std::unordered_map<int64_t, size_t> index_;
  std::vector<int64_t> ids_;
};

/// A dense cube of accumulators over (candidate region, item) implementing
/// the CUBE operation of the rewritten feature queries (paper §4.2):
/// alpha_{Z, ID, f(A)} with the aggregate computed for *every* region, not
/// only the finest ones. Fill base cells from fact rows, then call Rollup()
/// once; afterwards Cell(r, i) holds the aggregate over all fact rows of
/// item i falling inside region r.
///
/// Rollup runs one in-place pass per dimension: child tree nodes merge into
/// their parents bottom-up (hierarchical dimensions), and window t merges
/// into window t+1 (incremental-interval dimensions). Both are exact because
/// the accumulators are distributive.
template <typename Acc>
class RegionItemCube {
 public:
  RegionItemCube(const RegionSpace* space, int32_t num_items)
      : space_(space),
        num_items_(num_items),
        cells_(static_cast<size_t>(space->NumRegions()) * num_items) {
    BW_CHECK(num_items >= 0);
    // Region-id strides, identical to RegionSpace's row-major layout.
    const size_t nd = space->num_dims();
    cards_.resize(nd);
    strides_.assign(nd, 1);
    for (size_t d = 0; d < nd; ++d) cards_[d] = DimensionCardinality(space->dim(d));
    for (size_t d = nd - 1; d-- > 0;) strides_[d] = strides_[d + 1] * cards_[d + 1];
  }

  int32_t num_items() const { return num_items_; }
  const RegionSpace& space() const { return *space_; }
  /// Bytes held by the cells: NumRegions * num_items * sizeof(Acc).
  size_t bytes() const { return cells_.size() * sizeof(Acc); }

  /// Cell for the *base* region of a fact point; use during the fill phase.
  Acc& BaseCell(const PointCoords& point, int32_t item) {
    return Cell(space_->Encode(space_->BaseCellOf(point)), item);
  }

  Acc& Cell(RegionId r, int32_t item) {
    BW_DCHECK(item >= 0 && item < num_items_);
    return cells_[static_cast<size_t>(r) * num_items_ + item];
  }
  const Acc& Cell(RegionId r, int32_t item) const {
    BW_DCHECK(item >= 0 && item < num_items_);
    return cells_[static_cast<size_t>(r) * num_items_ + item];
  }

  /// Performs the bottom-up CUBE rollup. Call exactly once, after all base
  /// cells are filled.
  void Rollup() {
    BW_CHECK(!rolled_up_);
    rolled_up_ = true;
    for (size_t d = 0; d < space_->num_dims(); ++d) {
      if (const auto* h =
              std::get_if<HierarchicalDimension>(&space_->dim(d))) {
        // Fan-in: all children of a node merge into it in one fused pass,
        // so the parent slice is read and written once instead of once per
        // child. Bottom-up order guarantees every child's subtree is
        // complete before the child is consumed as a source.
        for (NodeId n : h->NodesBottomUp()) {
          if (h->IsLeaf(n)) continue;
          MergeSliceFanIn(d, h->children(n), n);
        }
      } else {
        const auto& iv = std::get<IntervalDimension>(space_->dim(d));
        // Window-kind-specific merge schedule (prefix accumulation for
        // incremental windows; shorter-into-longer for sliding ones),
        // applied column-tile by column-tile so the window chain's tiles
        // stay cache-resident across the whole schedule. Merges are
        // element-wise, so tiling reorders work only across columns —
        // per-cell arithmetic order is identical to applying the schedule
        // slice by slice.
        MergeSlicesTiled(d, iv.RollupMerges());
      }
    }
  }

  bool rolled_up() const { return rolled_up_; }

 private:
  // Merges every cell whose dim-d coordinate is `from` into the cell with
  // coordinate `to` (all other coordinates and the item fixed). The regions
  // {hi + from*stride + lo : lo in [0, stride)} are consecutive region ids,
  // so in the row-major cells_ layout each hi block's slice is ONE
  // contiguous run of stride * num_items accumulators — merged flat
  // (vectorized for POD accumulators) instead of per-cell.
  void MergeSlice(size_t d, int32_t from, int32_t to) {
    const int64_t stride = strides_[d];               // in region units
    const int64_t block = stride * cards_[d];         // one full digit cycle
    const int64_t num_regions = space_->NumRegions();
    const size_t run = static_cast<size_t>(stride) * num_items_;
    for (int64_t hi = 0; hi < num_regions; hi += block) {
      const Acc* src =
          &cells_[static_cast<size_t>(hi + from * stride) * num_items_];
      Acc* dst = &cells_[static_cast<size_t>(hi + to * stride) * num_items_];
      detail::MergeAccRun(dst, src, run);
    }
  }

  // MergeSlice generalized to many sources: every `from` coordinate merges
  // into `to` in one fused pass (detail::MergeAccRunFanIn), srcs order
  // preserved.
  void MergeSliceFanIn(size_t d, const std::vector<int32_t>& from,
                       int32_t to) {
    if (from.empty()) return;
    const int64_t stride = strides_[d];
    const int64_t block = stride * cards_[d];
    const int64_t num_regions = space_->NumRegions();
    const size_t run = static_cast<size_t>(stride) * num_items_;
    std::vector<const Acc*> srcs(from.size());
    for (int64_t hi = 0; hi < num_regions; hi += block) {
      for (size_t k = 0; k < from.size(); ++k) {
        srcs[k] =
            &cells_[static_cast<size_t>(hi + from[k] * stride) * num_items_];
      }
      Acc* dst = &cells_[static_cast<size_t>(hi + to * stride) * num_items_];
      detail::MergeAccRunFanIn(dst, srcs.data(), srcs.size(), run);
    }
  }

  // Applies a (from, to) merge schedule column-tile by column-tile: a tile
  // of kTileCells accumulators is pushed through the *entire* schedule
  // before moving on, so a chain like the incremental-window prefix reuses
  // each freshly written tile from cache as the next merge's source
  // instead of re-streaming full slices from memory.
  void MergeSlicesTiled(
      size_t d, const std::vector<std::pair<int32_t, int32_t>>& merges) {
    constexpr size_t kTileCells = 4096;
    const int64_t stride = strides_[d];
    const int64_t block = stride * cards_[d];
    const int64_t num_regions = space_->NumRegions();
    const size_t run = static_cast<size_t>(stride) * num_items_;
    for (int64_t hi = 0; hi < num_regions; hi += block) {
      for (size_t off = 0; off < run; off += kTileCells) {
        const size_t len = std::min(kTileCells, run - off);
        for (const auto& [from, to] : merges) {
          const Acc* src =
              &cells_[static_cast<size_t>(hi + from * stride) * num_items_ +
                      off];
          Acc* dst =
              &cells_[static_cast<size_t>(hi + to * stride) * num_items_ +
                      off];
          detail::MergeAccRun(dst, src, len);
        }
      }
    }
  }

  const RegionSpace* space_;
  int32_t num_items_;
  std::vector<Acc> cells_;
  std::vector<int32_t> cards_;
  std::vector<int64_t> strides_;
  bool rolled_up_ = false;
};

}  // namespace bellwether::olap

#endif  // BELLWETHER_OLAP_CUBE_H_

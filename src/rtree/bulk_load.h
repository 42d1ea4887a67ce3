// Bulk loading for RTree: the Hilbert sort key, the packing orders, and
// the one bottom-up LevelPacker.
//
// The paper bulk loads the SRT-index with Hilbert packing (Kamel &
// Faloutsos [9]) over the mapped 4-D space; STR is provided for ablation
// (bench_ablation_srt compares the packings).
//
// One module decides the packing.  PackLayout fixes the entries per node,
// the nodes per level and every node id before the first entry arrives;
// LevelPacker folds each closed node into its parent's summary entry and
// hands the node to a sink.  Both sinks encode the node with the same
// NodeCodec::EncodeSlot: RTree::BulkLoadSorted's into the tree's slot
// arena, the external .stpqx loader's into the file.
// Both sort with HilbertSortKey, so the two builds are the same tree.
#ifndef STPQ_RTREE_BULK_LOAD_H_
#define STPQ_RTREE_BULK_LOAD_H_

#include <algorithm>
#include <cmath>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "hilbert/hilbert.h"
#include "rtree/rtree.h"
#include "util/logging.h"
#include "util/status.h"

namespace stpq {

/// Hilbert bits per dimension of every index builder's sort key.
inline constexpr int kHilbertBitsPerDim = 16;

/// Hilbert key of `rect`'s center quantized within `domain`: the one sort
/// key of Hilbert packing, in memory and in the external loader.
/// Requires D * bits_per_dim <= 64.
template <int D>
uint64_t HilbertSortKey(const Rect<D>& rect, const Rect<D>& domain,
                        int bits_per_dim) {
  double unit[D];
  for (int d = 0; d < D; ++d) {
    const double extent = domain.hi[d] - domain.lo[d];
    unit[d] = extent > 0.0 ? (rect.Center(d) - domain.lo[d]) / extent : 0.0;
  }
  return HilbertKeyFromUnit(unit, bits_per_dim, D);
}

/// Sorts records by HilbertSortKey within `domain`.
template <int D, typename Aug>
void SortByHilbertKey(std::vector<typename RTree<D, Aug>::Entry>* records,
                      const Rect<D>& domain, int bits_per_dim = 64 / D / 2) {
  struct Keyed {
    uint64_t key;
    size_t index;
  };
  std::vector<Keyed> keyed(records->size());
  for (size_t i = 0; i < records->size(); ++i) {
    keyed[i] = {HilbertSortKey<D>((*records)[i].rect, domain, bits_per_dim),
                i};
  }
  // Tie-break on the input index: equal Hilbert keys (quantization
  // collisions) keep their original order, making the sort a total order
  // any implementation — including the external merge sort — reproduces.
  std::sort(keyed.begin(), keyed.end(), [](const Keyed& a, const Keyed& b) {
    return a.key != b.key ? a.key < b.key : a.index < b.index;
  });
  std::vector<typename RTree<D, Aug>::Entry> out;
  out.reserve(records->size());
  for (const Keyed& k : keyed) out.push_back(std::move((*records)[k.index]));
  *records = std::move(out);
}

namespace internal {

/// Recursive Sort-Tile-Recursive pass over dimensions [dim, D).
template <int D, typename Entry>
void StrRecurse(Entry* begin, Entry* end, int dim, uint32_t leaf_capacity) {
  size_t n = static_cast<size_t>(end - begin);
  if (n <= leaf_capacity || dim >= D) return;
  std::sort(begin, end, [dim](const Entry& a, const Entry& b) {
    return a.rect.Center(dim) < b.rect.Center(dim);
  });
  // Number of slabs along this dimension: P^(1/(D-dim)) where P is the
  // number of leaves needed.
  double leaves = std::ceil(static_cast<double>(n) / leaf_capacity);
  size_t slabs = static_cast<size_t>(
      std::ceil(std::pow(leaves, 1.0 / (D - dim))));
  slabs = std::max<size_t>(1, slabs);
  size_t per_slab = (n + slabs - 1) / slabs;
  for (size_t i = 0; i < n; i += per_slab) {
    size_t hi = std::min(n, i + per_slab);
    StrRecurse<D>(begin + i, begin + hi, dim + 1, leaf_capacity);
  }
}

}  // namespace internal

/// Sort-Tile-Recursive ordering (Leutenegger et al.).
template <int D, typename Aug>
void SortSTR(std::vector<typename RTree<D, Aug>::Entry>* records,
             uint32_t leaf_capacity) {
  if (records->empty()) return;
  internal::StrRecurse<D>(records->data(), records->data() + records->size(),
                          0, leaf_capacity);
}

/// Computes the domain rectangle of a record set (union of all MBRs).
template <int D, typename Aug>
Rect<D> ComputeDomain(const std::vector<typename RTree<D, Aug>::Entry>& recs) {
  Rect<D> domain = Rect<D>::Empty();
  for (const auto& r : recs) domain.Enlarge(r.rect);
  return domain;
}

/// Shape of a bottom-up packed tree, fully determined by (entry count,
/// fan-out, fill): leaves take `per_node` sorted records each, every
/// parent level chunks its children `per_node` at a time, and node ids run
/// level by level from the leaves up, so the root is the last node.
struct PackLayout {
  uint64_t entry_count = 0;
  uint32_t per_node = 0;
  std::vector<uint64_t> level_base;  ///< first node id per level, leaf first
  uint64_t node_count = 0;
  uint32_t height = 0;
  NodeId root = kInvalidNodeId;
};

inline PackLayout ComputePackLayout(uint64_t entry_count,
                                    const RTreeOptions& options, double fill) {
  PackLayout l;
  l.entry_count = entry_count;
  l.per_node = std::min(
      std::max<uint32_t>(MinEntriesFor(options),
                         static_cast<uint32_t>(options.geometry.max_entries *
                                               fill)),
      options.geometry.max_entries);
  if (entry_count == 0) return l;  // root stays invalid, height 0
  for (uint64_t n = entry_count; l.level_base.empty() || n > 1;) {
    n = (n + l.per_node - 1) / l.per_node;  // nodes on this level
    l.level_base.push_back(l.node_count);
    l.node_count += n;
  }
  l.height = static_cast<uint32_t>(l.level_base.size());
  l.root = static_cast<NodeId>(l.node_count - 1);
  return l;
}

/// Packs sorted leaf entries bottom-up along a PackLayout.  A node closes
/// the moment it holds `per_node` entries; its summary entry (RTree::
/// Summarize) cascades into the parent level's buffer, and the node goes
/// to `sink(NodeId id, uint16_t level, std::span<const Entry> entries)`,
/// which returns a Status.  Node ids come from the layout's level bases,
/// so the interleaved close order still places every node at its final id.
template <int D, typename Aug, typename Sink>
class LevelPacker {
 public:
  using Entry = typename RTree<D, Aug>::Entry;

  LevelPacker(const PackLayout& layout, Sink sink)
      : layout_(layout),
        sink_(std::move(sink)),
        buffers_(layout.height),
        closed_(layout.height, 0) {
    for (auto& b : buffers_) b.reserve(layout.per_node);
  }

  /// Adds the next leaf entry in sorted order.
  [[nodiscard]] Status Add(Entry e) {
    ++added_;
    return AddAt(0, std::move(e));
  }

  /// Closes every partially filled level, cascading summaries upward.
  /// With exactly entry_count entries added, each level closes exactly
  /// its laid-out node count.
  [[nodiscard]] Status Finish() {
    if (added_ != layout_.entry_count) {
      return Status::Internal("bulk load fed " + std::to_string(added_) +
                              " records to a tree laid out for " +
                              std::to_string(layout_.entry_count));
    }
    for (uint32_t level = 0; level < layout_.height; ++level) {
      if (!buffers_[level].empty()) STPQ_RETURN_NOT_OK(CloseNode(level));
    }
    return Status::OK();
  }

 private:
  [[nodiscard]] Status AddAt(uint32_t level, Entry e) {
    buffers_[level].push_back(std::move(e));
    if (buffers_[level].size() == layout_.per_node) return CloseNode(level);
    return Status::OK();
  }

  [[nodiscard]] Status CloseNode(uint32_t level) {
    std::vector<Entry>& buf = buffers_[level];
    const NodeId id =
        static_cast<NodeId>(layout_.level_base[level] + closed_[level]++);
    Entry summary = RTree<D, Aug>::Summarize(buf, id);
    STPQ_RETURN_NOT_OK(sink_(id, static_cast<uint16_t>(level), buf));
    buf.clear();
    if (level + 1 < layout_.height) return AddAt(level + 1, std::move(summary));
    return Status::OK();  // the root's summary has no parent
  }

  const PackLayout& layout_;
  Sink sink_;
  std::vector<std::vector<Entry>> buffers_;
  std::vector<uint64_t> closed_;
  uint64_t added_ = 0;
};

template <int D, typename Aug>
void RTree<D, Aug>::BulkLoadSorted(const std::vector<Entry>& sorted_records,
                                   double fill) {
  const PackLayout layout =
      ComputePackLayout(sorted_records.size(), options_, fill);
  mapped_ = nullptr;
  node_count_ = static_cast<uint32_t>(layout.node_count);
  arena_.assign(layout.node_count * codec_.slot_bytes(), '\0');
  auto sink = [this](NodeId id, uint16_t level,
                     std::span<const Entry> entries) {
    return codec_.EncodeSlot(
        level, entries, arena_.data() + size_t{id} * codec_.slot_bytes());
  };
  LevelPacker<D, Aug, decltype(sink)> packer(layout, sink);
  for (const Entry& e : sorted_records) STPQ_CHECK(packer.Add(e).ok());
  STPQ_CHECK(packer.Finish().ok());
  root_ = layout.root;
  height_ = layout.height;
  size_ = sorted_records.size();
}

/// How an index organizes its records at build time.
enum class BulkLoadKind {
  kHilbert,  ///< Hilbert-sort packing (Kamel & Faloutsos [9]; the paper's choice)
  kStr,      ///< Sort-Tile-Recursive packing (spatial-only; ablation)
  kInsert,   ///< one-at-a-time Guttman insertion (ablation/testing)
};

/// Fills `tree` with `*records` as `kind` says: packed after a Hilbert
/// sort over the records' domain or an STR sort (which reorder
/// `*records`), or inserted one by one.
template <int D, typename Aug>
void BuildTree(RTree<D, Aug>* tree,
               std::vector<typename RTree<D, Aug>::Entry>* records,
               BulkLoadKind kind, double fill) {
  switch (kind) {
    case BulkLoadKind::kHilbert:
      SortByHilbertKey<D, Aug>(records, ComputeDomain<D, Aug>(*records),
                               kHilbertBitsPerDim);
      break;
    case BulkLoadKind::kStr:
      SortSTR<D, Aug>(records, tree->options().geometry.max_entries);
      break;
    case BulkLoadKind::kInsert:
      for (const auto& r : *records) tree->Insert(r.rect, r.id, r.aug);
      return;
  }
  tree->BulkLoadSorted(*records, fill);
}

}  // namespace stpq

#endif  // STPQ_RTREE_BULK_LOAD_H_

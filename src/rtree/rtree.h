// R-tree substrate: Guttman insertion with quadratic split, bottom-up bulk
// packing, and pluggable entry augmentation.
//
// Both of the paper's feature indexes are R-trees in disguise:
//   * the SRT-index (Section 4) is an R-tree over the mapped 4-D space whose
//     entries carry {max score, aggregated keyword Hilbert value};
//   * the modified IR2-tree (Section 8) is a 2-D R-tree whose entries carry
//     {max score, keyword signature};
//   * the object index ("rtree" in the paper) is a plain 2-D R-tree.
// The shared mechanics live here; augmentation is a policy type with a
// Merge() so internal entries summarize their subtrees (e.s and e.W of
// Section 4.1 are exactly such summaries).
//
// A node exists only as its fixed-width slot (rtree/node_codec.h): a built
// tree owns its slots in one arena, an opened tree reads them from the
// .stpqx file mapping.  Readers get a NodeView over the slot; every node
// access is charged to a BufferPool to simulate disk residency.
#ifndef STPQ_RTREE_RTREE_H_
#define STPQ_RTREE_RTREE_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <string_view>
#include <utility>
#include <vector>

#include "geom/rect.h"
#include "rtree/node_codec.h"
#include "storage/buffer_pool.h"
#include "util/logging.h"

namespace stpq {

/// R-tree sizing and storage knobs.
struct RTreeOptions {
  /// Fan-out, augmentation layout and page size.  Derive it with an
  /// index's Geometry() to mirror a disk layout, so a built tree's slots
  /// are the bytes Save writes.
  TreeGeometry geometry;
  /// Minimum fill after a split, as a fraction of max_entries.
  double min_fill = 0.4;
  /// Pool charged on node access; may be nullptr (no I/O accounting).
  BufferPool* buffer_pool = nullptr;
  /// Page-id namespace offset so multiple indexes can share one pool.
  PageId page_base = 0;
};

/// Fan-out of a node stored on a page of `page_bytes`, with entries of
/// 2*D*8 rect bytes + 4 id bytes + `aug_bytes` augmentation bytes.
inline uint32_t FanOutForPage(uint32_t page_bytes, int dims,
                              uint32_t aug_bytes) {
  uint32_t entry_bytes = 2u * dims * 8u + 4u + aug_bytes;
  uint32_t header_bytes = 16;  // level, count, page metadata
  uint32_t fanout = (page_bytes - header_bytes) / entry_bytes;
  return std::max(fanout, 4u);
}

/// Minimum node occupancy after a split or a bulk pack:
/// max(2, max_entries * min_fill).
inline uint32_t MinEntriesFor(const RTreeOptions& options) {
  return std::max<uint32_t>(
      2, static_cast<uint32_t>(options.geometry.max_entries *
                               options.min_fill));
}

/// Tree options of an index: its geometry, and pool and page base from its
/// build options (ObjectIndexOptions, FeatureIndexOptions).
template <typename IndexOptions>
RTreeOptions TreeOptionsFor(const IndexOptions& options,
                            const TreeGeometry& geometry) {
  RTreeOptions t;
  t.geometry = geometry;
  t.buffer_pool = options.buffer_pool;
  t.page_base = options.page_base;
  return t;
}

/// A persisted tree handed to RTree::Adopt (io/index_file.*).  Its slots
/// stay in a file mapping the caller keeps alive.
struct RestoredTreeData {
  NodeId root = kInvalidNodeId;
  uint32_t height = 0;
  uint64_t size = 0;
  uint32_t node_count = 0;
  const char* mapped = nullptr;
};

/// R-tree over D-dimensional rectangles with Aug-augmented entries.
///
/// Aug must provide `static Aug Merge(const Aug&, const Aug&)` and an
/// AugCodec (rtree/node_codec.h).
template <int D, typename Aug = NoAug>
class RTree {
 public:
  using Entry = NodeEntry<D, Aug>;
  using Node = DecodedNode<D, Aug>;
  using View = NodeView<D, Aug>;

  explicit RTree(RTreeOptions options = {})
      : options_(options),
        codec_(options.geometry),
        min_entries_(MinEntriesFor(options)) {
    STPQ_CHECK(options_.geometry.max_entries >= 4);
  }

  /// Number of indexed records.
  [[nodiscard]] uint64_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }

  [[nodiscard]] NodeId root_id() const { return root_; }
  [[nodiscard]] uint32_t height() const { return height_; }
  [[nodiscard]] uint32_t node_count() const { return node_count_; }
  [[nodiscard]] uint32_t min_entries() const { return min_entries_; }
  [[nodiscard]] const RTreeOptions& options() const { return options_; }
  [[nodiscard]] const NodeCodec<D, Aug>& codec() const { return codec_; }

  /// Reads a node in place, charging the buffer pool for the page access;
  /// a miss fetches the node's slot.
  [[nodiscard]] View ReadNode(NodeId id) const {
    STPQ_DCHECK(id < node_count_);
    const char* slot = Slot(id);
    if (options_.buffer_pool != nullptr) {
      options_.buffer_pool->Access(options_.page_base + id,
                                   {slot, codec_.slot_bytes()});
    }
    return codec_.View(slot);
  }

  /// Reads a node in place without charging the buffer pool.  Used by the
  /// debug/validate.h validators, index statistics and insertion so
  /// a structural walk does not distort I/O accounting.
  [[nodiscard]] View PeekView(NodeId id) const {
    STPQ_DCHECK(id < node_count_);
    return codec_.View(Slot(id));
  }

  /// Decodes node `id` out of its slot, uncharged: the whole entries, for
  /// the code that edits nodes or checks them entry by entry.
  [[nodiscard]] Node PeekNode(NodeId id) const {
    STPQ_DCHECK(id < node_count_);
    return codec_.DecodeSlot(Slot(id));
  }

  /// Re-encodes `node` into slot `id`, bypassing every tree invariant:
  /// for deliberate-corruption invariant tests only.
  void OverwriteNodeForTest(NodeId id, const Node& node) {
    StoreNode(id, node);
  }

  /// Every slot, node i at i * codec().slot_bytes(): what index files
  /// store verbatim.  Persisting them keeps NodeIds — and therefore page
  /// ids and golden I/O counts — identical across a save/load round trip.
  [[nodiscard]] std::string_view slots() const {
    return {Base(), size_t{node_count_} * codec_.slot_bytes()};
  }
  /// Slot bytes this tree owns; 0 when it reads a file mapping.
  [[nodiscard]] size_t owned_slot_bytes() const { return arena_.size(); }

  /// Replaces the tree wholesale with a persisted one.  The caller is
  /// responsible for consistency (checksums and slot headers at read
  /// time, deep validators after the engine is open); node ids are
  /// adopted exactly as given.  An adopted tree is read-only.
  void Adopt(RestoredTreeData restored) {
    arena_ = {};
    mapped_ = restored.mapped;
    node_count_ = restored.node_count;
    root_ = restored.root;
    height_ = restored.height;
    size_ = restored.size;
    path_.clear();
  }

  /// Inserts one record.
  void Insert(const Rect<D>& rect, uint32_t record_id, const Aug& aug = {}) {
    if (root_ == kInvalidNodeId) {
      root_ = NewNode(0);
      height_ = 1;
    }
    path_.clear();
    const NodeId leaf = ChooseLeaf(rect);
    Node node = PeekNode(leaf);
    node.entries.push_back(Entry{rect, record_id, aug});
    ++size_;
    PropagateUp(leaf, std::move(node));
    STPQ_DCHECK(PeekView(root_).level() + 1u == height_);
  }

  /// Bulk loads from records pre-sorted by the caller (e.g. by Hilbert key
  /// per Kamel & Faloutsos, or by STR tiles).  Replaces any existing content.
  /// `fill` is the target leaf/node occupancy fraction.  Defined in
  /// rtree/bulk_load.h, which drives the shared LevelPacker; include it to
  /// call this.
  void BulkLoadSorted(const std::vector<Entry>& sorted_records,
                      double fill = 1.0);

  /// Parent entry for a node holding `entries` (MBR union + Aug merge):
  /// the one summary fold of insertion and bulk packing.
  static Entry Summarize(std::span<const Entry> entries, NodeId id) {
    STPQ_DCHECK(!entries.empty());
    Entry out;
    out.id = id;
    out.rect = entries.front().rect;
    out.aug = entries.front().aug;
    for (size_t i = 1; i < entries.size(); ++i) {
      out.rect.Enlarge(entries[i].rect);
      out.aug = Aug::Merge(out.aug, entries[i].aug);
    }
    return out;
  }

 private:
  const char* Base() const {
    return mapped_ != nullptr ? mapped_ : arena_.data();
  }
  const char* Slot(NodeId id) const {
    return Base() + size_t{id} * codec_.slot_bytes();
  }

  /// Encodes `node` into its slot.  Only trees that own their slots are
  /// mutable; node sizes stay within the fan-out by construction.
  void StoreNode(NodeId id, const Node& node) {
    STPQ_CHECK(mapped_ == nullptr && "an opened tree is read-only");
    STPQ_DCHECK(id < node_count_);
    char* slot = arena_.data() + size_t{id} * codec_.slot_bytes();
    STPQ_CHECK(codec_.EncodeSlot(node.level, node.entries, slot).ok());
  }

  NodeId NewNode(uint16_t level) {
    const NodeId id = node_count_++;
    arena_.resize(arena_.size() + codec_.slot_bytes());
    StoreNode(id, Node{level, {}});
    return id;
  }

  /// Descends to the leaf with minimal area enlargement, recording the path
  /// (node id, entry index within parent) for the upward adjustment pass.
  NodeId ChooseLeaf(const Rect<D>& rect) {
    NodeId cur = root_;
    while (!PeekView(cur).IsLeaf()) {
      const View node = PeekView(cur);
      uint32_t best = 0;
      double best_enlarge = std::numeric_limits<double>::infinity();
      double best_area = std::numeric_limits<double>::infinity();
      for (uint32_t i = 0; i < node.count(); ++i) {
        const Rect<D> r = node.rect(i);
        double enlarge = r.EnlargementArea(rect);
        double area = r.Area();
        if (enlarge < best_enlarge ||
            (enlarge == best_enlarge && area < best_area)) {
          best = i;
          best_enlarge = enlarge;
          best_area = area;
        }
      }
      path_.push_back({cur, best});
      cur = node.id(best);
    }
    return cur;
  }

  /// Walks the recorded path upward from `changed`, whose edited content is
  /// `node` (possibly one entry over the fan-out): splits overflowing
  /// nodes, stores every node it touches and refreshes the parent entries'
  /// MBR/augmentation.
  void PropagateUp(NodeId changed, Node node) {
    while (true) {
      NodeId sibling = kInvalidNodeId;
      Node sibling_node;
      if (node.entries.size() > options_.geometry.max_entries) {
        sibling = SplitNode(&node, &sibling_node);
        StoreNode(sibling, sibling_node);
      }
      StoreNode(changed, node);

      if (path_.empty()) {
        if (sibling != kInvalidNodeId) {
          // Root split: grow the tree by one level.
          const uint16_t level = static_cast<uint16_t>(node.level + 1);
          NodeId new_root = NewNode(level);
          StoreNode(new_root,
                    Node{level,
                         {Summarize(node.entries, changed),
                          Summarize(sibling_node.entries, sibling)}});
          root_ = new_root;
          ++height_;
        }
        return;
      }

      auto [parent, slot] = path_.back();
      path_.pop_back();
      Node parent_node = PeekNode(parent);
      parent_node.entries[slot] = Summarize(node.entries, changed);
      if (sibling != kInvalidNodeId) {
        parent_node.entries.push_back(Summarize(sibling_node.entries, sibling));
      }
      changed = parent;
      node = std::move(parent_node);
    }
  }

  /// Quadratic split (Guttman) of the overflowing `node`: keeps one group
  /// in `node`, moves the other to `sibling` and returns the sibling's new
  /// node id.
  NodeId SplitNode(Node* node, Node* sibling) {
    std::vector<Entry> all = std::move(node->entries);
    node->entries.clear();
    const NodeId sid = NewNode(node->level);
    sibling->level = node->level;
    sibling->entries.clear();
    std::vector<Entry>& group_a = node->entries;
    std::vector<Entry>& group_b = sibling->entries;

    // Pick the pair of seeds wasting the most area together.
    size_t seed_a = 0, seed_b = 1;
    double worst = -std::numeric_limits<double>::infinity();
    for (size_t i = 0; i < all.size(); ++i) {
      for (size_t j = i + 1; j < all.size(); ++j) {
        Rect<D> joined = all[i].rect;
        joined.Enlarge(all[j].rect);
        double waste = joined.Area() - all[i].rect.Area() -
                       all[j].rect.Area();
        if (waste > worst) {
          worst = waste;
          seed_a = i;
          seed_b = j;
        }
      }
    }

    std::vector<bool> assigned(all.size(), false);
    Rect<D> rect_a = all[seed_a].rect;
    Rect<D> rect_b = all[seed_b].rect;
    group_a.push_back(all[seed_a]);
    group_b.push_back(all[seed_b]);
    assigned[seed_a] = assigned[seed_b] = true;
    size_t remaining = all.size() - 2;

    while (remaining > 0) {
      // Force-assign if one side must take all the rest to reach min fill.
      if (group_a.size() + remaining == min_entries_) {
        for (size_t i = 0; i < all.size(); ++i) {
          if (!assigned[i]) {
            group_a.push_back(all[i]);
            rect_a.Enlarge(all[i].rect);
            assigned[i] = true;
          }
        }
        break;
      }
      if (group_b.size() + remaining == min_entries_) {
        for (size_t i = 0; i < all.size(); ++i) {
          if (!assigned[i]) {
            group_b.push_back(all[i]);
            rect_b.Enlarge(all[i].rect);
            assigned[i] = true;
          }
        }
        break;
      }
      // PickNext: the entry with the largest preference between groups.
      size_t pick = 0;
      double best_diff = -1.0;
      double d_a_pick = 0.0, d_b_pick = 0.0;
      for (size_t i = 0; i < all.size(); ++i) {
        if (assigned[i]) continue;
        double d_a = rect_a.EnlargementArea(all[i].rect);
        double d_b = rect_b.EnlargementArea(all[i].rect);
        double diff = std::abs(d_a - d_b);
        if (diff > best_diff) {
          best_diff = diff;
          pick = i;
          d_a_pick = d_a;
          d_b_pick = d_b;
        }
      }
      bool to_a;
      if (d_a_pick != d_b_pick) {
        to_a = d_a_pick < d_b_pick;
      } else if (rect_a.Area() != rect_b.Area()) {
        to_a = rect_a.Area() < rect_b.Area();
      } else {
        to_a = group_a.size() <= group_b.size();
      }
      if (to_a) {
        group_a.push_back(all[pick]);
        rect_a.Enlarge(all[pick].rect);
      } else {
        group_b.push_back(all[pick]);
        rect_b.Enlarge(all[pick].rect);
      }
      assigned[pick] = true;
      --remaining;
    }
    // Split postcondition: both halves meet the fill bounds (the parent
    // entry for `sid` is appended by PropagateUp right after this returns).
    STPQ_DCHECK(group_a.size() >= min_entries_ &&
                group_a.size() <= options_.geometry.max_entries);
    STPQ_DCHECK(group_b.size() >= min_entries_ &&
                group_b.size() <= options_.geometry.max_entries);
    return sid;
  }

  RTreeOptions options_;
  NodeCodec<D, Aug> codec_;
  uint32_t min_entries_;
  /// Owned slots of a built tree; empty when `mapped_` points at the slots
  /// of an opened tree inside a file mapping.
  std::vector<char> arena_;
  const char* mapped_ = nullptr;
  uint32_t node_count_ = 0;
  NodeId root_ = kInvalidNodeId;
  uint32_t height_ = 0;
  uint64_t size_ = 0;
  // Descent path scratch (node id, entry slot in that node's parent role).
  std::vector<std::pair<NodeId, size_t>> path_;
};

}  // namespace stpq

#endif  // STPQ_RTREE_RTREE_H_

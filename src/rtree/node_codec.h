// The one node format: a fixed-width slot, read in place.
//
// An R-tree node is a page (Section 4: the SRT-index and the IR2-tree are
// disk-resident R-trees), and it exists in exactly one form, the slot
// below.  Built trees keep their slots in an arena, opened trees read them
// from the .stpqx mapping, and both index writers emit them verbatim, so
// the bytes a query reads are the bytes tests/format_golden_test.cc pins.
//
//   slot   uint16 level, uint16 reserved (0), uint32 entry count, then the
//          entries, zero-padded to the page-aligned worst-case node size
//          (node i of a tree lives at i * slot_bytes);
//   entry  D lo-doubles, D hi-doubles, uint32 child/record id, then the
//          augmentation payload (AugCodec<Aug>).
//
// NodeView reads a slot's header, rects, ids and augmentation fields in
// place; NodeCodec encodes a node into a slot and decodes one out of it for
// the code that needs whole entries (Guttman insertion, the validators).
#ifndef STPQ_RTREE_NODE_CODEC_H_
#define STPQ_RTREE_NODE_CODEC_H_

#include <cstdint>
#include <cstring>
#include <limits>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "geom/rect.h"
#include "util/logging.h"
#include "util/status.h"
#include "util/word_view.h"

namespace stpq {

using NodeId = uint32_t;
inline constexpr NodeId kInvalidNodeId = std::numeric_limits<NodeId>::max();

/// Augmentation for plain R-trees (no extra per-entry payload).
struct NoAug {
  static NoAug Merge(const NoAug&, const NoAug&) { return {}; }
};

/// Page geometry of one index tree: fan-out, per-entry augmentation layout
/// and page size.  Each index type derives it in one static function
/// (ObjectIndex::Geometry, SrtIndex::Geometry, Ir2Tree::Geometry) that the
/// builders, the .stpqx reader and the external planner all call.
struct TreeGeometry {
  uint32_t max_entries = 64;  ///< entries per node (page)
  uint32_t aug_bits = 0;      ///< keyword bits per entry (universe/signature)
  uint32_t aug_words = 0;     ///< 64-bit words persisted for those bits
  uint32_t aug_bytes = 0;     ///< persisted augmentation bytes per entry
  uint32_t page_size = 4096;  ///< slots are padded to a multiple of this
};

/// Fixed-width augmentation payload of one entry.  The primary template
/// stores a trivially copyable Aug as its raw bytes (NoAug as none); the
/// feature indexes specialize it next to their Aug types.
template <typename Aug>
struct AugCodec {
  static_assert(std::is_trivially_copyable_v<Aug>,
                "specialize AugCodec for augmentations that own memory");
  static uint32_t Bytes(const TreeGeometry&) {
    return std::is_empty_v<Aug> ? 0 : sizeof(Aug);
  }
  static void Encode(const TreeGeometry&, const Aug& aug, char* out) {
    if constexpr (!std::is_empty_v<Aug>) std::memcpy(out, &aug, sizeof(Aug));
  }
  static Aug Decode(const TreeGeometry&, const char* in) {
    Aug aug{};
    if constexpr (!std::is_empty_v<Aug>) std::memcpy(&aug, in, sizeof(Aug));
    return aug;
  }
};

/// The payload of the paper's feature-index augmentations (SrtAug, Ir2Aug):
/// the max descendant score as one double, then the keyword summary (the
/// aggregated Hilbert value, the signature) as TreeGeometry::aug_words
/// 64-bit words.  Queries read both fields in place.
struct ScoredWordsCodec {
  static uint32_t Bytes(const TreeGeometry& g) { return g.aug_bytes; }

  static double MaxScore(const char* in) {
    return LoadUnaligned<double>(in);
  }
  static WordView Words(const TreeGeometry& g, const char* in) {
    return WordView(in + 8, g.aug_words);
  }

  /// Writes `max_score` and exactly aug_words words: `words` zero-padded
  /// or cut to that width.
  static void Put(const TreeGeometry& g, double max_score,
                  const std::vector<uint64_t>& words, char* out) {
    StoreUnaligned(out, max_score);
    for (uint32_t w = 0; w < g.aug_words; ++w) {
      StoreUnaligned<uint64_t>(out + 8 + size_t{w} * 8,
                               w < words.size() ? words[w] : 0);
    }
  }

  /// The aug_words words, copied out.
  static std::vector<uint64_t> CopyWords(const TreeGeometry& g,
                                         const char* in) {
    std::vector<uint64_t> words(g.aug_words);
    std::memcpy(words.data(), in + 8, size_t{g.aug_words} * 8);
    return words;
  }
};

/// One entry: child node id (internal) or the caller's record id (leaf).
template <int D, typename Aug>
struct NodeEntry {
  Rect<D> rect;
  uint32_t id;
  Aug aug;
};

/// A node decoded out of its slot: the form Guttman insertion edits before
/// it encodes the node back.
template <int D, typename Aug>
struct DecodedNode {
  uint16_t level = 0;  ///< 0 = leaf
  std::vector<NodeEntry<D, Aug>> entries;

  bool IsLeaf() const { return level == 0; }
};

/// A node read in place from its slot: header fields and the fields of
/// entry i.  Cheap to copy; valid as long as the slot's owner (the tree's
/// arena or the file mapping).  Code that needs whole entries decodes the
/// node instead (RTree::PeekNode).
template <int D, typename Aug>
class NodeView {
 public:
  NodeView(const char* slot, const TreeGeometry& geometry,
           uint32_t entry_bytes)
      : first_(slot + 8),
        geometry_(&geometry),
        stride_(entry_bytes),
        count_(LoadUnaligned<uint32_t>(slot + 4)),
        level_(LoadUnaligned<uint16_t>(slot)) {}

  [[nodiscard]] uint16_t level() const { return level_; }
  [[nodiscard]] bool IsLeaf() const { return level_ == 0; }
  [[nodiscard]] uint32_t count() const { return count_; }

  [[nodiscard]] Rect<D> rect(uint32_t i) const {
    return LoadUnaligned<Rect<D>>(EntryAt(i));
  }
  [[nodiscard]] uint32_t id(uint32_t i) const {
    return LoadUnaligned<uint32_t>(EntryAt(i) + sizeof(Rect<D>));
  }
  /// ScoredWordsCodec augmentation fields.
  [[nodiscard]] double max_score(uint32_t i) const {
    return AugCodec<Aug>::MaxScore(AugAt(i));
  }
  [[nodiscard]] WordView aug_words(uint32_t i) const {
    return AugCodec<Aug>::Words(*geometry_, AugAt(i));
  }

 private:
  const char* EntryAt(uint32_t i) const {
    STPQ_DCHECK(i < count_);
    return first_ + size_t{i} * stride_;
  }
  const char* AugAt(uint32_t i) const {
    return EntryAt(i) + sizeof(Rect<D>) + sizeof(uint32_t);
  }

  const char* first_;
  const TreeGeometry* geometry_;
  uint32_t stride_;
  uint32_t count_;
  uint16_t level_;
};

/// The slot layout of one tree: entry and slot widths from its geometry,
/// and the one encoder and decoder of a slot.
template <int D, typename Aug>
class NodeCodec {
 public:
  using Entry = NodeEntry<D, Aug>;
  using Node = DecodedNode<D, Aug>;

  static_assert(sizeof(Rect<D>) == 16 * D &&
                std::is_trivially_copyable_v<Rect<D>>);

  explicit NodeCodec(const TreeGeometry& geometry)
      : geometry_(geometry),
        entry_bytes_(static_cast<uint32_t>(sizeof(Rect<D>)) + 4u +
                     AugCodec<Aug>::Bytes(geometry)) {
    const uint64_t raw = 8ull + uint64_t{geometry.max_entries} * entry_bytes_;
    const uint32_t page = geometry.page_size;
    slot_bytes_ = static_cast<uint32_t>((raw + page - 1) / page * page);
  }

  const TreeGeometry& geometry() const { return geometry_; }
  uint32_t entry_bytes() const { return entry_bytes_; }
  uint32_t slot_bytes() const { return slot_bytes_; }

  /// Writes exactly entry_bytes() at `out`.
  void EncodeEntry(const Entry& e, char* out) const {
    StoreUnaligned(out, e.rect);
    StoreUnaligned(out + sizeof(Rect<D>), e.id);
    AugCodec<Aug>::Encode(geometry_, e.aug,
                          out + sizeof(Rect<D>) + sizeof(uint32_t));
  }

  Entry DecodeEntry(const char* in) const {
    return Entry{LoadUnaligned<Rect<D>>(in),
                 LoadUnaligned<uint32_t>(in + sizeof(Rect<D>)),
                 AugCodec<Aug>::Decode(geometry_,
                                       in + sizeof(Rect<D>) + sizeof(uint32_t))};
  }

  /// Writes one node as exactly slot_bytes() at `slot`, zero-padded.
  [[nodiscard]] Status EncodeSlot(uint16_t level,
                                  std::span<const Entry> entries,
                                  char* slot) const {
    if (entries.size() > geometry_.max_entries) {
      return Status::Internal("index node overflows its slot: " +
                              std::to_string(entries.size()) +
                              " entries > fan-out " +
                              std::to_string(geometry_.max_entries));
    }
    StoreUnaligned(slot, level);
    StoreUnaligned<uint16_t>(slot + 2, 0);
    StoreUnaligned(slot + 4, static_cast<uint32_t>(entries.size()));
    const size_t used = 8 + entries.size() * entry_bytes_;
    for (size_t i = 0; i < entries.size(); ++i) {
      EncodeEntry(entries[i], slot + 8 + i * entry_bytes_);
    }
    std::memset(slot + used, 0, slot_bytes_ - used);
    return Status::OK();
  }

  NodeView<D, Aug> View(const char* slot) const {
    return NodeView<D, Aug>(slot, geometry_, entry_bytes_);
  }

  /// Decodes a slot whose header has been verified (count <= fan-out),
  /// with room for the one entry an insertion adds before it splits.
  Node DecodeSlot(const char* slot) const {
    const NodeView<D, Aug> view = View(slot);
    Node node{view.level(), {}};
    node.entries.reserve(geometry_.max_entries + 1);
    for (uint32_t i = 0; i < view.count(); ++i) {
      node.entries.push_back(DecodeEntry(slot + 8 + size_t{i} * entry_bytes_));
    }
    return node;
  }

 private:
  TreeGeometry geometry_;
  uint32_t entry_bytes_;
  uint32_t slot_bytes_ = 0;
};

}  // namespace stpq

#endif  // STPQ_RTREE_NODE_CODEC_H_

// The .stpqx format: one module decides every byte of an index file.
//
// Both writers — WriteIndexFile (io/index_file.cc) over in-memory indexes
// and the external bulk loader (io/bulk_load.cc) over a .stpq dataset —
// and the reader are thin drivers over the pieces here:
//
//   records   one encoder per record-segment row and header;
//   plan      IndexPlan: catalog order, alignment, offsets and file end;
//   writers   SegmentWriter (streaming record segments), FinishTree (tree
//             metadata and the one node-checksum rule), and
//             CommitIndexFile, the one function that assembles the
//             superblock and catalog.
//
// The node slot layout (NodeCodec) belongs to rtree/node_codec.h, since a
// tree's slots are its only in-memory form too; the augmentation codecs
// sit next to their Aug types (index/srt_index.h, index/ir2_tree.h), tree
// geometry (fan-out, augmentation widths) with the index types
// (ObjectIndex/SrtIndex/Ir2Tree::Geometry) and the packing in
// rtree/bulk_load.h.  Because the writers share every layout decision,
// their outputs agree by construction; tests/format_golden_test.cc pins
// the bytes themselves.
#ifndef STPQ_IO_INDEX_FORMAT_H_
#define STPQ_IO_INDEX_FORMAT_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "index/feature.h"
#include "io/atomic_file.h"
#include "io/index_file.h"
#include "rtree/rtree.h"
#include "util/result.h"
#include "util/status.h"

namespace stpq {
namespace index_format {

inline constexpr uint32_t kIndexMagic = 0x58515453;  // "STQX" little-endian
inline constexpr uint32_t kIndexVersion = 1;

/// Fixed superblock / catalog-entry widths; the catalog starts right after
/// the superblock, segments after the catalog (node segments page-aligned).
inline constexpr size_t kSuperblockBytes = 52;
inline constexpr size_t kCatalogEntryBytes = 56;

/// Sanity caps against absurd counts in damaged headers (checksums cover
/// the segments, these cover the header itself).
inline constexpr uint32_t kMaxTables = 4096;
inline constexpr uint32_t kMaxNodeCount = 1u << 28;
inline constexpr uint64_t kMaxRecordCount = uint64_t{1} << 33;

enum SegmentType : uint32_t {
  kSegObjects = 0,
  kSegVocabulary = 1,
  kSegFeatureTable = 2,
  kSegObjectTreeMeta = 3,
  kSegObjectTreeNodes = 4,
  kSegFeatureTreeMeta = 5,
  kSegFeatureTreeNodes = 6,
};

const char* SegmentName(uint32_t type);

/// Incremental FNV-1a64: feeding a segment through Update in any chunking
/// yields the same digest as one Fnv1a64 call over the whole payload.
class Fnv1a64Stream {
 public:
  void Update(const char* data, size_t n) {
    uint64_t h = h_;
    for (size_t i = 0; i < n; ++i) {
      h ^= static_cast<uint8_t>(data[i]);
      h *= 1099511628211ULL;
    }
    h_ = h;
  }
  uint64_t Digest() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ULL;
};

inline uint64_t Fnv1a64(const char* data, size_t n) {
  Fnv1a64Stream fnv;
  fnv.Update(data, n);
  return fnv.Digest();
}

inline uint64_t AlignUp(uint64_t v, uint64_t align) {
  return (v + align - 1) / align * align;
}

// Byte-buffer writers, mirroring dataset_io's stream helpers.
template <typename T>
void PutPod(std::string* out, const T& v) {
  out->append(reinterpret_cast<const char*>(&v), sizeof(T));
}

inline void PutString(std::string* out, const std::string& s) {
  PutPod<uint32_t>(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

/// Bounds-checked reader over one segment's bytes.
class ByteReader {
 public:
  ByteReader(const char* data, size_t size) : data_(data), size_(size) {}

  template <typename T>
  bool Pod(T* v) {
    if (size_ - pos_ < sizeof(T)) return false;
    std::memcpy(v, data_ + pos_, sizeof(T));
    pos_ += sizeof(T);
    return true;
  }

  bool Str(std::string* s) {
    uint32_t n = 0;
    if (!Pod(&n)) return false;
    if (n > (1u << 24) || size_ - pos_ < n) return false;  // sanity cap
    s->assign(data_ + pos_, n);
    pos_ += n;
    return true;
  }

 private:
  const char* data_;
  size_t size_;
  size_t pos_ = 0;
};

// ----------------------------------------------------- record encoders
//
// One encoder per record-segment row and header.  Writers stream them
// through SegmentWriter; the sizes the planner needs come from running
// the same encoders through a counting SegmentWriter.

void EncodeObjectsHeader(uint64_t count, std::string* out);
void EncodeObjectRecord(uint32_t id, const DataObject& o, std::string* out);
void EncodeVocabularyHeader(uint32_t terms, std::string* out);
void EncodeVocabTerm(const std::string& term, std::string* out);
void EncodeFeatureTableHeader(uint32_t universe, uint64_t count,
                              std::string* out);
void EncodeFeatureRecord(uint32_t id, const FeatureObject& f,
                         std::string* out);

// ------------------------------------------------------------- planner

/// One catalog row, laid out exactly as on disk (little-endian, no
/// padding), so it is written and read as one POD.
struct CatalogEntry {
  uint32_t type = 0;
  uint32_t ordinal = 0;
  uint64_t offset = 0;
  uint64_t bytes = 0;
  uint64_t first_page = 0;
  uint64_t slot_count = 0;
  uint32_t slot_bytes = 0;
  uint32_t reserved = 0;
  uint64_t checksum = 0;
};
static_assert(sizeof(CatalogEntry) == kCatalogEntryBytes &&
              std::is_trivially_copyable_v<CatalogEntry>);

/// One tree as the planner sees it: its metadata payload, known before any
/// node is written, and its slot geometry.
struct TreeSegments {
  std::string meta;
  uint64_t slot_count = 0;
  uint32_t slot_bytes = 0;
};

/// Encodes a tree's metadata payload: root, height, record count, node
/// count, fan-out, aug layout, then a free-node count, always 0.
TreeSegments MakeTreeSegments(const TreeGeometry& geometry,
                              uint32_t slot_bytes, NodeId root,
                              uint32_t height, uint64_t size,
                              uint64_t node_count);

/// Record-segment sizes of one feature table.
struct TableSizes {
  uint64_t vocabulary = 0;
  uint64_t features = 0;
};

/// Every segment of one file at its final offset.  Catalog order: objects,
/// (vocabulary, feature table) per table, then (meta, nodes) per tree —
/// tree 0 the object tree, tree i + 1 the feature tree of table i.  Node
/// segments start page-aligned, so slot offsets are page offsets; tree t
/// takes page ids from kIndexPageStride * t.
class IndexPlan {
 public:
  IndexPlan(uint32_t page_size, uint64_t objects_bytes,
            const std::vector<TableSizes>& tables,
            std::vector<TreeSegments> trees);

  CatalogEntry& objects() { return catalog_[0]; }
  CatalogEntry& vocabulary(uint32_t i) { return catalog_[1 + 2 * size_t{i}]; }
  CatalogEntry& table(uint32_t i) { return catalog_[2 + 2 * size_t{i}]; }
  CatalogEntry& tree_meta(uint32_t t) { return catalog_[TreeAt(t)]; }
  CatalogEntry& tree_nodes(uint32_t t) { return catalog_[TreeAt(t) + 1]; }
  const TreeSegments& tree(uint32_t t) const { return trees_[t]; }

  uint32_t table_count() const { return table_count_; }
  const std::vector<CatalogEntry>& catalog() const { return catalog_; }
  uint64_t file_end() const { return file_end_; }

 private:
  size_t TreeAt(uint32_t t) const {
    return 1 + 2 * size_t{table_count_} + 2 * size_t{t};
  }

  uint32_t table_count_;
  std::vector<TreeSegments> trees_;
  std::vector<CatalogEntry> catalog_;
  uint64_t file_end_ = 0;
};

// ------------------------------------------------------------- writers

/// Streams one record segment to its planned offset, folding every byte
/// into the segment checksum.  Default-constructed it only counts bytes:
/// the planner's sizes.  Write errors are sticky and surface at Finish.
class SegmentWriter {
 public:
  SegmentWriter() = default;
  SegmentWriter(AtomicFile* out, uint64_t offset)
      : out_(out), offset_(offset) {}

  /// Appends `encode(args..., &buffer)`.
  template <typename Encoder, typename... Args>
  void Put(Encoder encode, const Args&... args) {
    encode(args..., &buf_);
    if (buf_.size() >= kFlushBytes) Flush();
  }

  uint64_t bytes() const { return written_ + buf_.size(); }

  /// Flushes the tail and records the checksum in `seg`.  A size other
  /// than the planned one means the input changed between the sizing and
  /// the writing pass.
  [[nodiscard]] Status Finish(CatalogEntry* seg);

 private:
  static constexpr size_t kFlushBytes = size_t{1} << 20;

  void Flush();

  AtomicFile* out_ = nullptr;
  uint64_t offset_ = 0;
  std::string buf_;
  Status status_ = Status::OK();
  Fnv1a64Stream fnv_;
  uint64_t written_ = 0;
};

/// Writes the metadata of tree `t` and checksums its node segment by
/// reading it back: the one node-checksum rule of both writers (the
/// external packer writes slots out of id order), which doubles as a
/// read-back check of every slot write.
[[nodiscard]] Status FinishTree(AtomicFile* out, IndexPlan* plan, uint32_t t);

/// Writes the header — superblock and catalog, assembled here and nowhere
/// else — pins the planned file end and durably commits the file.
[[nodiscard]] Status CommitIndexFile(AtomicFile* out,
                                     const IndexBuildParams& params,
                                     uint64_t object_count,
                                     const IndexPlan& plan);

}  // namespace index_format
}  // namespace stpq

#endif  // STPQ_IO_INDEX_FORMAT_H_

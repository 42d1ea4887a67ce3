#include "io/index_file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <memory>
#include <string_view>
#include <utility>

#include "io/atomic_file.h"
#include "io/index_format.h"
#include "util/logging.h"

namespace stpq {

using namespace index_format;  // NOLINT(build/namespaces) format primitives

namespace {

PreadFn g_pread_fn = &::pread;

/// Decoded superblock, reader side.
struct Superblock {
  uint32_t version = 0;
  IndexBuildParams params;
  uint64_t object_count = 0;
  uint32_t table_count = 0;
  uint32_t segment_count = 0;
};

// -------------------------------------------------------- file plumbing
//
// The reader never loads the whole file: it preads the superblock and
// catalog, then each small segment, and streams each node segment once to
// verify it.  The slots themselves stay in the file: trees read them from
// the FilePageStore's mapping of it.

class IndexFileHandle {
 public:
  [[nodiscard]] static Result<std::unique_ptr<IndexFileHandle>> Open(
      const std::string& path) {
    int fd = -1;
    do {
      fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
    } while (fd < 0 && errno == EINTR);
    if (fd < 0) return Status::IoError("cannot open: " + path);
    struct stat st {};
    if (::fstat(fd, &st) != 0) {
      ::close(fd);
      return Status::IoError("cannot open: " + path);
    }
    return std::unique_ptr<IndexFileHandle>(
        new IndexFileHandle(path, fd, static_cast<uint64_t>(st.st_size)));
  }

  ~IndexFileHandle() { ::close(fd_); }

  IndexFileHandle(const IndexFileHandle&) = delete;
  IndexFileHandle& operator=(const IndexFileHandle&) = delete;

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] int fd() const { return fd_; }
  [[nodiscard]] uint64_t size() const { return size_; }

  /// Reads exactly [offset, offset + n), retrying EINTR; a persistent
  /// short read (concurrent truncation) or hard error is an IoError.
  /// Every byte the reader verifies comes through here.
  [[nodiscard]] Status PreadExact(uint64_t offset, char* out,
                                  uint64_t n) const {
    uint64_t done = 0;
    while (done < n) {
      const size_t want = static_cast<size_t>(
          std::min<uint64_t>(n - done, size_t{1} << 30));
      const ssize_t got = g_pread_fn(fd_, out + done, want,
                                     static_cast<off_t>(offset + done));
      if (got < 0) {
        if (errno == EINTR) continue;
        return Status::IoError("read failed: " + path_);
      }
      if (got == 0) return Status::IoError("read failed: " + path_);
      done += static_cast<uint64_t>(got);
    }
    return Status::OK();
  }

 private:
  IndexFileHandle(std::string path, int fd, uint64_t size)
      : path_(std::move(path)), fd_(fd), size_(size) {}

  const std::string path_;
  const int fd_;
  const uint64_t size_;
};

/// Preads and parses superblock + catalog with bounds checks against the
/// physical file size.
Status ParseHeader(const IndexFileHandle& file, Superblock* sb,
                   std::vector<CatalogEntry>* catalog) {
  const std::string& path = file.path();
  if (file.size() < kSuperblockBytes) {
    return Status::IoError("truncated index file (no superblock): " + path);
  }
  char super[kSuperblockBytes];
  STPQ_RETURN_NOT_OK(file.PreadExact(0, super, kSuperblockBytes));
  ByteReader r(super, kSuperblockBytes);
  uint32_t magic = 0, index_kind = 0, bulk_load = 0;
  r.Pod(&magic);
  if (magic != kIndexMagic) {
    return Status::InvalidArgument("not a stpq index file: " + path);
  }
  r.Pod(&sb->version);
  if (sb->version != kIndexVersion) {
    return Status::InvalidArgument("unsupported stpq index version " +
                                   std::to_string(sb->version));
  }
  r.Pod(&sb->params.page_size_bytes);
  r.Pod(&index_kind);
  r.Pod(&bulk_load);
  r.Pod(&sb->params.signature_bits);
  r.Pod(&sb->params.signature_hashes);
  r.Pod(&sb->params.fill);
  r.Pod(&sb->object_count);
  r.Pod(&sb->table_count);
  if (!r.Pod(&sb->segment_count)) {
    return Status::IoError("truncated index superblock: " + path);
  }
  if (index_kind > static_cast<uint32_t>(FeatureIndexKind::kIr2)) {
    return Status::Corruption("unknown feature index kind " +
                              std::to_string(index_kind));
  }
  if (bulk_load > static_cast<uint32_t>(BulkLoadKind::kInsert)) {
    return Status::Corruption("unknown bulk-load kind " +
                              std::to_string(bulk_load));
  }
  sb->params.index_kind = static_cast<FeatureIndexKind>(index_kind);
  sb->params.bulk_load = static_cast<BulkLoadKind>(bulk_load);
  if (sb->params.page_size_bytes == 0 || sb->table_count > kMaxTables ||
      sb->object_count > kMaxRecordCount) {
    return Status::Corruption("implausible index superblock counts");
  }
  const uint32_t expected_segments = 3 + 4 * sb->table_count;
  if (sb->segment_count != expected_segments) {
    return Status::Corruption(
        "superblock names " + std::to_string(sb->segment_count) +
        " segments; " + std::to_string(sb->table_count) + " tables need " +
        std::to_string(expected_segments));
  }
  const uint64_t catalog_bytes =
      uint64_t{sb->segment_count} * kCatalogEntryBytes;
  if (file.size() - kSuperblockBytes < catalog_bytes) {
    return Status::IoError("truncated index catalog: " + path);
  }
  std::string raw(catalog_bytes, '\0');
  STPQ_RETURN_NOT_OK(
      file.PreadExact(kSuperblockBytes, raw.data(), catalog_bytes));
  ByteReader c(raw.data(), raw.size());
  catalog->reserve(sb->segment_count);
  for (uint32_t i = 0; i < sb->segment_count; ++i) {
    CatalogEntry e;
    if (!c.Pod(&e)) {
      return Status::IoError("truncated index catalog: " + path);
    }
    if (e.offset > file.size() || e.bytes > file.size() - e.offset) {
      return Status::IoError("truncated index file: segment '" +
                             std::string(SegmentName(e.type)) +
                             "' reaches past the end of " + path);
    }
    catalog->push_back(e);
  }
  return Status::OK();
}

const CatalogEntry* FindEntry(const std::vector<CatalogEntry>& cat,
                              uint32_t type, uint32_t ordinal) {
  for (const CatalogEntry& e : cat) {
    if (e.type == type && e.ordinal == ordinal) return &e;
  }
  return nullptr;
}

Status MissingSegment(uint32_t type, uint32_t ordinal) {
  return Status::Corruption("missing segment '" +
                            std::string(SegmentName(type)) + "' #" +
                            std::to_string(ordinal));
}

Status ChecksumMismatch(uint32_t type, uint32_t ordinal) {
  return Status::Corruption("checksum mismatch in segment '" +
                            std::string(SegmentName(type)) + "' #" +
                            std::to_string(ordinal));
}

/// Locates a small segment, preads its payload and verifies the checksum.
Result<std::string> VerifiedSegment(const IndexFileHandle& file,
                                    const std::vector<CatalogEntry>& cat,
                                    uint32_t type, uint32_t ordinal) {
  const CatalogEntry* e = FindEntry(cat, type, ordinal);
  if (e == nullptr) return MissingSegment(type, ordinal);
  std::string payload(e->bytes, '\0');
  STPQ_RETURN_NOT_OK(file.PreadExact(e->offset, payload.data(), e->bytes));
  if (Fnv1a64(payload.data(), payload.size()) != e->checksum) {
    return ChecksumMismatch(type, ordinal);
  }
  return payload;
}

Status ParseObjects(std::string_view sv, uint64_t expected_count,
                    std::vector<DataObject>* out) {
  ByteReader r(sv.data(), sv.size());
  uint64_t count = 0;
  if (!r.Pod(&count) || count != expected_count ||
      count > kMaxRecordCount) {
    return Status::Corruption("objects segment header mismatch");
  }
  out->reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    DataObject o;
    if (!r.Pod(&o.id) || !r.Pod(&o.pos.x) || !r.Pod(&o.pos.y) ||
        !r.Str(&o.name)) {
      return Status::Corruption("object record truncated");
    }
    out->push_back(std::move(o));
  }
  return Status::OK();
}

Status ParseVocabulary(std::string_view sv, Vocabulary* out) {
  ByteReader r(sv.data(), sv.size());
  uint32_t n = 0;
  if (!r.Pod(&n)) return Status::Corruption("vocabulary segment truncated");
  for (uint32_t i = 0; i < n; ++i) {
    std::string term;
    if (!r.Str(&term)) return Status::Corruption("vocabulary term truncated");
    out->Intern(term);
  }
  return Status::OK();
}

Status ParseFeatureTable(std::string_view sv, FeatureTable* out) {
  ByteReader r(sv.data(), sv.size());
  uint32_t universe = 0;
  uint64_t count = 0;
  if (!r.Pod(&universe) || !r.Pod(&count) || count > kMaxRecordCount) {
    return Status::Corruption("feature-table segment header truncated");
  }
  const uint32_t expected_blocks = (universe + 63) / 64;
  std::vector<FeatureObject> features;
  features.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    FeatureObject f;
    uint32_t block_count = 0;
    if (!r.Pod(&f.id) || !r.Pod(&f.pos.x) || !r.Pod(&f.pos.y) ||
        !r.Pod(&f.score) || !r.Pod(&block_count)) {
      return Status::Corruption("feature record truncated");
    }
    if (block_count != expected_blocks) {
      return Status::Corruption("feature keyword blocks do not match the "
                                "universe size");
    }
    std::vector<uint64_t> blocks(block_count, 0);
    for (uint32_t b = 0; b < block_count; ++b) {
      if (!r.Pod(&blocks[b])) {
        return Status::Corruption("feature keyword blocks truncated");
      }
    }
    f.keywords = KeywordSet::FromBlocks(universe, std::move(blocks));
    if (!r.Str(&f.name)) {
      return Status::Corruption("feature name truncated");
    }
    features.push_back(std::move(f));
  }
  *out = FeatureTable(std::move(features), universe);
  return Status::OK();
}

// --------------------------------------------------------- tree reader
//
// The metadata is parsed and cross-checked against the catalog row of the
// node segment; the node segment is streamed once, checksumming every byte
// and validating each slot header, and is not kept: the page store maps
// it.

/// Parses the tree-metadata payload and cross-checks it against the node
/// segment's catalog entry and the geometry the superblock parameters
/// derive.  Fills everything in `out` except the slots.
template <int D, typename Aug>
Status ParseTreeMeta(std::string_view meta, const CatalogEntry& nodes_entry,
                     const NodeCodec<D, Aug>& codec, RestoredTreeData* out) {
  const TreeGeometry& g = codec.geometry();
  ByteReader m(meta.data(), meta.size());
  uint32_t root = 0, height = 0, node_count = 0, max_entries = 0;
  uint32_t aug_bits = 0, aug_words = 0, free_count = 0;
  uint64_t size = 0;
  if (!m.Pod(&root) || !m.Pod(&height) || !m.Pod(&size) ||
      !m.Pod(&node_count) || !m.Pod(&max_entries) || !m.Pod(&aug_bits) ||
      !m.Pod(&aug_words) || !m.Pod(&free_count)) {
    return Status::Corruption("tree metadata segment too short");
  }
  if (aug_bits != g.aug_bits || aug_words != g.aug_words) {
    return Status::Corruption(
        "augmentation layout mismatch: file says " + std::to_string(aug_bits) +
        " bits / " + std::to_string(aug_words) + " words, parameters derive " +
        std::to_string(g.aug_bits) + " / " + std::to_string(g.aug_words));
  }
  if (max_entries != g.max_entries) {
    return Status::Corruption(
        "node fan-out mismatch: file says " + std::to_string(max_entries) +
        ", page-size parameters derive " + std::to_string(g.max_entries));
  }
  if (node_count > kMaxNodeCount) {
    return Status::Corruption("implausible tree node count");
  }
  if (free_count != 0) {
    return Status::Corruption("tree metadata lists " +
                              std::to_string(free_count) +
                              " free nodes; a tree has none");
  }
  if (node_count != nodes_entry.slot_count) {
    return Status::Corruption("tree metadata and catalog disagree on the "
                              "node count");
  }
  if (nodes_entry.bytes !=
      nodes_entry.slot_count * uint64_t{nodes_entry.slot_bytes}) {
    return Status::Corruption("node segment size does not match its slots");
  }
  // Trees and the page store index slots by the catalog's fixed slot
  // width, so it must equal the width the page-size parameters derive
  // (the catalog itself is not checksummed).
  if (nodes_entry.slot_bytes != codec.slot_bytes()) {
    return Status::Corruption(
        "node slot width mismatch: catalog says " +
        std::to_string(nodes_entry.slot_bytes) +
        " bytes, page-size parameters derive " +
        std::to_string(codec.slot_bytes()));
  }
  if (root != kInvalidNodeId && root >= node_count) {
    return Status::Corruption("tree root id out of range");
  }
  out->root = root;
  out->height = height;
  out->size = size;
  out->node_count = node_count;
  return Status::OK();
}

/// One streaming pass over a node segment through a bounded buffer:
/// checksums every byte and validates each slot: its entry count against
/// the fan-out, and each entry id against what it names (a node of this
/// tree in an internal slot, one of `record_count` records in a leaf), so
/// no query can follow an id out of the tree's slots or past its records.
/// A checksum mismatch outranks a slot violation (damaged bytes usually
/// trip both).
template <int D, typename Aug>
Status VerifyNodeSegment(const IndexFileHandle& file, const CatalogEntry& e,
                         const NodeCodec<D, Aug>& codec,
                         uint64_t record_count) {
  Fnv1a64Stream fnv;
  Status bad_slot = Status::OK();
  const uint32_t max_entries = codec.geometry().max_entries;
  const auto check_slot = [&](uint64_t node, const char* slot) {
    const NodeView<D, Aug> view = codec.View(slot);
    if (view.count() > max_entries) {
      return Status::Corruption(
          "node " + std::to_string(node) + " claims " +
          std::to_string(view.count()) + " entries, above the fan-out of " +
          std::to_string(max_entries));
    }
    const uint64_t bound = view.IsLeaf() ? record_count : e.slot_count;
    for (uint32_t i = 0; i < view.count(); ++i) {
      if (view.id(i) >= bound) {
        return Status::Corruption(
            "node " + std::to_string(node) + " entry " + std::to_string(i) +
            " names " + (view.IsLeaf() ? "record " : "node ") +
            std::to_string(view.id(i)) + ", past the " +
            std::to_string(bound) + (view.IsLeaf() ? " records" : " nodes") +
            " of its tree");
      }
    }
    return Status::OK();
  };
  if (e.slot_count > 0) {
    const uint32_t slot_bytes = e.slot_bytes;
    const uint64_t chunk_slots =
        std::max<uint64_t>(1, (uint64_t{1} << 20) / slot_bytes);
    std::vector<char> buf(static_cast<size_t>(chunk_slots) * slot_bytes);
    for (uint64_t i = 0; i < e.slot_count;) {
      const uint64_t n = std::min(chunk_slots, e.slot_count - i);
      STPQ_RETURN_NOT_OK(file.PreadExact(e.offset + i * slot_bytes,
                                         buf.data(), n * slot_bytes));
      fnv.Update(buf.data(), static_cast<size_t>(n * slot_bytes));
      for (uint64_t j = 0; bad_slot.ok() && j < n; ++j) {
        bad_slot = check_slot(i + j, buf.data() + j * slot_bytes);
      }
      i += n;
    }
  }
  if (fnv.Digest() != e.checksum) {
    return ChecksumMismatch(e.type, e.ordinal);
  }
  return bad_slot;
}

/// Verifies tree t (0: the object tree, i + 1: the feature tree of table
/// i), whose leaves index `record_count` records, and parses its metadata.
/// `*nodes_offset` gets the file offset of the tree's slots.
template <int D, typename Aug>
Status LoadTree(const IndexFileHandle& file,
                const std::vector<CatalogEntry>& catalog, uint32_t t,
                const NodeCodec<D, Aug>& codec, uint64_t record_count,
                RestoredTreeData* out, uint64_t* nodes_offset) {
  const uint32_t meta_type =
      t == 0 ? kSegObjectTreeMeta : kSegFeatureTreeMeta;
  const uint32_t ordinal = t == 0 ? 0 : t - 1;
  Result<std::string> meta = VerifiedSegment(file, catalog, meta_type,
                                             ordinal);
  if (!meta.ok()) return meta.status();
  const CatalogEntry* entry = FindEntry(catalog, meta_type + 1, ordinal);
  if (entry == nullptr) return MissingSegment(meta_type + 1, ordinal);
  STPQ_RETURN_NOT_OK(ParseTreeMeta(meta.value(), *entry, codec, out));
  STPQ_RETURN_NOT_OK(VerifyNodeSegment(file, *entry, codec, record_count));
  if (entry->first_page != kIndexPageStride * t) {
    return Status::Corruption("node segment '" +
                              std::string(SegmentName(entry->type)) + "' #" +
                              std::to_string(ordinal) +
                              " has the wrong page-id base");
  }
  *nodes_offset = entry->offset;
  return Status::OK();
}

/// Writes one in-memory tree's segments: its slots verbatim (free ones
/// included), then the metadata.
template <int D, typename Aug>
Status WriteTree(AtomicFile* out, const RTree<D, Aug>& tree,
                 const NodeCodec<D, Aug>& codec, IndexPlan* plan,
                 uint32_t t) {
  const NodeCodec<D, Aug>& own = tree.codec();
  if (own.geometry().max_entries != codec.geometry().max_entries ||
      own.entry_bytes() != codec.entry_bytes() ||
      own.slot_bytes() != codec.slot_bytes()) {
    return Status::InvalidArgument(
        "index tree slot layout does not match the write parameters");
  }
  const std::string_view slots = tree.slots();
  if (!slots.empty()) {
    STPQ_RETURN_NOT_OK(
        out->WriteAt(plan->tree_nodes(t).offset, slots.data(), slots.size()));
  }
  return FinishTree(out, plan, t);
}

}  // namespace

// ---------------------------------------------------------------- writer

Status WriteIndexFile(const std::string& path,
                      const IndexFileWriteRequest& request) {
  if (request.objects == nullptr || request.feature_tables == nullptr ||
      request.vocabularies == nullptr || request.object_index == nullptr) {
    return Status::InvalidArgument("index write request is missing a part");
  }
  const size_t num_tables = request.feature_tables->size();
  if (request.vocabularies->size() != num_tables ||
      request.feature_indexes.size() != num_tables) {
    return Status::InvalidArgument(
        "index write request needs one vocabulary and one feature index per "
        "table");
  }
  if (num_tables > kMaxTables) {
    return Status::InvalidArgument("too many feature tables to persist");
  }
  const IndexBuildParams& params = request.params;
  const uint32_t page_size = params.page_size_bytes;
  if (page_size == 0) {
    return Status::InvalidArgument("page_size_bytes must be nonzero");
  }
  const bool srt = params.index_kind == FeatureIndexKind::kSrt;
  for (size_t i = 0; i < num_tables; ++i) {
    const FeatureIndex* index = request.feature_indexes[i];
    if (srt ? dynamic_cast<const SrtIndex*>(index) == nullptr
            : dynamic_cast<const Ir2Tree*>(index) == nullptr) {
      return Status::InvalidArgument(
          "feature index " + std::to_string(i) + " is not an " +
          (srt ? "SrtIndex but params say kind=srt"
               : "Ir2Tree but params say kind=ir2"));
    }
  }

  // Record segments: one content function each, run once through a
  // counting writer to size the plan and once to write.
  const auto objects = [&](SegmentWriter* w) {
    w->Put(EncodeObjectsHeader, uint64_t{request.objects->size()});
    for (const DataObject& o : *request.objects) {
      w->Put(EncodeObjectRecord, o.id, o);
    }
  };
  const auto vocabulary = [&](uint32_t i, SegmentWriter* w) {
    const Vocabulary& vocab = (*request.vocabularies)[i];
    w->Put(EncodeVocabularyHeader, vocab.size());
    for (uint32_t t = 0; t < vocab.size(); ++t) {
      w->Put(EncodeVocabTerm, vocab.Term(t));
    }
  };
  const auto features = [&](uint32_t i, SegmentWriter* w) {
    const FeatureTable& table = (*request.feature_tables)[i];
    w->Put(EncodeFeatureTableHeader, table.universe_size(),
           uint64_t{table.size()});
    for (const FeatureObject& f : table.All()) {
      w->Put(EncodeFeatureRecord, f.id, f);
    }
  };
  const auto measure = [](const auto& content) {
    SegmentWriter counter;
    content(&counter);
    return counter.bytes();
  };

  // Calls fn(tree, codec) on tree t: 0 is the object tree, t = i + 1 the
  // feature index of table i.
  const auto visit_tree = [&](uint32_t t, const auto& fn) {
    if (t == 0) {
      return fn(request.object_index->tree(),
                NodeCodec<2, NoAug>(ObjectIndex::Geometry(page_size)));
    }
    const uint32_t universe = (*request.feature_tables)[t - 1].universe_size();
    const FeatureIndex* index = request.feature_indexes[t - 1];
    if (srt) {
      return fn(static_cast<const SrtIndex*>(index)->tree(),
                NodeCodec<4, SrtAug>(SrtIndex::Geometry(page_size, universe)));
    }
    return fn(static_cast<const Ir2Tree*>(index)->tree(),
              NodeCodec<2, Ir2Aug>(Ir2Tree::Geometry(page_size,
                                                     params.signature_bits,
                                                     universe)));
  };

  std::vector<TableSizes> sizes(num_tables);
  for (uint32_t i = 0; i < num_tables; ++i) {
    sizes[i].vocabulary = measure([&](SegmentWriter* w) { vocabulary(i, w); });
    sizes[i].features = measure([&](SegmentWriter* w) { features(i, w); });
  }
  std::vector<TreeSegments> trees;
  for (uint32_t t = 0; t <= num_tables; ++t) {
    trees.push_back(visit_tree(t, [](const auto& tree, const auto& codec) {
      return MakeTreeSegments(codec.geometry(), codec.slot_bytes(),
                              tree.root_id(), tree.height(), tree.size(),
                              tree.node_count());
    }));
  }
  IndexPlan plan(page_size, measure(objects), sizes, std::move(trees));

  // Crash-safe publish: stream every segment into `<path>.tmp`, fsync it,
  // then atomically rename over the destination.  A crash or failure at
  // any point leaves the previous index untouched.
  Result<AtomicFile> out_r = AtomicFile::Create(path);
  if (!out_r.ok()) return out_r.status();
  AtomicFile out = out_r.TakeValue();
  const auto write = [&](CatalogEntry* seg, const auto& content) {
    SegmentWriter w(&out, seg->offset);
    content(&w);
    return w.Finish(seg);
  };
  STPQ_RETURN_NOT_OK(write(&plan.objects(), objects));
  for (uint32_t i = 0; i < num_tables; ++i) {
    STPQ_RETURN_NOT_OK(write(&plan.vocabulary(i), [&](SegmentWriter* w) {
      vocabulary(i, w);
    }));
    STPQ_RETURN_NOT_OK(write(&plan.table(i), [&](SegmentWriter* w) {
      features(i, w);
    }));
  }
  for (uint32_t t = 0; t <= num_tables; ++t) {
    STPQ_RETURN_NOT_OK(visit_tree(t, [&](const auto& tree, const auto& codec) {
      return WriteTree(&out, tree, codec, &plan, t);
    }));
  }
  return CommitIndexFile(&out, params, request.objects->size(), plan);
}

// ---------------------------------------------------------------- reader

void SetIndexPreadFnForTest(PreadFn fn) {
  g_pread_fn = fn != nullptr ? fn : &::pread;
}

Result<LoadedIndex> LoadIndexFile(const std::string& path) {
  Result<std::unique_ptr<IndexFileHandle>> file_r =
      IndexFileHandle::Open(path);
  if (!file_r.ok()) return file_r.status();
  const std::unique_ptr<IndexFileHandle> file = file_r.TakeValue();

  Superblock sb;
  std::vector<CatalogEntry> catalog;
  STPQ_RETURN_NOT_OK(ParseHeader(*file, &sb, &catalog));

  LoadedIndex out;
  out.params = sb.params;

  {
    Result<std::string> sv = VerifiedSegment(*file, catalog, kSegObjects, 0);
    if (!sv.ok()) return sv.status();
    STPQ_RETURN_NOT_OK(ParseObjects(sv.value(), sb.object_count, &out.objects));
  }
  out.vocabularies.resize(sb.table_count);
  out.feature_tables.resize(sb.table_count);
  for (uint32_t i = 0; i < sb.table_count; ++i) {
    Result<std::string> vv =
        VerifiedSegment(*file, catalog, kSegVocabulary, i);
    if (!vv.ok()) return vv.status();
    STPQ_RETURN_NOT_OK(ParseVocabulary(vv.value(), &out.vocabularies[i]));
    Result<std::string> tv =
        VerifiedSegment(*file, catalog, kSegFeatureTable, i);
    if (!tv.ok()) return tv.status();
    STPQ_RETURN_NOT_OK(ParseFeatureTable(tv.value(), &out.feature_tables[i]));
  }

  // The object tree, then one feature tree per table matching the
  // persisted index kind.
  const uint32_t page_size = sb.params.page_size_bytes;
  std::vector<uint64_t> offsets(sb.table_count + 1);
  out.trees.resize(sb.table_count + 1);
  STPQ_RETURN_NOT_OK(
      LoadTree(*file, catalog, 0,
               NodeCodec<2, NoAug>(ObjectIndex::Geometry(page_size)),
               out.objects.size(), &out.trees[0], &offsets[0]));
  for (uint32_t i = 0; i < sb.table_count; ++i) {
    const uint32_t universe = out.feature_tables[i].universe_size();
    const uint64_t features = out.feature_tables[i].size();
    STPQ_RETURN_NOT_OK(
        sb.params.index_kind == FeatureIndexKind::kSrt
            ? LoadTree(*file, catalog, i + 1,
                       NodeCodec<4, SrtAug>(
                           SrtIndex::Geometry(page_size, universe)),
                       features, &out.trees[i + 1], &offsets[i + 1])
            : LoadTree(*file, catalog, i + 1,
                       NodeCodec<2, Ir2Aug>(Ir2Tree::Geometry(
                           page_size, sb.params.signature_bits, universe)),
                       features, &out.trees[i + 1], &offsets[i + 1]));
  }

  // The trees read their slots from a mapping of the file verified above,
  // through its descriptor: `path` may name another file by now.  Every
  // segment was checked to lie within file->size() bytes, and the store
  // maps exactly those.
  const int fd = ::fcntl(file->fd(), F_DUPFD_CLOEXEC, 0);
  if (fd < 0) return Status::IoError("cannot open: " + path);
  Result<std::unique_ptr<FilePageStore>> store_r =
      FilePageStore::Open(fd, path, file->size());
  if (!store_r.ok()) return store_r.status();
  out.store = store_r.TakeValue();
  for (size_t t = 0; t < out.trees.size(); ++t) {
    out.trees[t].mapped = out.store->mapped_data() + offsets[t];
  }
  return out;
}

Result<IndexFileInfo> ReadIndexFileInfo(const std::string& path) {
  Result<std::unique_ptr<IndexFileHandle>> file_r =
      IndexFileHandle::Open(path);
  if (!file_r.ok()) return file_r.status();
  const std::unique_ptr<IndexFileHandle> file = file_r.TakeValue();
  Superblock sb;
  std::vector<CatalogEntry> catalog;
  STPQ_RETURN_NOT_OK(ParseHeader(*file, &sb, &catalog));
  IndexFileInfo info;
  info.version = sb.version;
  info.params = sb.params;
  info.object_count = sb.object_count;
  info.table_count = sb.table_count;
  info.file_bytes = file->size();
  info.segments.reserve(catalog.size());
  for (const CatalogEntry& e : catalog) {
    IndexSegmentInfo s;
    s.name = SegmentName(e.type);
    s.ordinal = e.ordinal;
    s.offset = e.offset;
    s.bytes = e.bytes;
    s.slots = e.slot_count;
    s.slot_bytes = e.slot_bytes;
    info.segments.push_back(std::move(s));
  }
  return info;
}

Result<std::vector<Vocabulary>> ReadIndexVocabularies(
    const std::string& path) {
  Result<std::unique_ptr<IndexFileHandle>> file_r =
      IndexFileHandle::Open(path);
  if (!file_r.ok()) return file_r.status();
  const std::unique_ptr<IndexFileHandle> file = file_r.TakeValue();
  Superblock sb;
  std::vector<CatalogEntry> catalog;
  STPQ_RETURN_NOT_OK(ParseHeader(*file, &sb, &catalog));
  std::vector<Vocabulary> vocabs(sb.table_count);
  for (uint32_t i = 0; i < sb.table_count; ++i) {
    Result<std::string> sv =
        VerifiedSegment(*file, catalog, kSegVocabulary, i);
    if (!sv.ok()) return sv.status();
    STPQ_RETURN_NOT_OK(ParseVocabulary(sv.value(), &vocabs[i]));
  }
  return vocabs;
}

}  // namespace stpq

#include "io/index_format.h"

#include <algorithm>
#include <utility>

namespace stpq {
namespace index_format {

const char* SegmentName(uint32_t type) {
  switch (type) {
    case kSegObjects:
      return "objects";
    case kSegVocabulary:
      return "vocabulary";
    case kSegFeatureTable:
      return "feature_table";
    case kSegObjectTreeMeta:
      return "object_tree_meta";
    case kSegObjectTreeNodes:
      return "object_tree_nodes";
    case kSegFeatureTreeMeta:
      return "feature_tree_meta";
    case kSegFeatureTreeNodes:
      return "feature_tree_nodes";
  }
  return "unknown";
}

// ----------------------------------------------------- record encoders

void EncodeObjectsHeader(uint64_t count, std::string* out) {
  PutPod(out, count);
}

void EncodeObjectRecord(uint32_t id, const DataObject& o, std::string* out) {
  PutPod(out, id);
  PutPod(out, o.pos.x);
  PutPod(out, o.pos.y);
  PutString(out, o.name);
}

void EncodeVocabularyHeader(uint32_t terms, std::string* out) {
  PutPod(out, terms);
}

void EncodeVocabTerm(const std::string& term, std::string* out) {
  PutString(out, term);
}

void EncodeFeatureTableHeader(uint32_t universe, uint64_t count,
                              std::string* out) {
  PutPod(out, universe);
  PutPod(out, count);
}

void EncodeFeatureRecord(uint32_t id, const FeatureObject& f,
                         std::string* out) {
  PutPod(out, id);
  PutPod(out, f.pos.x);
  PutPod(out, f.pos.y);
  PutPod(out, f.score);
  const std::vector<uint64_t>& blocks = f.keywords.blocks();
  PutPod<uint32_t>(out, static_cast<uint32_t>(blocks.size()));
  for (uint64_t b : blocks) PutPod(out, b);
  PutString(out, f.name);
}

TreeSegments MakeTreeSegments(const TreeGeometry& geometry,
                              uint32_t slot_bytes, NodeId root,
                              uint32_t height, uint64_t size,
                              uint64_t node_count) {
  TreeSegments t{"", node_count, slot_bytes};
  PutPod<uint32_t>(&t.meta, root);
  PutPod<uint32_t>(&t.meta, height);
  PutPod<uint64_t>(&t.meta, size);
  PutPod<uint32_t>(&t.meta, static_cast<uint32_t>(node_count));
  PutPod<uint32_t>(&t.meta, geometry.max_entries);
  PutPod<uint32_t>(&t.meta, geometry.aug_bits);
  PutPod<uint32_t>(&t.meta, geometry.aug_words);
  PutPod<uint32_t>(&t.meta, 0);  // free-node count: trees have no free list
  return t;
}

// ------------------------------------------------------------- planner

IndexPlan::IndexPlan(uint32_t page_size, uint64_t objects_bytes,
                     const std::vector<TableSizes>& tables,
                     std::vector<TreeSegments> trees)
    : table_count_(static_cast<uint32_t>(tables.size())),
      trees_(std::move(trees)) {
  STPQ_CHECK(trees_.size() == tables.size() + 1);
  const auto add = [this](uint32_t type, uint32_t ordinal, uint64_t bytes) {
    CatalogEntry e;
    e.type = type;
    e.ordinal = ordinal;
    e.bytes = bytes;
    catalog_.push_back(e);
  };
  add(kSegObjects, 0, objects_bytes);
  for (uint32_t i = 0; i < table_count_; ++i) {
    add(kSegVocabulary, i, tables[i].vocabulary);
    add(kSegFeatureTable, i, tables[i].features);
  }
  for (uint32_t t = 0; t <= table_count_; ++t) {
    const TreeSegments& tree = trees_[t];
    const uint32_t meta_type =
        t == 0 ? kSegObjectTreeMeta : kSegFeatureTreeMeta;
    const uint32_t ordinal = t == 0 ? 0 : t - 1;
    add(meta_type, ordinal, tree.meta.size());
    add(meta_type + 1, ordinal, tree.slot_count * uint64_t{tree.slot_bytes});
    catalog_.back().first_page = kIndexPageStride * t;
    catalog_.back().slot_count = tree.slot_count;
    catalog_.back().slot_bytes = tree.slot_bytes;
  }

  uint64_t cursor = kSuperblockBytes + catalog_.size() * kCatalogEntryBytes;
  file_end_ = cursor;
  for (CatalogEntry& e : catalog_) {
    const bool nodes =
        e.type == kSegObjectTreeNodes || e.type == kSegFeatureTreeNodes;
    if (nodes) cursor = AlignUp(cursor, page_size);
    e.offset = cursor;
    cursor += e.bytes;
    // Empty segments do not extend the file.
    if (e.bytes > 0) file_end_ = std::max(file_end_, cursor);
  }
}

// ------------------------------------------------------------- writers

void SegmentWriter::Flush() {
  if (out_ != nullptr && status_.ok()) {
    status_ = out_->WriteAt(offset_ + written_, buf_.data(), buf_.size());
    fnv_.Update(buf_.data(), buf_.size());
  }
  written_ += buf_.size();
  buf_.clear();
}

Status SegmentWriter::Finish(CatalogEntry* seg) {
  Flush();
  STPQ_RETURN_NOT_OK(status_);
  if (written_ != seg->bytes) {
    return Status::IoError(
        "segment '" + std::string(SegmentName(seg->type)) + "' #" +
        std::to_string(seg->ordinal) + " came out at " +
        std::to_string(written_) + " bytes, sized at " +
        std::to_string(seg->bytes) + ": its input changed between passes");
  }
  seg->checksum = fnv_.Digest();
  return Status::OK();
}

Status FinishTree(AtomicFile* out, IndexPlan* plan, uint32_t t) {
  const std::string& meta = plan->tree(t).meta;
  CatalogEntry& nodes = plan->tree_nodes(t);
  STPQ_RETURN_NOT_OK(
      out->WriteAt(plan->tree_meta(t).offset, meta.data(), meta.size()));
  plan->tree_meta(t).checksum = Fnv1a64(meta.data(), meta.size());
  Fnv1a64Stream fnv;
  std::vector<char> buf(size_t{1} << 20);
  for (uint64_t done = 0; done < nodes.bytes;) {
    const uint64_t n = std::min<uint64_t>(buf.size(), nodes.bytes - done);
    STPQ_RETURN_NOT_OK(out->ReadAt(nodes.offset + done, buf.data(), n));
    fnv.Update(buf.data(), static_cast<size_t>(n));
    done += n;
  }
  nodes.checksum = fnv.Digest();
  return Status::OK();
}

Status CommitIndexFile(AtomicFile* out, const IndexBuildParams& params,
                       uint64_t object_count, const IndexPlan& plan) {
  std::string header;
  PutPod<uint32_t>(&header, kIndexMagic);
  PutPod<uint32_t>(&header, kIndexVersion);
  PutPod<uint32_t>(&header, params.page_size_bytes);
  PutPod<uint32_t>(&header, static_cast<uint32_t>(params.index_kind));
  PutPod<uint32_t>(&header, static_cast<uint32_t>(params.bulk_load));
  PutPod<uint32_t>(&header, params.signature_bits);
  PutPod<uint32_t>(&header, params.signature_hashes);
  PutPod<double>(&header, params.fill);
  PutPod<uint64_t>(&header, object_count);
  PutPod<uint32_t>(&header, plan.table_count());
  PutPod<uint32_t>(&header, static_cast<uint32_t>(plan.catalog().size()));
  for (const CatalogEntry& e : plan.catalog()) PutPod(&header, e);
  STPQ_CHECK(header.size() ==
             kSuperblockBytes + plan.catalog().size() * kCatalogEntryBytes);
  STPQ_RETURN_NOT_OK(out->WriteAt(0, header.data(), header.size()));
  STPQ_RETURN_NOT_OK(out->Truncate(plan.file_end()));
  return out->Commit();
}

}  // namespace index_format
}  // namespace stpq

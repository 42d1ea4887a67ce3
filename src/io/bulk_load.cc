#include "io/bulk_load.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "geom/rect.h"
#include "index/ir2_tree.h"
#include "index/object_index.h"
#include "index/srt_index.h"
#include "io/atomic_file.h"
#include "io/dataset_io.h"
#include "io/index_format.h"
#include "obs/metrics_registry.h"
#include "obs/trace.h"
#include "rtree/bulk_load.h"
#include "rtree/rtree.h"
#include "text/signature.h"
#include "util/logging.h"

namespace stpq {

using namespace index_format;  // NOLINT(build/namespaces) format primitives

namespace {

constexpr uint32_t kMinExternalPageSize = 64;  // engine.cc kMinPageSizeBytes
constexpr uint64_t kMinMemoryBudget = 4096;

// -------------------------------------------------------- external sort
//
// Fixed-width records [key u64][seq u64][entry blob]; `seq` is the
// record's arrival position, so the (key, seq) order is exactly
// SortByHilbertKey's (key, original index) total order.  Records
// accumulate in a bounded buffer; full buffers sort and spill to run
// files, runs merge with a bounded fan-in until one streaming pass can
// feed the consumer.

class ExternalSorter {
 public:
  ExternalSorter(uint32_t blob_bytes, uint64_t memory_budget,
                 std::string run_prefix)
      : blob_bytes_(blob_bytes),
        rec_bytes_(16 + blob_bytes),
        budget_(memory_budget),
        run_prefix_(std::move(run_prefix)) {
    const uint64_t sort_budget = std::max<uint64_t>(budget_ / 2, 4096);
    records_per_spill_ = std::clamp<uint64_t>(sort_budget / rec_bytes_, 1,
                                              uint64_t{1} << 30);
    buffer_.reserve(static_cast<size_t>(
        std::min<uint64_t>(records_per_spill_ * rec_bytes_, sort_budget)));
  }

  ~ExternalSorter() {
    for (const std::string& run : runs_) std::remove(run.c_str());
  }

  ExternalSorter(const ExternalSorter&) = delete;
  ExternalSorter& operator=(const ExternalSorter&) = delete;

  [[nodiscard]] Status Add(uint64_t key, const char* blob) {
    const uint64_t seq = seq_++;
    buffer_.append(reinterpret_cast<const char*>(&key), 8);
    buffer_.append(reinterpret_cast<const char*>(&seq), 8);
    buffer_.append(blob, blob_bytes_);
    ++buffered_;
    if (buffered_ >= records_per_spill_) return SpillRun();
    return Status::OK();
  }

  /// Streams every record's blob in (key, seq) order.
  [[nodiscard]] Status Drain(
      const std::function<Status(const char*)>& fn) {
    if (runs_.empty()) {
      const std::vector<uint32_t> order = SortedOrder();
      for (uint32_t idx : order) {
        STPQ_RETURN_NOT_OK(fn(buffer_.data() + size_t{idx} * rec_bytes_ + 16));
      }
      buffer_.clear();
      buffered_ = 0;
      return Status::OK();
    }
    if (buffered_ > 0) STPQ_RETURN_NOT_OK(SpillRun());
    const size_t fan_in = static_cast<size_t>(
        std::clamp<uint64_t>(budget_ / (64 * 1024), 2, 64));
    // Reduction rounds: merge groups of fan_in runs into single runs
    // until one streaming pass can take them all.
    while (runs_.size() > fan_in) {
      std::vector<std::string> next;
      for (size_t i = 0; i < runs_.size(); i += fan_in) {
        const size_t end = std::min(runs_.size(), i + fan_in);
        if (end - i == 1) {
          next.push_back(runs_[i]);
          continue;
        }
        std::vector<std::string> group(runs_.begin() + i, runs_.begin() + end);
        std::string merged = NextRunPath();
        STPQ_RETURN_NOT_OK(MergeToRun(group, merged));
        next.push_back(std::move(merged));
      }
      runs_ = std::move(next);
      ++merge_passes_;
    }
    ++merge_passes_;  // the final streaming merge
    std::vector<std::string> last = std::move(runs_);
    runs_.clear();
    return MergeToSink(last, fn);
  }

  [[nodiscard]] uint64_t runs_written() const { return runs_written_; }
  [[nodiscard]] uint64_t merge_passes() const { return merge_passes_; }
  [[nodiscard]] uint64_t spilled_bytes() const { return spilled_bytes_; }

 private:
  /// Buffered reader over one sorted run file.
  class RunReader {
   public:
    RunReader(std::string path, uint32_t rec_bytes, size_t buf_records)
        : path_(std::move(path)),
          rec_bytes_(rec_bytes),
          in_(path_, std::ios::binary),
          buf_(std::max<size_t>(1, buf_records) * rec_bytes) {}

    [[nodiscard]] Status Open() {
      if (!in_.is_open()) {
        return Status::IoError("cannot open bulk-load run: " + path_);
      }
      return Refill();
    }

    [[nodiscard]] bool HasRecord() const { return pos_ < filled_; }
    [[nodiscard]] const char* Record() const { return buf_.data() + pos_; }
    [[nodiscard]] uint64_t Key() const { return PodAt(0); }
    [[nodiscard]] uint64_t Seq() const { return PodAt(8); }

    [[nodiscard]] Status Advance() {
      pos_ += rec_bytes_;
      if (pos_ >= filled_) return Refill();
      return Status::OK();
    }

   private:
    uint64_t PodAt(size_t off) const {
      uint64_t v = 0;
      std::memcpy(&v, buf_.data() + pos_ + off, 8);
      return v;
    }

    [[nodiscard]] Status Refill() {
      pos_ = 0;
      filled_ = 0;
      if (in_.eof()) return Status::OK();
      in_.read(buf_.data(), static_cast<std::streamsize>(buf_.size()));
      if (in_.bad()) {
        return Status::IoError("bulk-load run read failed: " + path_);
      }
      filled_ = static_cast<size_t>(in_.gcount());
      if (filled_ % rec_bytes_ != 0) {
        return Status::IoError("bulk-load run truncated: " + path_);
      }
      return Status::OK();
    }

    std::string path_;
    uint32_t rec_bytes_;
    std::ifstream in_;
    std::vector<char> buf_;
    size_t pos_ = 0;
    size_t filled_ = 0;
  };

  std::string NextRunPath() {
    return run_prefix_ + ".run" + std::to_string(run_counter_++) + ".tmp";
  }

  std::vector<uint32_t> SortedOrder() const {
    std::vector<uint32_t> order(buffered_);
    for (uint64_t i = 0; i < buffered_; ++i) {
      order[i] = static_cast<uint32_t>(i);
    }
    const char* base = buffer_.data();
    const uint32_t rec = rec_bytes_;
    std::sort(order.begin(), order.end(), [base, rec](uint32_t a, uint32_t b) {
      uint64_t ka = 0, kb = 0, sa = 0, sb = 0;
      std::memcpy(&ka, base + size_t{a} * rec, 8);
      std::memcpy(&kb, base + size_t{b} * rec, 8);
      if (ka != kb) return ka < kb;
      std::memcpy(&sa, base + size_t{a} * rec + 8, 8);
      std::memcpy(&sb, base + size_t{b} * rec + 8, 8);
      return sa < sb;
    });
    return order;
  }

  [[nodiscard]] Status SpillRun() {
    const std::vector<uint32_t> order = SortedOrder();
    const std::string path = NextRunPath();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) {
      return Status::IoError("cannot create bulk-load run: " + path);
    }
    for (uint32_t idx : order) {
      out.write(buffer_.data() + size_t{idx} * rec_bytes_, rec_bytes_);
    }
    out.flush();
    if (!out.good()) {
      std::remove(path.c_str());
      return Status::IoError("bulk-load run write failed: " + path);
    }
    runs_.push_back(path);
    ++runs_written_;
    spilled_bytes_ += buffered_ * uint64_t{rec_bytes_};
    buffer_.clear();
    buffered_ = 0;
    return Status::OK();
  }

  /// K-way merge of sorted runs into `fn`, smallest (key, seq) first.
  [[nodiscard]] Status MergeToSink(
      const std::vector<std::string>& inputs,
      const std::function<Status(const char*)>& fn) {
    const size_t per_reader_bytes = static_cast<size_t>(std::max<uint64_t>(
        rec_bytes_,
        std::min<uint64_t>(budget_ / (2 * std::max<size_t>(1, inputs.size())),
                           uint64_t{4} << 20)));
    std::vector<RunReader> readers;
    readers.reserve(inputs.size());
    for (const std::string& path : inputs) {
      readers.emplace_back(path, rec_bytes_, per_reader_bytes / rec_bytes_);
      STPQ_RETURN_NOT_OK(readers.back().Open());
    }
    struct HeapItem {
      uint64_t key;
      uint64_t seq;
      size_t src;
    };
    // Min-heap on (key, seq) via the standard heap algorithms with a
    // reversed comparator.
    const auto later = [](const HeapItem& a, const HeapItem& b) {
      return a.key != b.key ? a.key > b.key : a.seq > b.seq;
    };
    std::vector<HeapItem> heap;
    heap.reserve(readers.size());
    for (size_t i = 0; i < readers.size(); ++i) {
      if (readers[i].HasRecord()) {
        heap.push_back({readers[i].Key(), readers[i].Seq(), i});
        std::push_heap(heap.begin(), heap.end(), later);
      }
    }
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), later);
      const size_t src = heap.back().src;
      heap.pop_back();
      RunReader& reader = readers[src];
      STPQ_RETURN_NOT_OK(fn(reader.Record() + 16));
      STPQ_RETURN_NOT_OK(reader.Advance());
      if (reader.HasRecord()) {
        heap.push_back({reader.Key(), reader.Seq(), src});
        std::push_heap(heap.begin(), heap.end(), later);
      }
    }
    for (const std::string& path : inputs) std::remove(path.c_str());
    return Status::OK();
  }

  [[nodiscard]] Status MergeToRun(const std::vector<std::string>& inputs,
                                  const std::string& out_path) {
    std::ofstream out(out_path, std::ios::binary | std::ios::trunc);
    if (!out.is_open()) {
      return Status::IoError("cannot create bulk-load run: " + out_path);
    }
    uint64_t merged_bytes = 0;
    Status st = MergeToSink(inputs, [&](const char* blob) -> Status {
      // The sink gets the blob; the run needs the full record.  The key
      // and seq sit immediately before the blob in the reader's buffer.
      out.write(blob - 16, rec_bytes_);
      if (!out.good()) {
        return Status::IoError("bulk-load run write failed: " + out_path);
      }
      merged_bytes += rec_bytes_;
      return Status::OK();
    });
    if (!st.ok()) {
      std::remove(out_path.c_str());
      return st;
    }
    out.flush();
    if (!out.good()) {
      std::remove(out_path.c_str());
      return Status::IoError("bulk-load run write failed: " + out_path);
    }
    ++runs_written_;
    spilled_bytes_ += merged_bytes;  // intermediate merges re-spill
    return Status::OK();
  }

  const uint32_t blob_bytes_;
  const uint32_t rec_bytes_;
  const uint64_t budget_;
  const std::string run_prefix_;
  uint64_t records_per_spill_ = 0;

  std::string buffer_;
  uint64_t buffered_ = 0;
  uint64_t seq_ = 0;
  std::vector<std::string> runs_;
  uint64_t run_counter_ = 0;
  uint64_t runs_written_ = 0;
  uint64_t merge_passes_ = 0;
  uint64_t spilled_bytes_ = 0;
};

// ------------------------------------------------------- survey + plan

struct TableSurvey {
  uint32_t universe = 0;
  uint64_t feature_count = 0;
  uint32_t vocab_terms = 0;
  TableSizes sizes;
  Rect4 srt_domain = Rect4::Empty();
  Rect2 ir2_domain = Rect2::Empty();
};

struct Survey {
  uint64_t object_count = 0;
  uint64_t objects_bytes = 0;
  Rect2 object_domain = Rect2::Empty();
  std::vector<TableSurvey> tables;
};

/// First pass: counts, segment sizes (the record encoders run through
/// counting writers) and sort domains.  The domains fold the leaf entries'
/// rects in dataset order, exactly as the in-memory builders'
/// ComputeDomain does.
Status RunSurvey(const std::string& dataset_path,
                 const IndexBuildParams& params, Survey* survey) {
  Result<DatasetBinaryScanner> scan_r = DatasetBinaryScanner::Open(dataset_path);
  if (!scan_r.ok()) return scan_r.status();
  DatasetBinaryScanner scan = scan_r.TakeValue();
  survey->object_count = scan.object_count();
  SegmentWriter objects;
  objects.Put(EncodeObjectsHeader, survey->object_count);
  uint32_t position = 0;
  STPQ_RETURN_NOT_OK(scan.ForEachObject([&](const DataObject& o) {
    objects.Put(EncodeObjectRecord, position++, o);
    survey->object_domain.Enlarge(PointRect(o.pos));
  }));
  survey->objects_bytes = objects.bytes();
  Result<uint32_t> tables_r = scan.ReadTableCount();
  if (!tables_r.ok()) return tables_r.status();
  if (tables_r.value() > kMaxTables) {
    return Status::InvalidArgument("too many feature tables to persist");
  }
  survey->tables.resize(tables_r.value());
  for (TableSurvey& t : survey->tables) {
    SegmentWriter vocab;
    vocab.Put(EncodeVocabularyHeader, 0u);  // fixed width; count comes later
    STPQ_RETURN_NOT_OK(scan.ForEachVocabTerm([&](const std::string& term) {
      ++t.vocab_terms;
      vocab.Put(EncodeVocabTerm, term);
    }));
    t.sizes.vocabulary = vocab.bytes();
    Result<DatasetBinaryScanner::TableHeader> h = scan.ReadTableHeader();
    if (!h.ok()) return h.status();
    t.universe = h.value().universe;
    t.feature_count = h.value().feature_count;
    if (t.feature_count > kMaxRecordCount) {
      return Status::InvalidArgument("feature table too large to persist");
    }
    SegmentWriter table;
    table.Put(EncodeFeatureTableHeader, t.universe, t.feature_count);
    position = 0;
    const bool srt = params.index_kind == FeatureIndexKind::kSrt;
    STPQ_RETURN_NOT_OK(scan.ForEachFeature(
        t.universe, t.feature_count, [&](const FeatureObject& f) {
          table.Put(EncodeFeatureRecord, position, f);
          if (srt) {
            t.srt_domain.Enlarge(SrtIndex::LeafEntry(f, position).rect);
          } else {
            t.ir2_domain.Enlarge(PointRect(f.pos));
          }
          ++position;
        }));
    t.sizes.features = table.bytes();
  }
  return Status::OK();
}

/// One tree's codec and packing shape, fixed before the content pass.
template <int D, typename Aug>
struct TreePlan {
  TreePlan(const TreeGeometry& geometry, uint64_t count, double fill)
      : codec(geometry),
        layout(ComputePackLayout(count, RTreeOptions{geometry}, fill)) {}

  TreeSegments Segments() const {
    return MakeTreeSegments(codec.geometry(), codec.slot_bytes(), layout.root,
                            layout.height, layout.entry_count,
                            layout.node_count);
  }

  NodeCodec<D, Aug> codec;
  PackLayout layout;
};

// -------------------------------------------------------- content pass

Status DatasetDrifted(const std::string& dataset_path) {
  return Status::IoError("dataset changed between bulk-load passes: " +
                         dataset_path);
}

std::string RunPrefix(const std::string& index_path,
                      const std::string& temp_dir, uint32_t ordinal) {
  std::string base = index_path;
  if (!temp_dir.empty()) {
    const size_t slash = index_path.find_last_of('/');
    base = temp_dir + "/" +
           (slash == std::string::npos ? index_path
                                       : index_path.substr(slash + 1));
  }
  return base + ".s" + std::to_string(ordinal);
}

/// Encodes a leaf entry into the sorter under its Hilbert sort key.
template <int D, typename Aug>
Status Feed(ExternalSorter* sorter, const NodeCodec<D, Aug>& codec,
            const typename RTree<D, Aug>::Entry& e, const Rect<D>& domain,
            std::string* blob) {
  blob->resize(codec.entry_bytes());
  codec.EncodeEntry(e, blob->data());
  return sorter->Add(HilbertSortKey<D>(e.rect, domain, kHilbertBitsPerDim),
                     blob->data());
}

/// Drains a sorter through the shared LevelPacker into the node slots of
/// tree `t`, then writes its metadata and both checksums.
template <int D, typename Aug>
Status PackTree(ExternalSorter* sorter, AtomicFile* out,
                const TreePlan<D, Aug>& tree, IndexPlan* plan, uint32_t t) {
  using Entry = typename RTree<D, Aug>::Entry;
  // Slots complete out of id order; each is encoded and written at its id.
  std::vector<char> slot(tree.codec.slot_bytes());
  const uint64_t base = plan->tree_nodes(t).offset;
  auto sink = [&](NodeId id, uint16_t level, std::span<const Entry> entries) {
    STPQ_RETURN_NOT_OK(tree.codec.EncodeSlot(level, entries, slot.data()));
    return out->WriteAt(base + uint64_t{id} * slot.size(), slot.data(),
                        slot.size());
  };
  LevelPacker<D, Aug, decltype(sink)> packer(tree.layout, sink);
  STPQ_RETURN_NOT_OK(sorter->Drain([&](const char* blob) {
    return packer.Add(tree.codec.DecodeEntry(blob));
  }));
  STPQ_RETURN_NOT_OK(packer.Finish());
  return FinishTree(out, plan, t);
}

}  // namespace

Result<ExternalBuildStats> BuildIndexFileExternal(
    const std::string& dataset_path, const std::string& index_path,
    const ExternalBuildOptions& options) {
  const IndexBuildParams& params = options.params;
  if (params.bulk_load != BulkLoadKind::kHilbert) {
    return Status::InvalidArgument(
        "external build supports only the hilbert bulk-load order");
  }
  if (params.page_size_bytes < kMinExternalPageSize) {
    return Status::InvalidArgument(
        "page_size_bytes must be >= " + std::to_string(kMinExternalPageSize));
  }
  if (options.memory_budget_bytes < kMinMemoryBudget) {
    return Status::InvalidArgument(
        "memory_budget_bytes must be at least " +
        std::to_string(kMinMemoryBudget));
  }

  ExternalBuildStats stats;

  // Phase 0: survey the dataset (counts, segment sizes, sort domains).
  Survey survey;
  {
    TraceSpan span(TraceEventType::kBuildPhase, 0);
    STPQ_RETURN_NOT_OK(RunSurvey(dataset_path, params, &survey));
  }
  if (survey.object_count > kMaxRecordCount) {
    return Status::InvalidArgument("too many objects to persist");
  }
  const uint32_t table_count = static_cast<uint32_t>(survey.tables.size());
  stats.objects = survey.object_count;
  stats.tables = table_count;
  for (const TableSurvey& t : survey.tables) stats.features += t.feature_count;

  // Plan every tree's geometry and packing, then every segment's offset.
  const uint32_t page = params.page_size_bytes;
  const bool srt = params.index_kind == FeatureIndexKind::kSrt;
  const TreePlan<2, NoAug> object_tree(ObjectIndex::Geometry(page),
                                       survey.object_count, params.fill);
  if (object_tree.layout.node_count > kMaxNodeCount) {
    return Status::InvalidArgument("object tree too large to persist");
  }
  std::vector<TreePlan<4, SrtAug>> srt_trees;
  std::vector<TreePlan<2, Ir2Aug>> ir2_trees;
  std::vector<TableSizes> sizes;
  std::vector<TreeSegments> trees{object_tree.Segments()};
  for (const TableSurvey& t : survey.tables) {
    if (srt) {
      srt_trees.emplace_back(SrtIndex::Geometry(page, t.universe),
                             t.feature_count, params.fill);
      trees.push_back(srt_trees.back().Segments());
    } else {
      ir2_trees.emplace_back(
          Ir2Tree::Geometry(page, params.signature_bits, t.universe),
          t.feature_count, params.fill);
      trees.push_back(ir2_trees.back().Segments());
    }
    if (trees.back().slot_count > kMaxNodeCount) {
      return Status::InvalidArgument("feature tree too large to persist");
    }
    sizes.push_back(t.sizes);
  }
  IndexPlan plan(page, survey.objects_bytes, sizes, std::move(trees));

  Result<AtomicFile> out_r = AtomicFile::Create(index_path);
  if (!out_r.ok()) return out_r.status();
  AtomicFile out = out_r.TakeValue();

  const uint64_t budget = options.memory_budget_bytes;
  uint32_t sorter_ordinal = 0;
  auto account = [&stats](const ExternalSorter& sorter) {
    stats.runs_written += sorter.runs_written();
    stats.merge_passes += sorter.merge_passes();
    stats.spilled_bytes += sorter.spilled_bytes();
  };

  // The content pass re-scans the dataset once; one sequential scanner
  // feeds phase 1 (objects) and phase 2 (tables) in file order.
  Result<DatasetBinaryScanner> scan_r =
      DatasetBinaryScanner::Open(dataset_path);
  if (!scan_r.ok()) return scan_r.status();
  DatasetBinaryScanner scan = scan_r.TakeValue();
  if (scan.object_count() != survey.object_count) {
    return DatasetDrifted(dataset_path);
  }

  // Phase 1: stream the objects segment and pack the object tree.
  {
    TraceSpan span(TraceEventType::kBuildPhase, 1, survey.object_count);
    SegmentWriter seg(&out, plan.objects().offset);
    ExternalSorter sorter(
        object_tree.codec.entry_bytes(), budget,
        RunPrefix(index_path, options.temp_dir, sorter_ordinal++));
    seg.Put(EncodeObjectsHeader, survey.object_count);
    uint64_t position = 0;
    std::string blob;
    Status feed = Status::OK();
    STPQ_RETURN_NOT_OK(scan.ForEachObject([&](const DataObject& o) {
      if (!feed.ok()) return;
      // Ids are reassigned to positions, as Engine::Build does before Save.
      const uint32_t id = static_cast<uint32_t>(position++);
      seg.Put(EncodeObjectRecord, id, o);
      feed = Feed(&sorter, object_tree.codec,
                  RTree<2, NoAug>::Entry{PointRect(o.pos), id, {}},
                  survey.object_domain, &blob);
    }));
    STPQ_RETURN_NOT_OK(feed);
    if (position != survey.object_count) return DatasetDrifted(dataset_path);
    STPQ_RETURN_NOT_OK(seg.Finish(&plan.objects()));
    STPQ_RETURN_NOT_OK(PackTree(&sorter, &out, object_tree, &plan, 0));
    account(sorter);
  }

  // Phase 2: per table, stream vocabulary + feature records and pack the
  // feature tree.  One sorter lives at a time, so each gets the whole
  // budget.
  {
    TraceSpan span(TraceEventType::kBuildPhase, 2, stats.features);
    Result<uint32_t> tables_r = scan.ReadTableCount();
    if (!tables_r.ok()) return tables_r.status();
    if (tables_r.value() != table_count) return DatasetDrifted(dataset_path);
    for (uint32_t i = 0; i < table_count; ++i) {
      const TableSurvey& t = survey.tables[i];

      SegmentWriter vocab(&out, plan.vocabulary(i).offset);
      vocab.Put(EncodeVocabularyHeader, t.vocab_terms);
      uint32_t terms = 0;
      STPQ_RETURN_NOT_OK(scan.ForEachVocabTerm([&](const std::string& term) {
        ++terms;
        vocab.Put(EncodeVocabTerm, term);
      }));
      if (terms != t.vocab_terms) return DatasetDrifted(dataset_path);
      STPQ_RETURN_NOT_OK(vocab.Finish(&plan.vocabulary(i)));

      Result<DatasetBinaryScanner::TableHeader> h = scan.ReadTableHeader();
      if (!h.ok()) return h.status();
      if (h.value().universe != t.universe ||
          h.value().feature_count != t.feature_count) {
        return DatasetDrifted(dataset_path);
      }

      SegmentWriter table(&out, plan.table(i).offset);
      table.Put(EncodeFeatureTableHeader, t.universe, t.feature_count);
      const auto pack = [&](const auto& tree, const auto& domain,
                            const auto& leaf_entry) -> Status {
        ExternalSorter sorter(
            tree.codec.entry_bytes(), budget,
            RunPrefix(index_path, options.temp_dir, sorter_ordinal++));
        uint64_t position = 0;
        std::string blob;
        Status feed = Status::OK();
        STPQ_RETURN_NOT_OK(scan.ForEachFeature(
            t.universe, t.feature_count, [&](const FeatureObject& f) {
              if (!feed.ok()) return;
              // FeatureTable reassigns ids to positions on construction.
              const uint32_t id = static_cast<uint32_t>(position++);
              table.Put(EncodeFeatureRecord, id, f);
              feed = Feed(&sorter, tree.codec, leaf_entry(f, id), domain,
                          &blob);
            }));
        STPQ_RETURN_NOT_OK(feed);
        if (position != t.feature_count) return DatasetDrifted(dataset_path);
        STPQ_RETURN_NOT_OK(table.Finish(&plan.table(i)));
        STPQ_RETURN_NOT_OK(PackTree(&sorter, &out, tree, &plan, i + 1));
        account(sorter);
        return Status::OK();
      };
      if (srt) {
        STPQ_RETURN_NOT_OK(
            pack(srt_trees[i], t.srt_domain, SrtIndex::LeafEntry));
      } else {
        const SignatureScheme scheme(ir2_trees[i].codec.geometry().aug_bits,
                                     params.signature_hashes);
        STPQ_RETURN_NOT_OK(pack(
            ir2_trees[i], t.ir2_domain,
            [&scheme](const FeatureObject& f, uint32_t id) {
              return Ir2Tree::LeafEntry(scheme, f, id);
            }));
      }
    }
  }

  // Phase 3: header (superblock + catalog with the final checksums),
  // exact file size, durable commit.
  {
    TraceSpan span(TraceEventType::kBuildPhase, 3);
    STPQ_RETURN_NOT_OK(
        CommitIndexFile(&out, params, survey.object_count, plan));
  }
  stats.output_bytes = plan.file_end();

  MetricsRegistry& metrics = MetricsRegistry::Global();
  metrics
      .GetCounter("stpq_bulk_runs_written_total",
                  "Sorted run files written by external bulk loads")
      .Increment(stats.runs_written);
  metrics
      .GetCounter("stpq_bulk_merge_passes_total",
                  "Merge passes performed by external bulk loads")
      .Increment(stats.merge_passes);
  metrics
      .GetCounter("stpq_bulk_spilled_bytes_total",
                  "Bytes spilled to sorted runs by external bulk loads")
      .Increment(stats.spilled_bytes);
  return stats;
}

}  // namespace stpq

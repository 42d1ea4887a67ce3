#include "index/srt_index.h"

#include "debug/validate.h"
#include "rtree/bulk_load.h"

namespace stpq {

TreeGeometry SrtIndex::Geometry(uint32_t page_size_bytes,
                                uint32_t universe_size) {
  // Aug bytes: 8 (max score) + the aggregated Hilbert value, one bit per
  // keyword of the universe.
  TreeGeometry g;
  g.aug_bits = universe_size;
  g.aug_words = (universe_size + 63) / 64;
  g.aug_bytes = 8 + 8 * g.aug_words;
  g.max_entries = FanOutForPage(page_size_bytes, 4, g.aug_bytes);
  g.page_size = page_size_bytes;
  return g;
}

RTree<4, SrtAug>::Entry SrtIndex::LeafEntry(const FeatureObject& f,
                                            uint32_t id) {
  HilbertValue hv = EncodeKeywords(f.keywords);
  const std::array<double, 4> p{f.pos.x, f.pos.y, f.score,
                                hv.ToUnitDouble()};
  return {Rect4::FromPoint(p), id, SrtAug{f.score, std::move(hv)}};
}

SrtIndex::SrtIndex(const FeatureTable* table,
                   const FeatureIndexOptions& options,
                   std::optional<RestoredTreeData> restored)
    : FeatureIndex(options.set_ordinal),
      table_(table),
      build_kind_(options.bulk_load),
      tree_(TreeOptionsFor(
          options, Geometry(options.page_size_bytes, table->universe_size()))) {
  if (restored.has_value()) {
    tree_.Adopt(std::move(*restored));
    STPQ_VALIDATE(ValidateSrtIndex(*this));
    return;
  }
  using Entry = RTree<4, SrtAug>::Entry;
  std::vector<Entry> records;
  records.reserve(table_->size());
  for (const FeatureObject& f : table_->All()) {
    records.push_back(LeafEntry(f, f.id));
  }
  // Bulk insertion [9] sorts by the Hilbert key of the mapped 4-D point.
  BuildTree(&tree_, &records, options.bulk_load, options.fill);
  STPQ_VALIDATE(ValidateSrtIndex(*this));
}

NodeId SrtIndex::RootId() const { return tree_.root_id(); }

BufferPool* SrtIndex::buffer_pool() const {
  return tree_.options().buffer_pool;
}

void SrtIndex::VisitChildren(NodeId node_id, const KeywordSet& query_kw,
                             double lambda,
                             std::vector<FeatureBranch>* out) const {
  out->clear();
  const RTree<4, SrtAug>::View node = tree_.ReadNode(node_id);
  const uint32_t n = node.count();
  out->resize(n);
  FeatureBranch* branches = out->data();
  for (uint32_t i = 0; i < n; ++i) {
    FeatureBranch& b = branches[i];
    b.id = node.id(i);
    // Spatial projection of the 4-D MBR.
    const Rect4 r = node.rect(i);
    b.mbr = Rect2{{r.lo[0], r.lo[1]}, {r.hi[0], r.hi[1]}};
  }
  if (node.IsLeaf()) {
    for (FeatureBranch& b : *out) {
      // Exact preference score s(t) (Definition 1).
      const FeatureObject& f = table_->Get(b.id);
      const double sim = f.keywords.Jaccard(query_kw);
      b.is_feature = true;
      b.score_bound = (1.0 - lambda) * f.score + lambda * sim;
      b.text_match = sim > 0.0;
    }
    return;
  }
  // |e.W n W| counted on the aggregated Hilbert words in place; the bound
  // uses |e.W n W| / |W| >= Jaccard.
  const uint32_t query_count = query_kw.Count();
  for (uint32_t i = 0; i < n; ++i) {
    FeatureBranch& b = branches[i];
    const uint32_t inter = HilbertIntersectCount(node.aug_words(i), query_kw);
    const double text_bound =
        query_count > 0
            ? static_cast<double>(inter) / static_cast<double>(query_count)
            : 0.0;
    b.is_feature = false;
    b.score_bound = (1.0 - lambda) * node.max_score(i) + lambda * text_bound;
    b.text_match = inter > 0;
  }
}

}  // namespace stpq

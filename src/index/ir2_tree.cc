#include "index/ir2_tree.h"

#include "debug/validate.h"
#include "rtree/bulk_load.h"

namespace stpq {

namespace {

TreeGeometry GeometryFor(const FeatureIndexOptions& options,
                         const FeatureTable& table) {
  return Ir2Tree::Geometry(options.page_size_bytes, options.signature_bits,
                           table.universe_size());
}

}  // namespace

TreeGeometry Ir2Tree::Geometry(uint32_t page_size_bytes,
                               uint32_t signature_bits,
                               uint32_t universe_size) {
  TreeGeometry g;
  // The signature must scale with the vocabulary so that larger keyword
  // universes preserve selectivity (the paper's Fig 7(d) observes node
  // capacity dropping with more indexed keywords for both indexes).
  g.aug_bits = signature_bits != 0 ? signature_bits
                                   : std::max(64u, 2 * universe_size);
  g.aug_words = (g.aug_bits + 63) / 64;
  // Persisted: max score + the signature padded to whole words.  The
  // fan-out charges only the raw signature bytes.
  g.aug_bytes = 8 + 8 * g.aug_words;
  g.max_entries = FanOutForPage(page_size_bytes, 2, 8 + g.aug_bits / 8);
  g.page_size = page_size_bytes;
  return g;
}

RTree<2, Ir2Aug>::Entry Ir2Tree::LeafEntry(const SignatureScheme& scheme,
                                           const FeatureObject& f,
                                           uint32_t id) {
  return {PointRect(f.pos), id,
          Ir2Aug{f.score, scheme.SetSignature(f.keywords)}};
}

Ir2Tree::Ir2Tree(const FeatureTable* table, const FeatureIndexOptions& options,
                 std::optional<RestoredTreeData> restored)
    : FeatureIndex(options.set_ordinal),
      table_(table),
      scheme_(GeometryFor(options, *table).aug_bits, options.signature_hashes),
      tree_(TreeOptionsFor(options, GeometryFor(options, *table))) {
  if (restored.has_value()) {
    tree_.Adopt(std::move(*restored));
    STPQ_VALIDATE(ValidateIr2Tree(*this));
    return;
  }
  using Entry = RTree<2, Ir2Aug>::Entry;
  std::vector<Entry> records;
  records.reserve(table_->size());
  for (const FeatureObject& f : table_->All()) {
    records.push_back(LeafEntry(scheme_, f, f.id));
  }
  // Spatial-only Hilbert packing: the IR2-tree clusters by location.
  BuildTree(&tree_, &records, options.bulk_load, options.fill);
  STPQ_VALIDATE(ValidateIr2Tree(*this));
}

NodeId Ir2Tree::RootId() const { return tree_.root_id(); }

BufferPool* Ir2Tree::buffer_pool() const {
  return tree_.options().buffer_pool;
}

void Ir2Tree::VisitChildren(NodeId node_id, const KeywordSet& query_kw,
                            double lambda,
                            std::vector<FeatureBranch>* out) const {
  out->clear();
  const RTree<2, Ir2Aug>::View node = tree_.ReadNode(node_id);
  const uint32_t n = node.count();
  out->resize(n);
  FeatureBranch* branches = out->data();
  for (uint32_t i = 0; i < n; ++i) {
    branches[i].id = node.id(i);
    branches[i].mbr = node.rect(i);
  }
  if (node.IsLeaf()) {
    for (FeatureBranch& b : *out) {
      const FeatureObject& f = table_->Get(b.id);
      const double sim = f.keywords.Jaccard(query_kw);
      b.is_feature = true;
      b.score_bound = (1.0 - lambda) * f.score + lambda * sim;
      b.text_match = sim > 0.0;
    }
    return;
  }
  const uint32_t query_count = query_kw.Count();
  for (uint32_t i = 0; i < n; ++i) {
    FeatureBranch& b = branches[i];
    // The signature words are read in place from the slot.
    const uint32_t inter =
        scheme_.UpperBoundIntersect(node.aug_words(i), query_kw);
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

// The SRT-index (Section 4): an R-tree over the mapped 4-D space
// (x, y, t.s, H(t.W)) whose entries keep the max descendant score and the
// aggregated Hilbert value of all descendant keywords.
//
// Because the index clusters by spatial location, score AND textual
// description simultaneously, the bound
//   s-hat(e) = (1-lambda) * e.s + lambda * |e.W n W| / |W|
// is tight, which is what makes STPS's sorted feature retrieval cheap.
#ifndef STPQ_INDEX_SRT_INDEX_H_
#define STPQ_INDEX_SRT_INDEX_H_

#include <memory>
#include <optional>
#include <vector>

#include "hilbert/keyword_hilbert.h"
#include "index/feature_index.h"
#include "rtree/bulk_load.h"
#include "rtree/rtree.h"

namespace stpq {

/// Build-time knobs shared by the feature indexes.
struct FeatureIndexOptions {
  uint32_t page_size_bytes = kDefaultPageSizeBytes;
  BufferPool* buffer_pool = nullptr;
  PageId page_base = 0;
  BulkLoadKind bulk_load = BulkLoadKind::kHilbert;
  double fill = 1.0;  ///< target node occupancy for bulk loading
  /// IR2-tree only: signature width in bits (0 = 2x the keyword universe).
  uint32_t signature_bits = 0;
  /// IR2-tree only: bits set per keyword.
  uint32_t signature_hashes = 3;
  /// Position of this index's feature set in the engine's table order
  /// (traversal-profile attribution; see FeatureIndex::set_ordinal).
  uint32_t set_ordinal = 0;
};

/// Entry augmentation of the SRT-index: e.s and H(e.W) of Section 4.1.
///
/// The aggregated Hilbert value is what the paper's node entry stores (and
/// what the fan-out accounting charges).  Queries bound |e.W n W| on its
/// words in place (HilbertIntersectCount), so no decoded keyword set is
/// kept; Merge updates the value exactly as Section 4.2 updates it.
struct SrtAug {
  double max_score = 0.0;
  HilbertValue keyword_hilbert;

  static SrtAug Merge(const SrtAug& a, const SrtAug& b) {
    return SrtAug{std::max(a.max_score, b.max_score),
                  AggregateHilbert(a.keyword_hilbert, b.keyword_hilbert,
                                   a.keyword_hilbert.bits())};
  }
};

/// SrtAug's slot payload: {max score, aggregated Hilbert words}.
template <>
struct AugCodec<SrtAug> : ScoredWordsCodec {
  static void Encode(const TreeGeometry& g, const SrtAug& aug, char* out) {
    Put(g, aug.max_score, aug.keyword_hilbert.words(), out);
  }
  static SrtAug Decode(const TreeGeometry& g, const char* in) {
    SrtAug aug{MaxScore(in), HilbertValue(g.aug_bits)};
    aug.keyword_hilbert.words() = CopyWords(g, in);
    return aug;
  }
};

/// The SRT-index over one feature set.
class SrtIndex : public FeatureIndex {
 public:
  /// Builds the index over `table` (not owned; must outlive the index).
  /// Given `restored` (io/index_file.*), adopts that persisted tree
  /// instead, so node ids — and the golden I/O counts derived from them —
  /// match the builder exactly; `options` must then carry the build-time
  /// parameters recorded in the file.
  SrtIndex(const FeatureTable* table, const FeatureIndexOptions& options,
           std::optional<RestoredTreeData> restored = std::nullopt);

  /// Page geometry over a keyword universe of `universe_size` terms.
  static TreeGeometry Geometry(uint32_t page_size_bytes,
                               uint32_t universe_size);

  /// Leaf entry of feature `f` under record id `id`: the mapped 4-D point
  /// of Section 4.2, {x, y, score, H(W)}.
  static RTree<4, SrtAug>::Entry LeafEntry(const FeatureObject& f,
                                           uint32_t id);

  NodeId RootId() const override;
  uint16_t NodeLevel(NodeId node_id) const override {
    return tree_.PeekView(node_id).level();
  }
  void VisitChildren(NodeId node_id, const KeywordSet& query_kw,
                     double lambda,
                     std::vector<FeatureBranch>* out) const override;
  const FeatureTable& table() const override { return *table_; }
  BufferPool* buffer_pool() const override;
  const char* Name() const override { return "SRT"; }

  /// Underlying tree (tests and ablations).
  const RTree<4, SrtAug>& tree() const { return tree_; }

  /// How the tree was packed; ValidateSrtIndex checks the Hilbert leaf
  /// order only for kHilbert builds.
  [[nodiscard]] BulkLoadKind build_kind() const { return build_kind_; }

  /// Mutable tree access for deliberate-corruption invariant tests (and
  /// the Guttman delete fixtures) only.
  [[nodiscard]] RTree<4, SrtAug>& mutable_tree_for_test() { return tree_; }

 private:
  const FeatureTable* table_;
  BulkLoadKind build_kind_;
  RTree<4, SrtAug> tree_;
};

}  // namespace stpq

#endif  // STPQ_INDEX_SRT_INDEX_H_

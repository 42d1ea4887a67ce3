// Tests for debug/validate.h: every deep validator accepts freshly built
// structures and names the violated invariant after deliberate corruption.
// The negative tests corrupt internals through the *_for_test accessors —
// for the R-trees, by decoding a node, editing it and encoding it back into
// its slot — and expect a descriptive non-OK Status — never a crash.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include <filesystem>

#include "core/engine.h"
#include "debug/validate.h"
#include "gen/synthetic.h"
#include "hilbert/keyword_hilbert.h"
#include "index/ir2_tree.h"
#include "index/object_index.h"
#include "index/srt_index.h"
#include "storage/buffer_pool.h"

namespace stpq {
namespace {

/// Small clustered dataset; page_size 512 keeps the fan-out low so the
/// trees have real internal levels at a few hundred records.
Dataset MakeDataset() {
  SyntheticConfig cfg;
  cfg.num_objects = 300;
  cfg.num_features_per_set = 300;
  cfg.num_feature_sets = 1;
  cfg.vocabulary_size = 24;
  cfg.num_clusters = 40;
  return GenerateSynthetic(cfg);
}

FeatureIndexOptions SmallPages() {
  FeatureIndexOptions opts;
  opts.page_size_bytes = 512;
  return opts;
}

/// Id of the leftmost leaf node.
template <int D, typename Aug>
NodeId FirstLeaf(const RTree<D, Aug>& tree) {
  NodeId nid = tree.root_id();
  while (!tree.PeekNode(nid).IsLeaf()) {
    nid = tree.PeekNode(nid).entries.front().id;
  }
  return nid;
}

// ----------------------------------------------------------- positive paths

TEST(SrtValidatorTest, AcceptsEveryBuildKind) {
  Dataset ds = MakeDataset();
  for (BulkLoadKind kind :
       {BulkLoadKind::kHilbert, BulkLoadKind::kStr, BulkLoadKind::kInsert}) {
    FeatureIndexOptions opts = SmallPages();
    opts.bulk_load = kind;
    SrtIndex index(&ds.feature_tables[0], opts);
    Status st = ValidateSrtIndex(index);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
}

TEST(Ir2ValidatorTest, AcceptsEveryBuildKind) {
  Dataset ds = MakeDataset();
  for (BulkLoadKind kind :
       {BulkLoadKind::kHilbert, BulkLoadKind::kStr, BulkLoadKind::kInsert}) {
    FeatureIndexOptions opts = SmallPages();
    opts.bulk_load = kind;
    Ir2Tree index(&ds.feature_tables[0], opts);
    Status st = ValidateIr2Tree(index);
    EXPECT_TRUE(st.ok()) << st.ToString();
  }
}

TEST(ObjectIndexValidatorTest, AcceptsFreshIndex) {
  Dataset ds = MakeDataset();
  ObjectIndexOptions opts;
  opts.page_size_bytes = 512;
  ObjectIndex index(&ds.objects, opts);
  ASSERT_GE(index.tree().height(), 2u);  // corruption tests need depth
  Status st = ValidateObjectIndex(index);
  EXPECT_TRUE(st.ok()) << st.ToString();
}

// --------------------------------------------------- R-tree structure faults

TEST(RTreeValidatorTest, DetectsLooseParentMbr) {
  Dataset ds = MakeDataset();
  ObjectIndexOptions opts;
  opts.page_size_bytes = 512;
  ObjectIndex index(&ds.objects, opts);
  const NodeId root_id = index.tree().root_id();
  auto root = index.tree().PeekNode(root_id);
  root.entries[0].rect.hi[0] += 0.25;
  index.mutable_tree_for_test().OverwriteNodeForTest(root_id, root);
  Status st = ValidateObjectIndex(index);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("union"), std::string::npos) << st.ToString();
  EXPECT_NE(st.message().find("root"), std::string::npos) << st.ToString();
}

TEST(RTreeValidatorTest, DetectsSharedSubtree) {
  Dataset ds = MakeDataset();
  ObjectIndexOptions opts;
  opts.page_size_bytes = 512;
  ObjectIndex index(&ds.objects, opts);
  const NodeId root_id = index.tree().root_id();
  auto root = index.tree().PeekNode(root_id);
  ASSERT_GE(root.entries.size(), 2u);
  root.entries[1] = root.entries[0];  // two entries now share one child
  index.mutable_tree_for_test().OverwriteNodeForTest(root_id, root);
  Status st = ValidateObjectIndex(index);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("two paths"), std::string::npos)
      << st.ToString();
}

TEST(RTreeValidatorTest, DetectsLeafRecordBijectionBreak) {
  Dataset ds = MakeDataset();
  ObjectIndexOptions opts;
  opts.page_size_bytes = 512;
  ObjectIndex index(&ds.objects, opts);
  const NodeId leaf = FirstLeaf(index.tree());
  auto node = index.tree().PeekNode(leaf);
  ASSERT_GE(node.entries.size(), 2u);
  // Overwrite an entry strictly inside the leaf MBR with a copy of entry 0
  // (id and rect together): the parent MBR stays exact and every entry
  // still matches its object, so the duplicated id is the only fault left.
  Rect2 mbr = node.entries.front().rect;
  for (const auto& e : node.entries) mbr.Enlarge(e.rect);
  size_t victim = 0;
  for (size_t i = 1; i < node.entries.size(); ++i) {
    const Rect2& r = node.entries[i].rect;
    if (r.lo[0] > mbr.lo[0] && r.hi[0] < mbr.hi[0] && r.lo[1] > mbr.lo[1] &&
        r.hi[1] < mbr.hi[1]) {
      victim = i;
      break;
    }
  }
  ASSERT_NE(victim, 0u) << "no interior leaf entry to corrupt";
  node.entries[victim] = node.entries[0];
  index.mutable_tree_for_test().OverwriteNodeForTest(leaf, node);
  Status st = ValidateObjectIndex(index);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("appears"), std::string::npos) << st.ToString();
}

// ------------------------------------------------------- SRT-specific faults

TEST(SrtValidatorTest, DetectsScoreBoundViolation) {
  Dataset ds = MakeDataset();
  SrtIndex index(&ds.feature_tables[0], SmallPages());
  ASSERT_GE(index.tree().height(), 2u);
  const NodeId root_id = index.tree().root_id();
  auto root = index.tree().PeekNode(root_id);
  root.entries[0].aug.max_score = -1.0;  // no longer an upper bound
  index.mutable_tree_for_test().OverwriteNodeForTest(root_id, root);
  Status st = ValidateSrtIndex(index);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("dominate"), std::string::npos)
      << st.ToString();
}

TEST(SrtValidatorTest, DetectsKeywordSupersetViolation) {
  Dataset ds = MakeDataset();
  SrtIndex index(&ds.feature_tables[0], SmallPages());
  ASSERT_GE(index.tree().height(), 2u);
  const NodeId root_id = index.tree().root_id();
  auto root = index.tree().PeekNode(root_id);
  // Consistently empty keyword summary: the entry is self-consistent but no
  // longer covers its descendants.
  KeywordSet empty(ds.feature_tables[0].universe_size());
  root.entries[0].aug.keyword_hilbert = EncodeKeywords(empty);
  index.mutable_tree_for_test().OverwriteNodeForTest(root_id, root);
  Status st = ValidateSrtIndex(index);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("superset"), std::string::npos)
      << st.ToString();
}

TEST(SrtValidatorTest, DetectsNonCanonicalHilbertValue) {
  Dataset ds = MakeDataset();
  SrtIndex index(&ds.feature_tables[0], SmallPages());
  const uint32_t universe = ds.feature_tables[0].universe_size();
  ASSERT_NE(universe % 64, 0u) << "needs tail bits past the universe";
  const NodeId root_id = index.tree().root_id();
  auto root = index.tree().PeekNode(root_id);
  // A bit past the universe: the value still decodes to the same keyword
  // set, but it is no longer that set's encoding.
  root.entries[0].aug.keyword_hilbert.words().back() |= 1u;
  index.mutable_tree_for_test().OverwriteNodeForTest(root_id, root);
  Status st = ValidateSrtIndex(index);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("canonical"), std::string::npos)
      << st.ToString();
}

TEST(SrtValidatorTest, DetectsHilbertLeafOrderViolation) {
  Dataset ds = MakeDataset();
  SrtIndex index(&ds.feature_tables[0], SmallPages());
  ASSERT_EQ(index.build_kind(), BulkLoadKind::kHilbert);
  const NodeId leaf = FirstLeaf(index.tree());
  auto node = index.tree().PeekNode(leaf);
  ASSERT_GE(node.entries.size(), 2u);
  std::swap(node.entries.front(), node.entries.back());
  index.mutable_tree_for_test().OverwriteNodeForTest(leaf, node);
  Status st = ValidateSrtIndex(index);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("Hilbert"), std::string::npos)
      << st.ToString();
}

TEST(SrtValidatorTest, DetectsLeafTableMismatch) {
  Dataset ds = MakeDataset();
  SrtIndex index(&ds.feature_tables[0], SmallPages());
  const NodeId leaf = FirstLeaf(index.tree());
  auto node = index.tree().PeekNode(leaf);
  // Lowering the cached score cannot trip the dominance check on the way
  // down, so the leaf/table comparison is what must catch it.
  node.entries[0].aug.max_score = -0.5;
  index.mutable_tree_for_test().OverwriteNodeForTest(leaf, node);
  Status st = ValidateSrtIndex(index);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("feature score"), std::string::npos)
      << st.ToString();
}

// ------------------------------------------------------- IR2-specific faults

TEST(Ir2ValidatorTest, DetectsSignatureCoverageViolation) {
  Dataset ds = MakeDataset();
  Ir2Tree index(&ds.feature_tables[0], SmallPages());
  ASSERT_GE(index.tree().height(), 2u);
  const NodeId root_id = index.tree().root_id();
  auto root = index.tree().PeekNode(root_id);
  // All-zero signature: structurally valid width but covers nothing, which
  // would make queries silently skip matching subtrees.
  root.entries[0].aug.signature = Signature(index.scheme().signature_bits());
  index.mutable_tree_for_test().OverwriteNodeForTest(root_id, root);
  Status st = ValidateIr2Tree(index);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("cover"), std::string::npos) << st.ToString();
}

TEST(Ir2ValidatorTest, DetectsLeafSignatureMismatch) {
  Dataset ds = MakeDataset();
  Ir2Tree index(&ds.feature_tables[0], SmallPages());
  const NodeId leaf = FirstLeaf(index.tree());
  auto node = index.tree().PeekNode(leaf);
  node.entries[0].aug.signature = Signature(index.scheme().signature_bits());
  index.mutable_tree_for_test().OverwriteNodeForTest(leaf, node);
  Status st = ValidateIr2Tree(index);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("signature"), std::string::npos)
      << st.ToString();
}

// ------------------------------------------------------- buffer pool faults

TEST(BufferPoolValidatorTest, AcceptsHealthyPool) {
  BufferPool pool(4);
  for (PageId p = 0; p < 10; ++p) pool.Access(p);
  ASSERT_TRUE(pool.Pin(9).ok());
  Status st = ValidateBufferPool(pool);
  EXPECT_TRUE(st.ok()) << st.ToString();
  ASSERT_TRUE(pool.Unpin(9).ok());
}

TEST(BufferPoolValidatorTest, DetectsBrokenPageTable) {
  BufferPool pool(4);
  pool.Access(1);
  pool.Access(2);
  BufferPool::Corrupter::DropTableEntry(&pool, 1);
  Status st = ValidateBufferPool(pool);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("page table"), std::string::npos)
      << st.ToString();
}

TEST(BufferPoolValidatorTest, DetectsBrokenLruBackLink) {
  BufferPool pool(4);
  pool.Access(1);
  pool.Access(2);
  BufferPool::Corrupter::BreakLruBackLink(&pool);
  Status st = ValidateBufferPool(pool);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("back-link"), std::string::npos)
      << st.ToString();
}

// ------------------------------------------------- reopened-index validation

// A .stpqx round trip must restore trees the deep validators accept: MBR
// containment, augment bounds, leaf/record bijections — everything checked
// on a built index holds verbatim on the reopened image.
TEST(ReopenedIndexValidatorTest, DeepValidatorsAcceptReopenedIndexes) {
  SyntheticConfig cfg;
  cfg.seed = 21;
  cfg.num_objects = 300;
  cfg.num_features_per_set = 300;
  cfg.num_feature_sets = 2;
  cfg.vocabulary_size = 32;
  cfg.num_clusters = 16;
  for (FeatureIndexKind kind :
       {FeatureIndexKind::kSrt, FeatureIndexKind::kIr2}) {
    Dataset ds = GenerateSynthetic(cfg);
    EngineOptions opts;
    opts.index_kind = kind;
    opts.storage.page_size = 256;
    Engine built = Engine::Build(std::move(ds.objects),
                                 std::move(ds.feature_tables), opts)
                       .TakeValue();
    std::filesystem::path path =
        std::filesystem::temp_directory_path() /
        ("stpq_invariants_" + std::to_string(::getpid()) + ".stpqx");
    ASSERT_TRUE(built.Save(path.string()).ok());
    Result<Engine> reopened = Engine::Open(path.string());
    std::filesystem::remove(path);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();

    Status st = ValidateObjectIndex(reopened.value().object_index());
    EXPECT_TRUE(st.ok()) << st.ToString();
    for (size_t i = 0; i < reopened.value().num_feature_sets(); ++i) {
      const FeatureIndex& fi = reopened.value().feature_index(i);
      if (kind == FeatureIndexKind::kSrt) {
        const auto* srt = dynamic_cast<const SrtIndex*>(&fi);
        ASSERT_NE(srt, nullptr);
        st = ValidateSrtIndex(*srt);
      } else {
        const auto* ir2 = dynamic_cast<const Ir2Tree*>(&fi);
        ASSERT_NE(ir2, nullptr);
        st = ValidateIr2Tree(*ir2);
      }
      EXPECT_TRUE(st.ok()) << st.ToString();
    }
  }
}

TEST(BufferPoolValidatorTest, DetectsAdmissionCounterRollback) {
  BufferPool pool(4);
  pool.Access(1);
  pool.Access(2);
  BufferPool::Corrupter::RewindAdmissions(&pool);
  Status st = ValidateBufferPool(pool);
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("admissions"), std::string::npos)
      << st.ToString();
}

}  // namespace
}  // namespace stpq

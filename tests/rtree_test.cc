// Tests for rtree/: insertion, splits, bulk loading, invariants (through
// ValidateRTree), augmentation maintenance, and, through the object
// index's range query, traversal and I/O accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>

#include "debug/validate.h"
#include "index/object_index.h"
#include "rtree/bulk_load.h"
#include "rtree/rtree.h"
#include "util/rng.h"

namespace stpq {
namespace {

using Tree2 = RTree<2>;

std::vector<Tree2::Entry> RandomPoints(Rng* rng, int n) {
  std::vector<Tree2::Entry> out;
  out.reserve(n);
  for (int i = 0; i < n; ++i) {
    Point p{rng->Uniform(), rng->Uniform()};
    out.push_back({PointRect(p), static_cast<uint32_t>(i), {}});
  }
  return out;
}

/// Validates `tree` with ValidateRTree (uniform leaf depth, parent MBRs
/// the exact union of their children, every node reachable exactly once,
/// leaf count equal to size()) and returns its leaf records by id.
template <int D, typename Aug>
std::map<uint32_t, Rect<D>> ValidatedRecords(const RTree<D, Aug>& tree) {
  std::map<uint32_t, Rect<D>> records;
  auto no_summary = [](const auto&, const auto&) { return Status::OK(); };
  auto collect = [&](const typename RTree<D, Aug>::Entry& e, bool leaf) {
    if (leaf && !records.emplace(e.id, e.rect).second) {
      return Status::Internal("record " + std::to_string(e.id) +
                              " stored twice");
    }
    return Status::OK();
  };
  Status st = ValidateRTree<D, Aug>(tree, no_summary, collect);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return records;
}

/// The tree holds exactly the records `expect`, each under its own rect.
template <int D, typename Aug>
void ExpectRecords(const RTree<D, Aug>& tree,
                   const std::vector<typename RTree<D, Aug>::Entry>& expect) {
  const std::map<uint32_t, Rect<D>> got = ValidatedRecords(tree);
  ASSERT_EQ(got.size(), expect.size());
  for (const auto& e : expect) {
    auto it = got.find(e.id);
    ASSERT_NE(it, got.end()) << "record " << e.id << " missing";
    EXPECT_EQ(it->second.lo, e.rect.lo) << e.id;
    EXPECT_EQ(it->second.hi, e.rect.hi) << e.id;
  }
}

std::vector<DataObject> RandomObjects(Rng* rng, int n) {
  std::vector<DataObject> out(n);
  for (int i = 0; i < n; ++i) {
    out[i].id = static_cast<ObjectId>(i);
    out[i].pos = {rng->Uniform(), rng->Uniform()};
  }
  return out;
}

std::set<ObjectId> BruteCircle(const std::vector<DataObject>& objects,
                               const Point& center, double radius) {
  std::set<ObjectId> out;
  for (const DataObject& o : objects) {
    if (SquaredDistance(o.pos, center) <= radius * radius) out.insert(o.id);
  }
  return out;
}

std::set<ObjectId> IndexCircle(const ObjectIndex& index, const Point& center,
                               double radius) {
  const std::vector<ObjectId> hits = index.RangeQuery(center, radius);
  std::set<ObjectId> out(hits.begin(), hits.end());
  EXPECT_EQ(out.size(), hits.size()) << "an object reported twice";
  return out;
}

/// Object-index options whose pages hold `fanout` entries.
ObjectIndexOptions FanOutOptions(uint32_t fanout) {
  ObjectIndexOptions opts;
  opts.page_size_bytes = 16 + fanout * 36;  // see FanOutForPage
  EXPECT_EQ(ObjectIndex::Geometry(opts.page_size_bytes).max_entries, fanout);
  return opts;
}

TEST(RTreeTest, EmptyTree) {
  Tree2 tree;
  EXPECT_TRUE(tree.empty());
  EXPECT_EQ(tree.root_id(), kInvalidNodeId);
  EXPECT_TRUE(ValidatedRecords(tree).empty());
  const std::vector<DataObject> none;
  ObjectIndex index(&none, FanOutOptions(8));
  EXPECT_TRUE(IndexCircle(index, {0.5, 0.5}, 1.0).empty());
}

TEST(RTreeTest, SingleInsert) {
  Tree2 tree;
  tree.Insert(PointRect({0.5, 0.5}), 42);
  EXPECT_EQ(tree.size(), 1u);
  EXPECT_EQ(tree.height(), 1u);
  ExpectRecords(tree, {{PointRect({0.5, 0.5}), 42, {}}});
}

class RTreeInsertTest : public ::testing::TestWithParam<int> {};

TEST_P(RTreeInsertTest, InsertMatchesBruteForce) {
  const int n = GetParam();
  Rng rng(n);
  std::vector<Tree2::Entry> pts = RandomPoints(&rng, n);
  RTreeOptions opts;
  opts.geometry.max_entries = 8;
  Tree2 tree(opts);
  for (const auto& e : pts) tree.Insert(e.rect, e.id);
  EXPECT_EQ(tree.size(), static_cast<uint64_t>(n));
  ExpectRecords(tree, pts);
}

TEST_P(RTreeInsertTest, BulkLoadHilbertMatchesBruteForce) {
  const int n = GetParam();
  Rng rng(n + 1);
  std::vector<Tree2::Entry> pts = RandomPoints(&rng, n);
  RTreeOptions opts;
  opts.geometry.max_entries = 8;
  Tree2 tree(opts);
  std::vector<Tree2::Entry> sorted = pts;
  SortByHilbertKey<2, NoAug>(&sorted, ComputeDomain<2, NoAug>(sorted), 16);
  tree.BulkLoadSorted(sorted);
  EXPECT_EQ(tree.size(), static_cast<uint64_t>(n));
  ExpectRecords(tree, pts);
}

TEST_P(RTreeInsertTest, BulkLoadStrMatchesBruteForce) {
  const int n = GetParam();
  Rng rng(n + 2);
  std::vector<Tree2::Entry> pts = RandomPoints(&rng, n);
  RTreeOptions opts;
  opts.geometry.max_entries = 8;
  Tree2 tree(opts);
  std::vector<Tree2::Entry> sorted = pts;
  SortSTR<2, NoAug>(&sorted, opts.geometry.max_entries);
  tree.BulkLoadSorted(sorted);
  EXPECT_EQ(tree.size(), static_cast<uint64_t>(n));
  ExpectRecords(tree, pts);
}

TEST_P(RTreeInsertTest, ObjectIndexRangeMatchesBruteForce) {
  const int n = GetParam();
  Rng rng(n + 3);
  const std::vector<DataObject> objects = RandomObjects(&rng, n);
  ObjectIndex index(&objects, FanOutOptions(8));
  for (int q = 0; q < 25; ++q) {
    const Point center{rng.Uniform(), rng.Uniform()};
    const double radius = rng.Uniform(0.0, 0.5);
    EXPECT_EQ(IndexCircle(index, center, radius),
              BruteCircle(objects, center, radius));
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RTreeInsertTest,
                         ::testing::Values(1, 7, 8, 9, 64, 257, 1000, 4096),
                         [](const ::testing::TestParamInfo<int>& param_info) {
                           return "n" + std::to_string(param_info.param);
                         });

TEST(RTreeTest, HeightGrowsLogarithmically) {
  RTreeOptions opts;
  opts.geometry.max_entries = 16;
  Tree2 tree(opts);
  Rng rng(9);
  for (int i = 0; i < 5000; ++i) {
    tree.Insert(PointRect({rng.Uniform(), rng.Uniform()}), i);
  }
  // 5000 points with fan-out 16 and min fill ~6: height 3-5.
  EXPECT_GE(tree.height(), 3u);
  EXPECT_LE(tree.height(), 6u);
}

TEST(RTreeTest, BulkLoadPacksTighter) {
  Rng rng(10);
  std::vector<Tree2::Entry> pts = RandomPoints(&rng, 2000);
  RTreeOptions opts;
  opts.geometry.max_entries = 32;
  Tree2 inserted(opts), packed(opts);
  for (const auto& e : pts) inserted.Insert(e.rect, e.id);
  std::vector<Tree2::Entry> sorted = pts;
  SortByHilbertKey<2, NoAug>(&sorted, ComputeDomain<2, NoAug>(sorted), 16);
  packed.BulkLoadSorted(sorted);
  EXPECT_LT(packed.node_count(), inserted.node_count());
}

TEST(RTreeTest, BulkLoadFillFactor) {
  Rng rng(11);
  std::vector<Tree2::Entry> pts = RandomPoints(&rng, 1000);
  RTreeOptions opts;
  opts.geometry.max_entries = 20;
  Tree2 full(opts), seventy(opts);
  full.BulkLoadSorted(pts, 1.0);
  seventy.BulkLoadSorted(pts, 0.7);
  EXPECT_GT(seventy.node_count(), full.node_count());
}

TEST(RTreeTest, DuplicatePointsAllRetrievable) {
  RTreeOptions opts;
  opts.geometry.max_entries = 4;
  Tree2 tree(opts);
  for (uint32_t i = 0; i < 50; ++i) tree.Insert(PointRect({0.5, 0.5}), i);
  EXPECT_EQ(ValidatedRecords(tree).size(), 50u);

  std::vector<DataObject> objects(50);
  for (uint32_t i = 0; i < 50; ++i) objects[i] = {i, {0.5, 0.5}, ""};
  ObjectIndex index(&objects, FanOutOptions(4));
  EXPECT_EQ(IndexCircle(index, {0.5, 0.5}, 0.0).size(), 50u);
}

TEST(RTreeTest, BufferPoolChargedPerNodeAccess) {
  BufferPool pool(0);
  ObjectIndexOptions opts = FanOutOptions(8);
  opts.buffer_pool = &pool;
  opts.page_base = 1000;
  Rng rng(12);
  const std::vector<DataObject> objects = RandomObjects(&rng, 500);
  ObjectIndex index(&objects, opts);
  const uint32_t nodes = index.tree().node_count();
  pool.Clear();
  pool.ResetStats();
  // A radius covering the unit square touches every node once.
  EXPECT_EQ(index.RangeQuery({0.5, 0.5}, 1.0).size(), objects.size());
  EXPECT_EQ(pool.stats().reads, nodes);
  EXPECT_EQ(pool.stats().hits, 0u);
  // A repeated scan with a warm unbounded pool is all hits.
  (void)index.RangeQuery({0.5, 0.5}, 1.0);
  EXPECT_EQ(pool.stats().reads, nodes);
  EXPECT_EQ(pool.stats().hits, nodes);
}

TEST(RTreeTest, SmallRangeTouchesFewPages) {
  BufferPool pool(0);
  ObjectIndexOptions opts = FanOutOptions(32);
  opts.buffer_pool = &pool;
  Rng rng(13);
  const std::vector<DataObject> objects = RandomObjects(&rng, 10000);
  ObjectIndex index(&objects, opts);
  pool.Clear();
  pool.ResetStats();
  (void)index.RangeQuery({0.505, 0.505}, 0.005);
  EXPECT_LT(pool.stats().reads, index.tree().node_count() / 10);
}

// Augmentation: max-value summaries must propagate through inserts/splits.
struct MaxAug {
  double value = 0.0;
  static MaxAug Merge(const MaxAug& a, const MaxAug& b) {
    return {std::max(a.value, b.value)};
  }
};

/// Every internal entry's value is exactly the max over its child node:
/// no child exceeds it and some child attains it.
bool MaxSummariesExact(const RTree<2, MaxAug>& tree) {
  using Entry = RTree<2, MaxAug>::Entry;
  std::map<NodeId, bool> attained;  // child node -> parent value attained
  auto dominates = [&](const Entry& parent, const Entry& child) {
    attained[parent.id] |= child.aug.value == parent.aug.value;
    return child.aug.value <= parent.aug.value
               ? Status::OK()
               : Status::Internal("child value above its parent's");
  };
  auto no_entry = [](const Entry&, bool) { return Status::OK(); };
  Status st = ValidateRTree<2, MaxAug>(tree, dominates, no_entry);
  EXPECT_TRUE(st.ok()) << st.ToString();
  for (const auto& [node, hit] : attained) {
    EXPECT_TRUE(hit) << "node " << node << " summary above every child";
    if (!hit) return false;
  }
  return st.ok();
}

TEST(RTreeTest, AugmentationMaintainedUnderInsert) {
  RTreeOptions opts;
  opts.geometry.max_entries = 4;  // force many splits
  RTree<2, MaxAug> tree(opts);
  Rng rng(14);
  for (uint32_t i = 0; i < 300; ++i) {
    tree.Insert(PointRect({rng.Uniform(), rng.Uniform()}), i,
                MaxAug{rng.Uniform()});
  }
  EXPECT_TRUE(MaxSummariesExact(tree));
}

TEST(RTreeTest, AugmentationMaintainedUnderBulkLoad) {
  RTreeOptions opts;
  opts.geometry.max_entries = 8;
  RTree<2, MaxAug> tree(opts);
  Rng rng(15);
  std::vector<RTree<2, MaxAug>::Entry> pts;
  for (uint32_t i = 0; i < 500; ++i) {
    pts.push_back({PointRect({rng.Uniform(), rng.Uniform()}), i,
                   MaxAug{rng.Uniform()}});
  }
  tree.BulkLoadSorted(pts);
  EXPECT_TRUE(MaxSummariesExact(tree));
}

TEST(RTreeTest, FourDimensionalTree) {
  RTreeOptions opts;
  opts.geometry.max_entries = 8;
  RTree<4> tree(opts);
  Rng rng(16);
  std::vector<RTree<4>::Entry> pts;
  for (uint32_t i = 0; i < 400; ++i) {
    std::array<double, 4> p{rng.Uniform(), rng.Uniform(), rng.Uniform(),
                            rng.Uniform()};
    pts.push_back({Rect4::FromPoint(p), i, {}});
    tree.Insert(pts.back().rect, i);
  }
  ExpectRecords(tree, pts);
}

TEST(FanOutTest, DerivedFromPageSize) {
  // 2-D, no augmentation: entry = 36 bytes; (4096-16)/36 = 113.
  EXPECT_EQ(FanOutForPage(4096, 2, 0), 113u);
  // Larger aug shrinks fan-out; tiny pages floor at 4.
  EXPECT_LT(FanOutForPage(4096, 4, 40), FanOutForPage(4096, 2, 0));
  EXPECT_EQ(FanOutForPage(64, 4, 64), 4u);
}

TEST(BulkLoadTest, HilbertOrderingIsSpatiallyLocal) {
  // Consecutive records in Hilbert order should usually be close: the mean
  // hop distance must be far below the mean distance of a random pairing.
  Rng rng(18);
  std::vector<Tree2::Entry> pts = RandomPoints(&rng, 2000);
  std::vector<Tree2::Entry> sorted = pts;
  SortByHilbertKey<2, NoAug>(&sorted, ComputeDomain<2, NoAug>(sorted), 16);
  auto mean_hop = [](const std::vector<Tree2::Entry>& v) {
    double sum = 0;
    for (size_t i = 1; i < v.size(); ++i) {
      sum += Distance({v[i - 1].rect.lo[0], v[i - 1].rect.lo[1]},
                      {v[i].rect.lo[0], v[i].rect.lo[1]});
    }
    return sum / (v.size() - 1);
  };
  EXPECT_LT(mean_hop(sorted), 0.25 * mean_hop(pts));
}

}  // namespace
}  // namespace stpq

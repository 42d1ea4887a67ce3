// Allocation-count spot check for the query hot path (DESIGN.md §13).
//
// Replaces the global allocator with a counting shim and asserts that a
// *warm* traversal scratch executes the range-variant component-score
// kernel with zero heap allocations: after one warm-up pass has grown the
// scratch vectors to their steady-state capacity, repeating the same
// queries must not allocate at all.  The kernel runs over three indexes:
// a built SRT-index, a built IR2-tree (its signature bound reads the
// entry words in place) and an SRT-index reopened from a saved .stpqx
// (its nodes read in place from the file mapping).
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <new>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/compute_score.h"
#include "core/engine.h"
#include "gen/synthetic.h"
#include "index/ir2_tree.h"
#include "index/srt_index.h"
#include "io/index_file.h"
#include "obs/trace.h"
#include "util/rng.h"

namespace {
std::atomic<uint64_t> g_allocations{0};
}  // namespace

// Counting global allocator.  Only the allocation entry points count;
// deallocation stays untracked (frees are irrelevant to the invariant).
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) { return ::operator new(size); }

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace stpq {
namespace {

/// The three indexes every case runs over, none with a buffer pool (a pure
/// in-memory traversal), over one dataset.
class AllocationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SyntheticConfig cfg;
    cfg.seed = 31;
    cfg.num_objects = 32;
    cfg.num_features_per_set = 5000;
    cfg.num_feature_sets = 1;
    cfg.vocabulary_size = 64;
    cfg.num_clusters = 128;
    ds_ = GenerateSynthetic(cfg);
    FeatureIndexOptions opts;
    srt_.emplace(&ds_.feature_tables[0], opts);
    ir2_.emplace(&ds_.feature_tables[0], opts);

    // Save, then reopen the SRT-index's tree from the file: its slots stay
    // in the page store's mapping, which `loaded_` keeps alive.
    path_ = (std::filesystem::temp_directory_path() /
             ("stpq_alloc_test_" + std::to_string(::getpid()) + ".stpqx"))
                .string();
    Engine engine =
        Engine::Build(ds_.objects,
                      std::vector<FeatureTable>(ds_.feature_tables), {})
            .TakeValue();
    ASSERT_TRUE(engine.Save(path_).ok());
    Result<LoadedIndex> loaded = LoadIndexFile(path_);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    loaded_ = loaded.TakeValue();
    ASSERT_NE(loaded_.store->mapped_data(), nullptr);
    reopened_.emplace(&loaded_.feature_tables[0], opts,
                      std::move(loaded_.trees[1]));
    ASSERT_EQ(reopened_->tree().owned_slot_bytes(), 0u);

    Rng rng(32);
    for (int i = 0; i < 16; ++i) {
      points_.push_back({rng.Uniform(), rng.Uniform()});
      KeywordSet kw(cfg.vocabulary_size);
      kw.Insert(static_cast<TermId>(rng.UniformInt(0, 63)));
      kw.Insert(static_cast<TermId>(rng.UniformInt(0, 63)));
      queries_.push_back(std::move(kw));
    }
  }

  void TearDown() override { std::filesystem::remove(path_); }

  std::vector<std::pair<const char*, const FeatureIndex*>> Indexes() const {
    return {{"built SRT", &*srt_},
            {"built IR2", &*ir2_},
            {"reopened SRT", &*reopened_}};
  }

  /// Runs every query once with `scratch`; returns the summed best scores.
  double RunAll(const FeatureIndex& index, QueryStats& stats,
                TraversalScratch& scratch) const {
    double total = 0.0;
    for (size_t i = 0; i < points_.size(); ++i) {
      total += ComputeBestRange(index, points_[i], queries_[i], 0.5, 0.08,
                                stats, scratch)
                   .score;
    }
    return total;
  }

  /// Warm-up pass (grows the scratch to steady state), then counts the
  /// allocations of an identical second pass.
  uint64_t WarmAllocations(const FeatureIndex& index, QueryStats& stats) const {
    TraversalScratch scratch;
    const double warm_total = RunAll(index, stats, scratch);
    const uint64_t before = g_allocations.load(std::memory_order_relaxed);
    const double steady_total = RunAll(index, stats, scratch);
    const uint64_t after = g_allocations.load(std::memory_order_relaxed);
    EXPECT_DOUBLE_EQ(steady_total, warm_total) << index.Name();
    return after - before;
  }

  Dataset ds_;
  std::optional<SrtIndex> srt_;
  std::optional<Ir2Tree> ir2_;
  std::string path_;
  LoadedIndex loaded_;
  std::optional<SrtIndex> reopened_;
  std::vector<Point> points_;
  std::vector<KeywordSet> queries_;
};

// Tracing variant of the invariant: with the tracer recording into an
// already-registered ring, the warm kernel still performs zero heap
// allocations — TryEmit writes into preallocated ring slots, and a full
// ring drops events instead of growing.
TEST_F(AllocationTest, WarmTracedRangeTraversalAllocatesNothing) {
  Tracer::Global().Start();
  for (const auto& [name, index] : Indexes()) {
    // The warm-up pass also registers this thread's trace ring (its single
    // allocation happens there, once per process).
    QueryStats stats;
    EXPECT_EQ(WarmAllocations(*index, stats), 0u)
        << "warm traced range traversal over the " << name
        << " index allocated";
#if !defined(STPQ_DISABLE_TRACING)
    // The traced run really recorded node visits (same counters either way).
    EXPECT_GT(stats.traversal.FeatureVisited(), 0u) << name;
#endif
  }
  Tracer::Global().Stop();
  Tracer::Global().Discard();
}

TEST_F(AllocationTest, WarmScratchRangeTraversalAllocatesNothing) {
  for (const auto& [name, index] : Indexes()) {
    QueryStats stats;
    EXPECT_EQ(WarmAllocations(*index, stats), 0u)
        << "warm range traversal over the " << name << " index allocated";
  }
}

}  // namespace
}  // namespace stpq

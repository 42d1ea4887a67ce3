// Tests for storage/: the LRU buffer pool, I/O accounting, and the
// PageStore backends behind the pools.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>

#include "storage/buffer_pool.h"
#include "storage/page_store.h"

namespace stpq {
namespace {

TEST(BufferPoolTest, MissThenHit) {
  BufferPool pool(4);
  EXPECT_FALSE(pool.Access(1));  // miss
  EXPECT_TRUE(pool.Access(1));   // hit
  EXPECT_EQ(pool.stats().reads, 1u);
  EXPECT_EQ(pool.stats().hits, 1u);
}

TEST(BufferPoolTest, EvictsLeastRecentlyUsed) {
  BufferPool pool(2);
  pool.Access(1);
  pool.Access(2);
  pool.Access(1);     // 1 is now MRU, 2 is LRU
  pool.Access(3);     // evicts 2
  EXPECT_TRUE(pool.Access(1));
  EXPECT_TRUE(pool.Access(3));
  EXPECT_FALSE(pool.Access(2));  // was evicted
}

TEST(BufferPoolTest, CapacityRespected) {
  BufferPool pool(3);
  for (PageId p = 0; p < 10; ++p) pool.Access(p);
  EXPECT_EQ(pool.resident_pages(), 3u);
  EXPECT_EQ(pool.stats().reads, 10u);
}

TEST(BufferPoolTest, UnboundedNeverEvicts) {
  BufferPool pool(0);
  for (PageId p = 0; p < 100; ++p) pool.Access(p);
  for (PageId p = 0; p < 100; ++p) EXPECT_TRUE(pool.Access(p));
  EXPECT_EQ(pool.stats().reads, 100u);
  EXPECT_EQ(pool.stats().hits, 100u);
  EXPECT_EQ(pool.resident_pages(), 100u);
}

TEST(BufferPoolTest, ClearColdCache) {
  BufferPool pool(8);
  pool.Access(1);
  pool.Access(2);
  pool.Clear();
  EXPECT_EQ(pool.resident_pages(), 0u);
  EXPECT_FALSE(pool.Access(1));  // cold again
  // Counters survive Clear (per-query deltas are the caller's job).
  EXPECT_EQ(pool.stats().reads, 3u);
}

TEST(BufferPoolTest, ResetStatsKeepsPages) {
  BufferPool pool(8);
  pool.Access(1);
  pool.ResetStats();
  EXPECT_EQ(pool.stats().reads, 0u);
  EXPECT_TRUE(pool.Access(1));  // page still resident
}

TEST(BufferPoolTest, StatsDelta) {
  BufferPool pool(8);
  pool.Access(1);
  BufferPoolStats before = pool.stats();
  pool.Access(1);
  pool.Access(2);
  BufferPoolStats delta = pool.stats() - before;
  EXPECT_EQ(delta.reads, 1u);
  EXPECT_EQ(delta.hits, 1u);
}

TEST(BufferPoolTest, StatsDeltaSaturatesOnUnderflow) {
  BufferPool pool(8);
  pool.Access(1);
  pool.Access(1);
  BufferPoolStats newer = pool.stats();  // reads=1, hits=1
  pool.ResetStats();
  // Subtracting the newer snapshot from the (reset) older one must clamp
  // at zero instead of wrapping around to ~2^64.
  BufferPoolStats delta = pool.stats() - newer;
  EXPECT_EQ(delta.reads, 0u);
  EXPECT_EQ(delta.hits, 0u);
}

TEST(BufferPoolSessionTest, SharedSessionAllocatesNoPrivatePool) {
  BufferPool pool(8);
  BufferPool::Session shared_session(&pool, /*isolated=*/false);
  EXPECT_FALSE(shared_session.has_private_pool());
  BufferPool::Session isolated_session(&pool, /*isolated=*/true);
  EXPECT_TRUE(isolated_session.has_private_pool());
  // Shared-mode accesses route through the shared pool and are tallied on
  // the session.
  EXPECT_FALSE(shared_session.Access(1));
  EXPECT_TRUE(shared_session.Access(1));
  EXPECT_EQ(shared_session.stats().reads, 1u);
  EXPECT_EQ(shared_session.stats().hits, 1u);
}

TEST(BufferPoolTest, DistinctNamespacesDontCollide) {
  // Two indexes sharing one pool use page_base offsets; distinct ids are
  // distinct pages.
  BufferPool pool(0);
  constexpr PageId kStride = PageId{1} << 32;
  EXPECT_FALSE(pool.Access(kStride * 1 + 7));
  EXPECT_FALSE(pool.Access(kStride * 2 + 7));
  EXPECT_TRUE(pool.Access(kStride * 1 + 7));
}

TEST(BufferPoolPinTest, PinKeepsPageResidentUnderPressure) {
  BufferPool pool(2);
  ASSERT_TRUE(pool.Pin(1).ok());
  pool.Access(2);
  pool.Access(3);  // would evict 1 by LRU order, but 1 is pinned
  EXPECT_TRUE(pool.Access(1));  // still resident
  EXPECT_EQ(pool.PinCount(1), 1u);
  ASSERT_TRUE(pool.Unpin(1).ok());
  EXPECT_EQ(pool.PinCount(1), 0u);
}

TEST(BufferPoolPinTest, PinsNest) {
  BufferPool pool(4);
  ASSERT_TRUE(pool.Pin(7).ok());
  ASSERT_TRUE(pool.Pin(7).ok());
  EXPECT_EQ(pool.PinCount(7), 2u);
  ASSERT_TRUE(pool.Unpin(7).ok());
  EXPECT_EQ(pool.PinCount(7), 1u);  // still pinned once
  ASSERT_TRUE(pool.Unpin(7).ok());
  EXPECT_EQ(pool.pinned_pages(), 0u);
}

TEST(BufferPoolPinTest, UnpinOfUnpinnedPageFails) {
  BufferPool pool(4);
  pool.Access(1);
  Status st = pool.Unpin(1);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
}

TEST(BufferPoolPinTest, PinFailsWhenPoolFullOfPinnedPages) {
  BufferPool pool(2);
  ASSERT_TRUE(pool.Pin(1).ok());
  ASSERT_TRUE(pool.Pin(2).ok());
  // Every frame is pinned: a further pin must fail with a descriptive
  // Status, not crash or displace a pinned resident.
  Status st = pool.Pin(3);
  EXPECT_EQ(st.code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(st.message().find("pinned"), std::string::npos);
  EXPECT_TRUE(pool.Access(1));
  EXPECT_TRUE(pool.Access(2));
  EXPECT_EQ(pool.resident_pages(), 2u);
}

TEST(BufferPoolPinTest, FullOfPinnedReadsThrough) {
  BufferPool pool(2);
  ASSERT_TRUE(pool.Pin(1).ok());
  ASSERT_TRUE(pool.Pin(2).ok());
  // Plain accesses still work, but the new page cannot stay resident.
  EXPECT_FALSE(pool.Access(3));
  EXPECT_EQ(pool.resident_pages(), 2u);
  EXPECT_FALSE(pool.Access(3));  // read again: still a miss (read-through)
  ASSERT_TRUE(pool.Unpin(1).ok());
  ASSERT_TRUE(pool.Unpin(2).ok());
}

TEST(BufferPoolPinTest, EvictionSkipsPinnedAndTakesNextLru) {
  BufferPool pool(3);
  ASSERT_TRUE(pool.Pin(1).ok());  // LRU end once 2 and 3 arrive
  pool.Access(2);
  pool.Access(3);
  pool.Access(4);  // 1 is pinned, so 2 (next-oldest) is evicted
  EXPECT_TRUE(pool.Access(1));
  EXPECT_FALSE(pool.Access(2));
  ASSERT_TRUE(pool.Unpin(1).ok());
}

TEST(PageStoreTest, SimulatedStoreCountsMissesOnly) {
  SimulatedPageStore store;
  BufferPool pool(4, &store);
  pool.Access(1);  // miss -> fetch
  pool.Access(1);  // hit -> no fetch
  pool.Access(2);  // miss -> fetch
  EXPECT_EQ(store.stats().fetches, 2u);
  EXPECT_EQ(store.stats().bytes_read, 0u);
  EXPECT_EQ(store.backend(), StorageBackend::kSimulated);
  // Counting is independent of the store: same reads/hits as a bare pool.
  EXPECT_EQ(pool.stats().reads, 2u);
  EXPECT_EQ(pool.stats().hits, 1u);
}

TEST(PageStoreTest, PoolWithoutStoreStillCounts) {
  BufferPool pool(4);
  pool.Access(7);
  pool.Access(7);
  EXPECT_EQ(pool.stats().reads, 1u);
  EXPECT_EQ(pool.stats().hits, 1u);
  EXPECT_EQ(pool.page_store(), nullptr);
}

class FilePageStoreTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("stpq_storage_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// Writes `bytes` of a repeating pattern and returns the path.
  std::string MakeFile(const char* name, size_t bytes) {
    std::string path = (dir_ / name).string();
    std::ofstream out(path, std::ios::binary);
    for (size_t i = 0; i < bytes; ++i) {
      out.put(static_cast<char>(i & 0xff));
    }
    return path;
  }

  /// Opens `path` and a store over its descriptor, expecting
  /// `verified_bytes`.
  static Result<std::unique_ptr<FilePageStore>> OpenStore(
      const std::string& path, uint64_t verified_bytes) {
    return FilePageStore::Open(::open(path.c_str(), O_RDONLY | O_CLOEXEC),
                               path, verified_bytes);
  }

  std::filesystem::path dir_;
};

TEST_F(FilePageStoreTest, OpenRejectsMissingFile) {
  Result<std::unique_ptr<FilePageStore>> r =
      OpenStore((dir_ / "nope.bin").string(), 4096);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

// The store maps exactly the bytes the index reader verified its segments
// against; a file of any other size has changed since and is refused, so
// no verified slot can lie outside the mapping.
TEST_F(FilePageStoreTest, OpenRejectsSizeOtherThanVerified) {
  std::string path = MakeFile("short.bin", 4096);
  for (uint64_t verified : {uint64_t{8192}, uint64_t{4095}, uint64_t{0}}) {
    Result<std::unique_ptr<FilePageStore>> r = OpenStore(path, verified);
    ASSERT_FALSE(r.ok()) << verified;
    EXPECT_EQ(r.status().code(), StatusCode::kIoError) << verified;
  }
  Result<std::unique_ptr<FilePageStore>> r = OpenStore(path, 4096);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_NE(r.value()->mapped_data(), nullptr);
}

TEST_F(FilePageStoreTest, FetchTouchesTheSlotItIsGiven) {
  std::string path = MakeFile("data.bin", 3 * 4096);
  Result<std::unique_ptr<FilePageStore>> r = OpenStore(path, 3 * 4096);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  FilePageStore& store = *r.value();
  EXPECT_EQ(store.backend(), StorageBackend::kFile);
  const char* map = store.mapped_data();
  store.FetchPage(10, {map, 4096});
  store.FetchPage(12, {map + 2 * 4096, 4096});
  EXPECT_EQ(store.stats().fetches, 2u);
  EXPECT_EQ(store.stats().bytes_read, 2u * 4096);
  // An access that names no slot (a pin) still counts as a fetch.
  store.FetchPage(13, {});
  EXPECT_EQ(store.stats().fetches, 3u);
  EXPECT_EQ(store.stats().bytes_read, 2u * 4096);
  EXPECT_EQ(store.stats().io_errors, 0u);
}

// A store opened over a descriptor serves the file read through it, not
// whatever the path names later: the .stpqx loader verifies a file through
// one descriptor and must map those same bytes, even when a rebuild has
// atomically renamed a new index over the path in between.
TEST_F(FilePageStoreTest, OpenOverDescriptorIgnoresReplacedPath) {
  const std::string path = MakeFile("swap.bin", 2 * 4096);  // byte i = i
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  ASSERT_GE(fd, 0);
  const std::string other = (dir_ / "other.bin").string();
  std::ofstream(other, std::ios::binary) << std::string(2 * 4096, 'x');
  std::filesystem::rename(other, path);

  Result<std::unique_ptr<FilePageStore>> r =
      FilePageStore::Open(fd, path, 2 * 4096);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(r.value()->mapped_data(), nullptr);
  for (int i = 0; i < 256; ++i) {
    ASSERT_EQ(static_cast<uint8_t>(r.value()->mapped_data()[i]), i) << i;
  }
}

TEST_F(FilePageStoreTest, PoolMissTriggersFetch) {
  std::string path = MakeFile("pool.bin", 2 * 4096);
  Result<std::unique_ptr<FilePageStore>> r = OpenStore(path, 2 * 4096);
  ASSERT_TRUE(r.ok());
  const char* map = r.value()->mapped_data();
  BufferPool pool(4, r.value().get());
  pool.Access(0, {map, 4096});         // miss -> file fetch
  pool.Access(0, {map, 4096});         // hit -> no fetch
  pool.Access(1, {map + 4096, 4096});  // miss -> file fetch
  EXPECT_EQ(r.value()->stats().fetches, 2u);
  EXPECT_EQ(r.value()->stats().bytes_read, 2u * 4096);
  // Session pools inherit the shared pool's store.
  {
    BufferPool::Session session(&pool, /*isolated=*/true);
    session.Access(0, {map, 4096});  // isolated pool is cold -> fetch
  }
  EXPECT_EQ(r.value()->stats().fetches, 3u);
  EXPECT_EQ(r.value()->stats().bytes_read, 3u * 4096);
}

}  // namespace
}  // namespace stpq

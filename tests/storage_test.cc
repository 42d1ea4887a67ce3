// Tests for storage/: the LRU buffer pool, I/O accounting, and the
// PageStore backends behind the pools.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <cerrno>
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

TEST(PageStoreTest, ParseStorageBackend) {
  EXPECT_EQ(ParseStorageBackend("simulated").value(),
            StorageBackend::kSimulated);
  EXPECT_EQ(ParseStorageBackend("file").value(), StorageBackend::kFile);
  Result<StorageBackend> bad = ParseStorageBackend("bogus");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
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

  /// Opens `path` and a store over its descriptor.
  static Result<std::unique_ptr<FilePageStore>> OpenStore(
      const std::string& path, std::vector<FilePageStore::Extent> extents,
      FilePageStore::IoMode mode = FilePageStore::IoMode::kAuto) {
    return FilePageStore::Open(::open(path.c_str(), O_RDONLY | O_CLOEXEC),
                               path, std::move(extents), mode);
  }

  std::filesystem::path dir_;
};

TEST_F(FilePageStoreTest, OpenRejectsMissingFile) {
  Result<std::unique_ptr<FilePageStore>> r = OpenStore(
      (dir_ / "nope.bin").string(),
      {FilePageStore::Extent{0, 1, 0, 4096}});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kIoError);
}

TEST_F(FilePageStoreTest, OpenRejectsExtentPastEof) {
  std::string path = MakeFile("short.bin", 4096);
  Result<std::unique_ptr<FilePageStore>> r = OpenStore(
      path, {FilePageStore::Extent{0, 2, 0, 4096}});  // needs 8192 bytes
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(FilePageStoreTest, OpenRejectsOverlappingExtents) {
  std::string path = MakeFile("two.bin", 16384);
  Result<std::unique_ptr<FilePageStore>> r = OpenStore(
      path, {FilePageStore::Extent{0, 2, 0, 4096},
             FilePageStore::Extent{1, 2, 8192, 4096}});
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(FilePageStoreTest, FetchCountsBytesAndErrors) {
  for (FilePageStore::IoMode mode :
       {FilePageStore::IoMode::kMmap, FilePageStore::IoMode::kPread}) {
    std::string path = MakeFile("data.bin", 3 * 4096);
    Result<std::unique_ptr<FilePageStore>> r = OpenStore(
        path, {FilePageStore::Extent{10, 3, 0, 4096}}, mode);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    FilePageStore& store = *r.value();
    EXPECT_EQ(store.backend(), StorageBackend::kFile);
    EXPECT_EQ(store.using_mmap(), mode == FilePageStore::IoMode::kMmap);
    store.FetchPage(10);
    store.FetchPage(12);
    EXPECT_EQ(store.stats().fetches, 2u);
    EXPECT_EQ(store.stats().bytes_read, 2u * 4096);
    EXPECT_EQ(store.stats().io_errors, 0u);
    store.FetchPage(13);  // past the extent
    store.FetchPage(9);   // before the extent
    EXPECT_EQ(store.stats().io_errors, 2u);
    EXPECT_EQ(store.stats().fetches, 2u);
  }
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
      FilePageStore::Open(fd, path, {FilePageStore::Extent{0, 2, 0, 4096}},
                          FilePageStore::IoMode::kMmap);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_NE(r.value()->mapped_data(), nullptr);
  for (int i = 0; i < 256; ++i) {
    ASSERT_EQ(static_cast<uint8_t>(r.value()->mapped_data()[i]), i) << i;
  }
}

TEST_F(FilePageStoreTest, PoolMissTriggersFetch) {
  std::string path = MakeFile("pool.bin", 2 * 4096);
  Result<std::unique_ptr<FilePageStore>> r = OpenStore(
      path, {FilePageStore::Extent{0, 2, 0, 4096}});
  ASSERT_TRUE(r.ok());
  BufferPool pool(4, r.value().get());
  pool.Access(0);  // miss -> file fetch
  pool.Access(0);  // hit -> no fetch
  pool.Access(1);  // miss -> file fetch
  EXPECT_EQ(r.value()->stats().fetches, 2u);
  EXPECT_EQ(r.value()->stats().bytes_read, 2u * 4096);
  // Session pools inherit the shared pool's store.
  {
    BufferPool::Session session(&pool, /*isolated=*/true);
    session.Access(0);  // isolated pool is cold -> fetch
  }
  EXPECT_EQ(r.value()->stats().fetches, 3u);
}

// ---------------------------------------------------------------------------
// Fault injection through the pread seam (pread mode only; mmap has no
// syscall to interrupt).  The seam functions are stateful file-statics:
// install, fetch once, inspect stats() + last_error().
// ---------------------------------------------------------------------------

int g_pread_calls = 0;

/// Fails with EINTR on every odd call; the retry loop must converge.
ssize_t PreadEintrEveryOther(int fd, void* buf, size_t count, off_t offset) {
  if (++g_pread_calls % 2 == 1) {
    errno = EINTR;
    return -1;
  }
  return ::pread(fd, buf, count, offset);
}

/// Hard I/O error: pread fails with EIO immediately.
ssize_t PreadEio(int, void*, size_t, off_t) {
  errno = EIO;
  return -1;
}

/// Torn page: half the slot, then EOF — as if the file were cut mid-slot.
ssize_t PreadTorn(int fd, void* buf, size_t count, off_t offset) {
  if (offset == 0) return ::pread(fd, buf, count > 2048 ? 2048 : count, offset);
  return 0;
}

TEST_F(FilePageStoreTest, EintrIsRetriedNotAnError) {
  std::string path = MakeFile("eintr.bin", 4096);
  Result<std::unique_ptr<FilePageStore>> r = OpenStore(
      path, {FilePageStore::Extent{0, 1, 0, 4096}},
      FilePageStore::IoMode::kPread);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  g_pread_calls = 0;
  r.value()->SetPreadFnForTest(&PreadEintrEveryOther);
  r.value()->FetchPage(0);
  EXPECT_GT(g_pread_calls, 1) << "the EINTR attempt was not retried";
  EXPECT_EQ(r.value()->stats().fetches, 1u);
  EXPECT_EQ(r.value()->stats().bytes_read, 4096u);
  EXPECT_EQ(r.value()->stats().io_errors, 0u);
  EXPECT_TRUE(r.value()->last_error().ok());
}

TEST_F(FilePageStoreTest, PreadFailureIsTypedIoError) {
  std::string path = MakeFile("eio.bin", 4096);
  Result<std::unique_ptr<FilePageStore>> r = OpenStore(
      path, {FilePageStore::Extent{0, 1, 0, 4096}},
      FilePageStore::IoMode::kPread);
  ASSERT_TRUE(r.ok());
  r.value()->SetPreadFnForTest(&PreadEio);
  r.value()->FetchPage(0);
  EXPECT_EQ(r.value()->stats().io_errors, 1u);
  // The attempt is still one fetch; no bytes were served.
  EXPECT_EQ(r.value()->stats().fetches, 1u);
  EXPECT_EQ(r.value()->stats().bytes_read, 0u);
  Status err = r.value()->last_error();
  EXPECT_EQ(err.code(), StatusCode::kIoError);
}

TEST_F(FilePageStoreTest, TornPageIsTypedCorruption) {
  // EOF inside a slot means the file is shorter than the extent table
  // promised — a corrupt index, not a transient I/O failure.
  std::string path = MakeFile("torn.bin", 4096);
  Result<std::unique_ptr<FilePageStore>> r = OpenStore(
      path, {FilePageStore::Extent{0, 1, 0, 4096}},
      FilePageStore::IoMode::kPread);
  ASSERT_TRUE(r.ok());
  r.value()->SetPreadFnForTest(&PreadTorn);
  r.value()->FetchPage(0);
  EXPECT_EQ(r.value()->stats().io_errors, 1u);
  Status err = r.value()->last_error();
  EXPECT_EQ(err.code(), StatusCode::kCorruption);
}

}  // namespace
}  // namespace stpq

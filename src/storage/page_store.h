// PageStore: the physical half of the storage stack.
//
// BufferPool decides *whether* a page access is a hit or a miss (exact LRU,
// pinning, counters); a PageStore decides what a miss *costs*.  The
// simulated backend keeps today's behavior — a miss is only a counter tick —
// while the file backend turns a miss into a real page fetch from a
// persisted index file (storage/index_file.h).  The split keeps the golden
// I/O contract trivially true: hit/miss accounting never consults the
// store, so both backends report byte-identical page-read counts for the
// same workload.
//
// FetchPage runs inside BufferPool::AccessInternal, i.e. on the query hot
// path under the pool mutex (or an isolated session's private pool).  Every
// implementation must therefore be allocation-free and lock-free: the file
// backend reads through an immutable extent table built before the first
// query, touches mmapped bytes (or preads into a stack buffer), and updates
// relaxed atomics plus pre-registered metric handles.
#ifndef STPQ_STORAGE_PAGE_STORE_H_
#define STPQ_STORAGE_PAGE_STORE_H_

#include <sys/types.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "storage/buffer_pool.h"
#include "util/attributes.h"
#include "util/result.h"
#include "util/status.h"

namespace stpq {

class Counter;
class HistogramMetric;

/// Which physical backend serves buffer-pool misses.
enum class StorageBackend : uint8_t {
  kSimulated = 0,  ///< miss = counter tick, no bytes move (the default)
  kFile = 1,       ///< miss = page fetch from a persisted index file
};

/// Stable lowercase name ("simulated" / "file") for flags, metrics and
/// error messages.
const char* StorageBackendName(StorageBackend backend);

/// Parses the StorageBackendName form back; InvalidArgument on anything
/// else.
[[nodiscard]] Result<StorageBackend> ParseStorageBackend(
    const std::string& name);

/// Counters exposed by a PageStore.  `bytes_read` and `io_errors` stay 0 on
/// the simulated backend.
struct PageStoreStats {
  uint64_t fetches = 0;     ///< FetchPage calls (== buffer-pool misses)
  uint64_t bytes_read = 0;  ///< physical bytes fetched
  uint64_t io_errors = 0;   ///< fetches that failed (unmapped page, pread)
};

/// Physical page source behind a BufferPool.  Implementations are
/// immutable after construction and safe to share between pools (the
/// object pool and every feature pool of one engine share one store; their
/// page-id namespaces are disjoint by the kIndexStride layout).
class PageStore {
 public:
  virtual ~PageStore() = default;

  /// Fetches the physical bytes backing `page`.  Called once per
  /// buffer-pool miss, after the miss has been counted, so fetch totals
  /// mirror the pool's read counters exactly.  Infallible by design: a
  /// fetch that cannot be served (page outside every extent, read error)
  /// bumps `io_errors` instead of failing the query, which goes on to read
  /// the node's slot from the tree (its arena, or the file mapping that
  /// Open already verified).  Must not allocate or block on anything but
  /// the read itself.
  STPQ_HOT virtual void FetchPage(PageId page) = 0;

  [[nodiscard]] virtual StorageBackend backend() const = 0;
  [[nodiscard]] virtual PageStoreStats stats() const = 0;
};

/// Count-only store: a miss moves no bytes.  Every engine built in memory
/// (Engine::Build, the simulated backend) installs one behind both of its
/// buffer pools, so fetch counts are reported the same way for both
/// backends.
class SimulatedPageStore final : public PageStore {
 public:
  STPQ_HOT void FetchPage(PageId page) override;

  [[nodiscard]] StorageBackend backend() const override {
    return StorageBackend::kSimulated;
  }
  [[nodiscard]] PageStoreStats stats() const override {
    return {fetches_.load(std::memory_order_relaxed), 0, 0};
  }

 private:
  std::atomic<uint64_t> fetches_{0};
};

/// Store over a persisted index file: mmap when available, pread fallback.
/// The page-id space is sparse (object index at 0, feature index i at
/// kIndexStride * (i + 1)), so the mapping to file offsets goes through a
/// sorted extent table: each extent covers one node segment's contiguous
/// page-id range and names its slot width (a node slot spans one or more
/// pages when the serialized node exceeds the page size; the pool charges
/// one read per node, so one fetch moves one full slot).
class FilePageStore final : public PageStore {
 public:
  /// How fetches hit the file.  kAuto mmaps and falls back to pread when
  /// the mapping fails; the explicit modes exist for tests and benches.
  enum class IoMode : uint8_t { kAuto = 0, kMmap = 1, kPread = 2 };

  /// One contiguous page-id range backed by fixed-width slots in the file.
  struct Extent {
    PageId first_page = 0;      ///< pool-visible id of the first slot
    uint64_t page_count = 0;    ///< number of slots
    uint64_t file_offset = 0;   ///< byte offset of the first slot
    uint32_t slot_bytes = 0;    ///< bytes fetched per page access
  };

  /// Opens a store over `fd`, a read-only descriptor of the index file
  /// `path` (named in messages) that the store takes over, and closes on
  /// failure too: the store serves the file the caller has read through
  /// `fd`, even if `path` names another file by now.  Validates the extent
  /// table (sorted by first_page, non-overlapping, inside the file).
  /// Typed errors: IoError when `fd` cannot be stat'ed (e.g. -1 from a
  /// failed open) or mapped (kMmap mode), InvalidArgument on a malformed
  /// extent table.
  [[nodiscard]] static Result<std::unique_ptr<FilePageStore>> Open(
      int fd, const std::string& path, std::vector<Extent> extents,
      IoMode mode = IoMode::kAuto);

  ~FilePageStore() override;

  FilePageStore(const FilePageStore&) = delete;
  FilePageStore& operator=(const FilePageStore&) = delete;

  STPQ_HOT void FetchPage(PageId page) override;

  [[nodiscard]] StorageBackend backend() const override {
    return StorageBackend::kFile;
  }
  [[nodiscard]] PageStoreStats stats() const override {
    return {fetches_.load(std::memory_order_relaxed),
            bytes_read_.load(std::memory_order_relaxed),
            io_errors_.load(std::memory_order_relaxed)};
  }

  [[nodiscard]] const std::string& path() const { return path_; }
  [[nodiscard]] bool using_mmap() const { return map_ != nullptr; }
  /// The whole file, mapped read-only; nullptr in pread mode.  Opened
  /// R-trees read their node slots in place from here (LoadIndexFile opens
  /// its store in kMmap mode), so the store must outlive them.
  [[nodiscard]] const char* mapped_data() const {
    return reinterpret_cast<const char*>(map_);
  }

  /// Typed view of the most recent fetch failure: OK when io_errors is 0,
  /// IoError for a failed pread, Corruption for a torn page (EOF inside a
  /// slot — the file is shorter than the extent table promised).  Cold:
  /// allocates the message; callers check after stats().io_errors != 0.
  [[nodiscard]] STPQ_COLD Status last_error() const;

  /// pread-compatible seam for fault-injection tests (EINTR, short reads,
  /// hard errors).  Not thread-safe against in-flight fetches; install
  /// before queries run.
  using PreadFn = ssize_t (*)(int fd, void* buf, size_t count, off_t offset);
  void SetPreadFnForTest(PreadFn fn) { pread_fn_ = fn; }

 private:
  /// What the last fetch failure was (relaxed atomics; FetchPage must stay
  /// allocation-free, so the Status is only built in last_error()).
  enum class FetchErrorKind : uint8_t {
    kNone = 0,
    kUnmappedPage = 1,  ///< page outside every extent
    kPreadFailed = 2,   ///< pread returned -1 (errno recorded)
    kTornPage = 3,      ///< EOF before the slot was fully read
  };
  FilePageStore(std::string path, std::vector<Extent> extents, int fd,
                const uint8_t* map, uint64_t file_bytes);

  /// Binary search over the sorted extent table; nullptr when `page` is
  /// outside every extent.
  [[nodiscard]] const Extent* LookupExtent(PageId page) const;

  /// Bumps io_errors and records the failure detail (allocation-free).
  void RecordFetchError(FetchErrorKind kind, PageId page, int err);

  const std::string path_;
  /// Sorted by first_page; immutable after Open, so FetchPage reads it
  /// without synchronization.
  const std::vector<Extent> extents_;
  const int fd_;
  const uint8_t* const map_;  ///< nullptr in pread mode
  const uint64_t file_bytes_;

  PreadFn pread_fn_ = &::pread;

  std::atomic<uint64_t> fetches_{0};
  std::atomic<uint64_t> bytes_read_{0};
  std::atomic<uint64_t> io_errors_{0};
  std::atomic<uint8_t> last_error_kind_{0};
  std::atomic<int> last_error_errno_{0};
  std::atomic<uint64_t> last_error_page_{0};
  /// Folded mmap bytes land here so the touch loop cannot be optimized
  /// away; the value itself is meaningless.
  std::atomic<uint64_t> fold_sink_{0};

  // Metric handles resolved once at Open (registry lookups allocate; the
  // hot path only does relaxed atomic updates on these).
  Counter& metric_fetches_;
  Counter& metric_bytes_;
  HistogramMetric& metric_latency_;
};

}  // namespace stpq

#endif  // STPQ_STORAGE_PAGE_STORE_H_

// PageStore: the physical half of the storage stack.
//
// BufferPool decides *whether* a page access is a hit or a miss (exact LRU,
// pinning, counters); a PageStore decides what a miss *costs*.  The
// simulated backend keeps today's behavior — a miss is only a counter tick —
// while the file backend turns a miss into a real page fetch from a
// persisted index file (io/index_file.h).  The split keeps the golden
// I/O contract trivially true: hit/miss accounting never consults the
// store, so both backends report byte-identical page-read counts for the
// same workload.
//
// A store keeps no map of where pages live: the R-tree that reads a node
// knows its slot (RTree::Slot), and the buffer pool hands those bytes to
// FetchPage with the page id.
//
// FetchPage runs inside BufferPool::AccessInternal, i.e. on the query hot
// path under the pool mutex (or an isolated session's private pool).  Every
// implementation must therefore be allocation-free and lock-free: the file
// backend touches the mapped slot and updates relaxed atomics plus
// pre-registered metric handles.
#ifndef STPQ_STORAGE_PAGE_STORE_H_
#define STPQ_STORAGE_PAGE_STORE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

#include "storage/buffer_pool.h"
#include "util/attributes.h"
#include "util/result.h"

namespace stpq {

class Counter;
class HistogramMetric;

/// Which physical backend serves buffer-pool misses.
enum class StorageBackend : uint8_t {
  kSimulated = 0,  ///< miss = counter tick, no bytes move (the default)
  kFile = 1,       ///< miss = page fetch from a persisted index file
};

/// Stable lowercase name ("simulated" / "file") for metrics, status pages
/// and error messages.
const char* StorageBackendName(StorageBackend backend);

/// Counters exposed by a PageStore.  `bytes_read` stays 0 on the simulated
/// backend.
struct PageStoreStats {
  uint64_t fetches = 0;     ///< FetchPage calls (== buffer-pool misses)
  uint64_t bytes_read = 0;  ///< physical bytes fetched
  /// Fetches that failed.  Always 0: a fetch reads slot bytes that Open
  /// verified and mapped, so it cannot fail short of the file being cut
  /// under the mapping, which raises SIGBUS instead (ROADMAP item 4d).
  uint64_t io_errors = 0;
};

/// Physical page source behind a BufferPool.  Implementations are
/// immutable after construction and safe to share between pools (the
/// object pool and every feature pool of one engine share one store; their
/// page-id namespaces are disjoint by the kIndexStride layout).
class PageStore {
 public:
  virtual ~PageStore() = default;

  /// Fetches `slot`, the bytes backing `page` (the node slot the reading
  /// tree computed; empty for accesses that name no node, such as pins).
  /// Called once per buffer-pool miss, after the miss has been counted, so
  /// fetch totals mirror the pool's read counters exactly.  Must not
  /// allocate or block on anything but the read itself.
  STPQ_HOT virtual void FetchPage(PageId page, std::span<const char> slot) = 0;

  [[nodiscard]] virtual StorageBackend backend() const = 0;
  [[nodiscard]] virtual PageStoreStats stats() const = 0;
};

/// Count-only store: a miss moves no bytes.  Every engine built in memory
/// (Engine::Build, the simulated backend) installs one behind both of its
/// buffer pools, so fetch counts are reported the same way for both
/// backends.
class SimulatedPageStore final : public PageStore {
 public:
  STPQ_HOT void FetchPage(PageId page, std::span<const char> slot) override;

  [[nodiscard]] StorageBackend backend() const override {
    return StorageBackend::kSimulated;
  }
  [[nodiscard]] PageStoreStats stats() const override {
    return {fetches_.load(std::memory_order_relaxed), 0, 0};
  }

 private:
  std::atomic<uint64_t> fetches_{0};
};

/// Store over a persisted index file, mapped read-only.  Opened R-trees
/// read their node slots in place from the mapping; a fetch pages in the
/// slot the pool hands it and counts the bytes.
class FilePageStore final : public PageStore {
 public:
  /// Opens a store over `fd`, a read-only descriptor of the index file
  /// `path` (named in messages).  The store takes `fd` over and closes it
  /// once mapped (or on failure): it serves the file the caller has read
  /// through `fd`, even if `path` names another file by now.  `verified_bytes` is
  /// the file size the caller's verifying pass checked every segment
  /// against; the store maps exactly that many bytes, so every slot the
  /// caller verified lies inside the mapping.  Typed errors: IoError when
  /// `fd` cannot be stat'ed (e.g. -1 from a failed open), when the file's
  /// size is not `verified_bytes` (it changed since it was verified), or
  /// when it cannot be mapped.
  [[nodiscard]] static Result<std::unique_ptr<FilePageStore>> Open(
      int fd, const std::string& path, uint64_t verified_bytes);

  ~FilePageStore() override;

  FilePageStore(const FilePageStore&) = delete;
  FilePageStore& operator=(const FilePageStore&) = delete;

  STPQ_HOT void FetchPage(PageId page, std::span<const char> slot) override;

  [[nodiscard]] StorageBackend backend() const override {
    return StorageBackend::kFile;
  }
  [[nodiscard]] PageStoreStats stats() const override {
    return {fetches_.load(std::memory_order_relaxed),
            bytes_read_.load(std::memory_order_relaxed), 0};
  }

  /// The whole file, mapped read-only.  Opened R-trees read their node
  /// slots in place from here, so the store must outlive them.
  [[nodiscard]] const char* mapped_data() const { return map_; }

 private:
  FilePageStore(const char* map, uint64_t file_bytes);

  const char* const map_;
  const uint64_t file_bytes_;

  std::atomic<uint64_t> fetches_{0};
  std::atomic<uint64_t> bytes_read_{0};
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

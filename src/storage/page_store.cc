#include "storage/page_store.h"

#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "obs/metrics_registry.h"
#include "util/timer.h"

namespace stpq {

const char* StorageBackendName(StorageBackend backend) {
  switch (backend) {
    case StorageBackend::kSimulated:
      return "simulated";
    case StorageBackend::kFile:
      return "file";
  }
  return "unknown";
}

void SimulatedPageStore::FetchPage(PageId /*page*/,
                                   std::span<const char> /*slot*/) {
  fetches_.fetch_add(1, std::memory_order_relaxed);
}

// --------------------------------------------------------- FilePageStore

Result<std::unique_ptr<FilePageStore>> FilePageStore::Open(
    int fd, const std::string& path, uint64_t verified_bytes) {
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IoError("cannot stat index file '" + path +
                           "': " + std::strerror(err));
  }
  const uint64_t file_bytes = static_cast<uint64_t>(st.st_size);
  if (file_bytes != verified_bytes) {
    ::close(fd);
    return Status::IoError("index file '" + path + "' is " +
                           std::to_string(file_bytes) + " bytes, but " +
                           std::to_string(verified_bytes) +
                           " were verified");
  }
  void* m = ::mmap(nullptr, file_bytes, PROT_READ, MAP_PRIVATE, fd, 0);
  const int err = errno;
  ::close(fd);  // the mapping keeps the file
  if (m == MAP_FAILED) {
    return Status::IoError("cannot mmap index file '" + path +
                           "': " + std::strerror(err));
  }
  // Index lookups jump between tree levels; readahead would fetch
  // neighbours the query never visits.
  ::madvise(m, file_bytes, MADV_RANDOM);
  return std::unique_ptr<FilePageStore>(
      new FilePageStore(static_cast<const char*>(m), file_bytes));
}

FilePageStore::FilePageStore(const char* map, uint64_t file_bytes)
    : map_(map),
      file_bytes_(file_bytes),
      metric_fetches_(MetricsRegistry::Global().GetCounter(
          "stpq_store_file_fetches_total",
          "Page fetches served by the file-backed page store")),
      metric_bytes_(MetricsRegistry::Global().GetCounter(
          "stpq_store_file_read_bytes_total",
          "Bytes read from persisted index files")),
      metric_latency_(MetricsRegistry::Global().GetHistogram(
          "stpq_store_file_fetch_latency_ms",
          "Latency of file-backed page fetches in milliseconds")) {}

FilePageStore::~FilePageStore() {
  ::munmap(const_cast<char*>(map_), file_bytes_);
}

void FilePageStore::FetchPage(PageId /*page*/, std::span<const char> slot) {
  Timer timer;
  if (!slot.empty()) {
    // One touch per cache line plus the slot's last byte; the fold keeps
    // the reads observable so the mapping is actually paged in.
    const auto* bytes = reinterpret_cast<const uint8_t*>(slot.data());
    uint64_t fold = 0;
    for (size_t i = 0; i < slot.size(); i += 64) fold += bytes[i];
    fold += bytes[slot.size() - 1];
    fold_sink_.store(fold, std::memory_order_relaxed);
  }
  fetches_.fetch_add(1, std::memory_order_relaxed);
  bytes_read_.fetch_add(slot.size(), std::memory_order_relaxed);
  metric_fetches_.Increment();
  metric_bytes_.Increment(slot.size());
  metric_latency_.Record(timer.ElapsedMillis());
}

}  // namespace stpq

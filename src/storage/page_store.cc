#include "storage/page_store.h"

#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

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

Result<StorageBackend> ParseStorageBackend(const std::string& name) {
  if (name == "simulated") return StorageBackend::kSimulated;
  if (name == "file") return StorageBackend::kFile;
  return Status::InvalidArgument("unknown storage backend '" + name +
                                 "' (expected 'simulated' or 'file')");
}

void SimulatedPageStore::FetchPage(PageId /*page*/) {
  fetches_.fetch_add(1, std::memory_order_relaxed);
}

// --------------------------------------------------------- FilePageStore

Result<std::unique_ptr<FilePageStore>> FilePageStore::Open(
    int fd, const std::string& path, std::vector<Extent> extents,
    IoMode mode) {
  std::sort(extents.begin(), extents.end(),
            [](const Extent& a, const Extent& b) {
              return a.first_page < b.first_page;
            });
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return Status::IoError("cannot stat index file '" + path +
                           "': " + std::strerror(err));
  }
  const uint64_t file_bytes = static_cast<uint64_t>(st.st_size);

  PageId prev_end_page = 0;
  bool first = true;
  for (const Extent& e : extents) {
    if (e.page_count == 0 || e.slot_bytes == 0) {
      ::close(fd);
      return Status::InvalidArgument("page-store extent is empty");
    }
    if (!first && e.first_page < prev_end_page) {
      ::close(fd);
      return Status::InvalidArgument("page-store extents overlap");
    }
    first = false;
    prev_end_page = e.first_page + e.page_count;
    const uint64_t extent_bytes = e.page_count * uint64_t{e.slot_bytes};
    if (e.file_offset > file_bytes ||
        extent_bytes > file_bytes - e.file_offset) {
      ::close(fd);
      return Status::InvalidArgument(
          "page-store extent reaches past the end of '" + path + "'");
    }
  }

  const uint8_t* map = nullptr;
  if (mode != IoMode::kPread && file_bytes > 0) {
    void* m = ::mmap(nullptr, file_bytes, PROT_READ, MAP_PRIVATE, fd, 0);
    if (m == MAP_FAILED) {
      if (mode == IoMode::kMmap) {
        const int err = errno;
        ::close(fd);
        return Status::IoError("cannot mmap index file '" + path +
                               "': " + std::strerror(err));
      }
      // kAuto degrades to pread.
    } else {
      // Index lookups jump between tree levels; readahead would fetch
      // neighbours the query never visits.
      ::madvise(m, file_bytes, MADV_RANDOM);
      map = static_cast<const uint8_t*>(m);
    }
  }
  return std::unique_ptr<FilePageStore>(
      new FilePageStore(path, std::move(extents), fd, map, file_bytes));
}

FilePageStore::FilePageStore(std::string path, std::vector<Extent> extents,
                             int fd, const uint8_t* map, uint64_t file_bytes)
    : path_(std::move(path)),
      extents_(std::move(extents)),
      fd_(fd),
      map_(map),
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
  if (map_ != nullptr) {
    ::munmap(const_cast<uint8_t*>(map_), file_bytes_);
  }
  ::close(fd_);
}

const FilePageStore::Extent* FilePageStore::LookupExtent(PageId page) const {
  size_t lo = 0;
  size_t hi = extents_.size();
  while (lo < hi) {
    const size_t mid = lo + (hi - lo) / 2;
    const Extent& e = extents_[mid];
    if (page < e.first_page) {
      hi = mid;
    } else if (page - e.first_page >= e.page_count) {
      lo = mid + 1;
    } else {
      return &e;
    }
  }
  return nullptr;
}

void FilePageStore::RecordFetchError(FetchErrorKind kind, PageId page,
                                     int err) {
  last_error_kind_.store(static_cast<uint8_t>(kind),
                         std::memory_order_relaxed);
  last_error_errno_.store(err, std::memory_order_relaxed);
  last_error_page_.store(page, std::memory_order_relaxed);
  io_errors_.fetch_add(1, std::memory_order_relaxed);
}

Status FilePageStore::last_error() const {
  const auto kind = static_cast<FetchErrorKind>(
      last_error_kind_.load(std::memory_order_relaxed));
  const uint64_t page = last_error_page_.load(std::memory_order_relaxed);
  switch (kind) {
    case FetchErrorKind::kNone:
      return Status::OK();
    case FetchErrorKind::kUnmappedPage:
      return Status::IoError("page " + std::to_string(page) +
                             " is outside every extent of '" + path_ + "'");
    case FetchErrorKind::kPreadFailed:
      return Status::IoError(
          "pread failed for page " + std::to_string(page) + " of '" + path_ +
          "': " +
          std::strerror(last_error_errno_.load(std::memory_order_relaxed)));
    case FetchErrorKind::kTornPage:
      return Status::Corruption("torn page " + std::to_string(page) +
                                ": '" + path_ +
                                "' ends inside the slot (short read)");
  }
  return Status::Internal("unknown fetch error kind");
}

void FilePageStore::FetchPage(PageId page) {
  Timer timer;
  const Extent* extent = LookupExtent(page);
  if (extent == nullptr) {
    RecordFetchError(FetchErrorKind::kUnmappedPage, page, 0);
    return;
  }
  const uint64_t offset =
      extent->file_offset + (page - extent->first_page) * extent->slot_bytes;
  uint64_t fetched = 0;
  if (map_ != nullptr) {
    // One touch per cache line plus the slot's last byte; the fold keeps
    // the reads observable so the mapping is actually paged in.
    const uint8_t* slot = map_ + offset;
    uint64_t fold = 0;
    for (uint32_t i = 0; i < extent->slot_bytes; i += 64) fold += slot[i];
    fold += slot[extent->slot_bytes - 1];
    fold_sink_.store(fold, std::memory_order_relaxed);
    fetched = extent->slot_bytes;
  } else {
    uint8_t buffer[4096];
    uint64_t remaining = extent->slot_bytes;
    uint64_t position = offset;
    while (remaining > 0) {
      const size_t want = remaining < sizeof(buffer)
                              ? static_cast<size_t>(remaining)
                              : sizeof(buffer);
      const ssize_t got =
          pread_fn_(fd_, buffer, want, static_cast<off_t>(position));
      if (got < 0) {
        // EINTR is not a failure: the read was merely interrupted by a
        // signal and must be retried at the same position.
        if (errno == EINTR) continue;
        RecordFetchError(FetchErrorKind::kPreadFailed, page, errno);
        break;
      }
      if (got == 0) {
        // EOF inside a slot: the file is shorter than the extent table
        // promised.  A partially filled page must never be served as
        // complete — record it as a torn page.
        RecordFetchError(FetchErrorKind::kTornPage, page, 0);
        break;
      }
      position += static_cast<uint64_t>(got);
      remaining -= static_cast<uint64_t>(got);
      fetched += static_cast<uint64_t>(got);
    }
  }
  fetches_.fetch_add(1, std::memory_order_relaxed);
  bytes_read_.fetch_add(fetched, std::memory_order_relaxed);
  metric_fetches_.Increment();
  metric_bytes_.Increment(fetched);
  metric_latency_.Record(timer.ElapsedMillis());
}

}  // namespace stpq

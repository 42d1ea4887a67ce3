// External-memory bulk loader: builds a .stpqx index file directly from a
// .stpq dataset in bounded memory.
//
// The in-memory path (Engine::Build + Engine::Save) materializes every
// record and every tree node before serializing; this loader never does.
// It streams the dataset twice:
//
//   survey pass    counts, segment sizes (the record encoders run through
//                  counting writers) and the sort domains — enough to fix
//                  every tree's geometry, shape and node ids and the
//                  complete segment plan up front.
//   content pass   streams the record segments into place, feeding each
//                  tree's leaf entries through an external merge sort on
//                  the Hilbert sort key, then through the LevelPacker that
//                  RTree::BulkLoadSorted also drives; each node slot is
//                  written the moment it closes.
//
// One module decides every layout choice (io/index_format.h for the
// bytes, rtree/bulk_load.h for the packing, the index types for their
// geometry), so the output is byte-identical to Engine::Build +
// Engine::Save by construction: same superblock, catalog, segment bytes,
// node ids and checksums, hence the same golden I/O counts and query
// results.  tests/bulk_load_test.cc checks the identity;
// tests/format_golden_test.cc pins the bytes.
#ifndef STPQ_IO_BULK_LOAD_H_
#define STPQ_IO_BULK_LOAD_H_

#include <cstdint>
#include <string>

#include "io/index_file.h"
#include "util/result.h"
#include "util/status.h"

namespace stpq {

/// Knobs for BuildIndexFileExternal.
struct ExternalBuildOptions {
  /// Same parameters the in-memory writer records in the superblock.
  /// Only bulk_load == kHilbert is supported (the sort order must be a
  /// key the merge sort can reproduce).
  IndexBuildParams params;
  /// Approximate ceiling on working memory: bounds the sort buffer and
  /// the merge fan-in read buffers.  Must be at least 4096 bytes; small
  /// values force runs to spill, which the tests use to exercise the
  /// multi-pass merge.
  uint64_t memory_budget_bytes = uint64_t{256} << 20;
  /// Where sorted runs spill; empty = next to the output index.
  std::string temp_dir;
};

/// What the build did; surfaced by `stpq_cli build --external` and
/// mirrored into the stpq_bulk_* metrics.
struct ExternalBuildStats {
  uint64_t objects = 0;
  uint64_t features = 0;  ///< across all tables
  uint32_t tables = 0;
  uint64_t runs_written = 0;   ///< sorted run files (spills + merges)
  uint64_t merge_passes = 0;   ///< merge rounds, including the final one
  uint64_t spilled_bytes = 0;  ///< bytes written to run files
  uint64_t output_bytes = 0;   ///< final .stpqx size
};

/// Builds `index_path` from the .stpq dataset at `dataset_path` without
/// materializing the dataset or any tree in memory.  The write is
/// crash-safe (AtomicFile: tmp + fsync + rename).  Typed errors:
/// InvalidArgument for unsupported parameters or a malformed dataset,
/// IoError for read/write failures.
[[nodiscard]] Result<ExternalBuildStats> BuildIndexFileExternal(
    const std::string& dataset_path, const std::string& index_path,
    const ExternalBuildOptions& options);

}  // namespace stpq

#endif  // STPQ_IO_BULK_LOAD_H_

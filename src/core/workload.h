// Workload evaluation: run a query batch and summarize per-query costs.
//
// This is the measurement harness the paper's evaluation implies ("every
// reported value is the average of 1,000 random queries"), packaged as a
// library utility so users can benchmark their own datasets: means and
// tail percentiles for CPU, simulated I/O and total time, plus the
// aggregated algorithm counters.
//
// ParallelWorkloadRunner fans the batch across a fixed thread pool (one
// thread runs it sequentially).  The engine's read path is thread-safe,
// and with the default cold_cache_per_query accounting every thread count
// reports identical per-query results and page-read counts (DESIGN.md
// §11).
#ifndef STPQ_CORE_WORKLOAD_H_
#define STPQ_CORE_WORKLOAD_H_

#include <string>
#include <vector>

#include "core/engine.h"
#include "core/query.h"
#include "obs/histogram.h"
#include "util/result.h"

namespace stpq {

/// Distribution summary of one per-query cost metric (milliseconds).
struct MetricSummary {
  double mean = 0.0;
  double p50 = 0.0;
  double p90 = 0.0;
  double p95 = 0.0;
  double p99 = 0.0;
  double max = 0.0;
};

/// Result of running a workload through one engine + algorithm.
struct WorkloadSummary {
  size_t queries = 0;
  MetricSummary cpu_ms;
  MetricSummary io_ms;
  MetricSummary total_ms;
  double mean_page_reads = 0.0;
  QueryStats aggregate;  ///< summed counters over the whole workload

  std::string ToString() const;
};

/// Knobs for the parallel driver.
struct ParallelWorkloadOptions {
  Algorithm algorithm = Algorithm::kStps;
  /// Worker threads; 0 picks std::thread::hardware_concurrency().
  size_t threads = 1;
  /// Price of one simulated page read in milliseconds (the paper's
  /// dark-bar constant); it feeds the summary's io_ms and total_ms only.
  double io_unit_cost_ms = 0.0;
  /// Optional slow-query capture shared by the workers; not owned.
  SlowQueryLog* slow_log = nullptr;
};

/// Outcome of a parallel run: the merged summary, the per-query results in
/// input order (independent of scheduling), and throughput.
struct ParallelWorkloadReport {
  WorkloadSummary summary;
  std::vector<QueryResult> per_query;  ///< one entry per input query
  double wall_ms = 0.0;                ///< end-to-end batch wall time
  double queries_per_sec = 0.0;        ///< throughput over wall time
  /// Per-query measured latency (QueryStats::cpu_ms, no modelled I/O),
  /// accumulated in one LatencyHistogram per worker thread and merged
  /// after the join — no locks or atomics touch the recording path
  /// (DESIGN.md §12).
  LatencyHistogram latency;
};

/// Fans a query batch across a fixed pool of N threads over one engine.
/// Work is distributed dynamically (an atomic cursor over the batch), each
/// query's stats are merged through a thread-safe QueryStatsSink, and the
/// per-query results land in input order.
class ParallelWorkloadRunner {
 public:
  /// `engine` is not owned and must outlive the runner.
  explicit ParallelWorkloadRunner(const Engine* engine) : engine_(engine) {}

  /// Runs the batch.  Every query is validated up front, so a non-OK
  /// status means nothing was executed; worker threads cannot fail.
  [[nodiscard]] Result<ParallelWorkloadReport> Run(
      const std::vector<Query>& queries,
      const ParallelWorkloadOptions& options) const;

 private:
  const Engine* engine_;
};

}  // namespace stpq

#endif  // STPQ_CORE_WORKLOAD_H_

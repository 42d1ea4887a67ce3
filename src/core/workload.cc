#include "core/workload.h"

#include <algorithm>
#include <atomic>
#include <sstream>
#include <thread>

#include "util/logging.h"
#include "util/thread_annotations.h"
#include "util/timer.h"

namespace stpq {

namespace {

MetricSummary Summarize(std::vector<double> values) {
  MetricSummary out;
  if (values.empty()) return out;
  double sum = 0.0;
  for (double v : values) sum += v;
  out.mean = sum / static_cast<double>(values.size());
  std::sort(values.begin(), values.end());
  auto percentile = [&](double p) {
    size_t idx = static_cast<size_t>(p * (values.size() - 1) + 0.5);
    return values[std::min(idx, values.size() - 1)];
  };
  out.p50 = percentile(0.50);
  out.p90 = percentile(0.90);
  out.p95 = percentile(0.95);
  out.p99 = percentile(0.99);
  out.max = values.back();
  return out;
}

/// Builds the distribution summary from executed results (the aggregate
/// counters are filled by the caller, which owns how they were collected).
WorkloadSummary SummarizeResults(const std::vector<QueryResult>& results,
                                 double io_unit_cost_ms) {
  WorkloadSummary out;
  out.queries = results.size();
  std::vector<double> cpu, io, total;
  cpu.reserve(results.size());
  io.reserve(results.size());
  total.reserve(results.size());
  uint64_t reads = 0;
  for (const QueryResult& r : results) {
    double io_ms = r.stats.IoMillis(io_unit_cost_ms);
    cpu.push_back(r.stats.cpu_ms);
    io.push_back(io_ms);
    total.push_back(r.stats.cpu_ms + io_ms);
    reads += r.stats.TotalReads();
  }
  out.cpu_ms = Summarize(std::move(cpu));
  out.io_ms = Summarize(std::move(io));
  out.total_ms = Summarize(std::move(total));
  if (!results.empty()) {
    out.mean_page_reads =
        static_cast<double>(reads) / static_cast<double>(results.size());
  }
  return out;
}

/// Mutex-guarded stats accumulator shared by the parallel workers.
class AggregatingStatsSink : public QueryStatsSink {
 public:
  void Record(const QueryStats& stats) override STPQ_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    total_ += stats;
  }

  QueryStats total() const STPQ_EXCLUDES(mu_) {
    MutexLock lock(mu_);
    return total_;
  }

 private:
  mutable Mutex mu_;
  QueryStats total_ STPQ_GUARDED_BY(mu_);
};

}  // namespace

std::string WorkloadSummary::ToString() const {
  std::ostringstream os;
  os << queries << " queries: total mean=" << total_ms.mean
     << "ms p50=" << total_ms.p50 << " p90=" << total_ms.p90
     << " p95=" << total_ms.p95 << " p99=" << total_ms.p99
     << " max=" << total_ms.max << " (cpu mean=" << cpu_ms.mean
     << ", io mean=" << io_ms.mean << ", reads/query=" << mean_page_reads
     << ")";
  return os.str();
}

Result<ParallelWorkloadReport> ParallelWorkloadRunner::Run(
    const std::vector<Query>& queries,
    const ParallelWorkloadOptions& options) const {
  STPQ_CHECK(engine_ != nullptr);
  for (size_t i = 0; i < queries.size(); ++i) {
    Status st = engine_->ValidateQuery(queries[i]);
    if (!st.ok()) {
      return Status::InvalidArgument("query " + std::to_string(i) + ": " +
                                     st.message());
    }
  }
  size_t threads = options.threads;
  if (threads == 0) {
    threads = std::max(1u, std::thread::hardware_concurrency());
  }
  threads = std::max<size_t>(1, std::min(threads, queries.size()));
  if (queries.empty()) threads = 1;

  ParallelWorkloadReport report;
  report.per_query.resize(queries.size());

  AggregatingStatsSink sink;
  ExecuteOptions exec_options;
  exec_options.algorithm = options.algorithm;
  exec_options.stats_sink = &sink;
  exec_options.slow_log = options.slow_log;

  // Dynamic work distribution: each worker claims the next unprocessed
  // query.  Results land in distinct slots, so only the claim counter and
  // the sink are shared; latency histograms are strictly per-thread and
  // merged only after the join (single-writer, no synchronization).
  std::atomic<size_t> next{0};
  std::vector<LatencyHistogram> thread_hist(threads);
  auto worker = [&](size_t tid) {
    LatencyHistogram& hist = thread_hist[tid];
    while (true) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= queries.size()) return;
      Result<QueryResult> r = engine_->Execute(queries[i], exec_options);
      STPQ_CHECK(r.ok());  // pre-validated above
      hist.Record(r.value().stats.cpu_ms);
      report.per_query[i] = r.TakeValue();
    }
  };

  Timer wall;
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (size_t t = 0; t < threads; ++t) pool.emplace_back(worker, t);
  for (std::thread& t : pool) t.join();
  report.wall_ms = wall.ElapsedMillis();
  for (const LatencyHistogram& h : thread_hist) report.latency.Merge(h);

  report.summary = SummarizeResults(report.per_query, options.io_unit_cost_ms);
  report.summary.aggregate = sink.total();
  if (report.wall_ms > 0.0) {
    report.queries_per_sec =
        static_cast<double>(queries.size()) / (report.wall_ms / 1000.0);
  }
  return report;
}

}  // namespace stpq

#include "workload.h"

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <thread>
#include <utility>

#include "checks.h"
#include "common.h"
#include "core/engine.h"
#include "core/score.h"
#include "core/workload.h"
#include "gen/queries.h"
#include "gen/real_like.h"
#include "gen/synthetic.h"
#include "io/bulk_load.h"
#include "io/dataset_io.h"
#include "obs/trace.h"

namespace perfbench {
namespace {

using stpq::Engine;
using stpq::FeatureIndexKind;
using stpq::Query;
using stpq::QueryResult;
using stpq::QueryStats;
using stpq::ScoreVariant;

// The shape of each workload.  The reason each one exists is recorded
// next to its name in BENCHMARK.json (perfbench/run.py writes it).
struct WorkloadSpec {
  const char* name;
  /// The real-like generator at scale 1.0, else the clustered synthetic
  /// one with two feature sets and 128 keywords.
  bool real_like;
  uint32_t objects;           ///< synthetic: |O|
  uint32_t features_per_set;  ///< synthetic: |F_i|
  FeatureIndexKind index_kind;
  ScoreVariant variant;
  /// Build+Save and the external build write the index, which is dropped
  /// from the page cache and served by Engine::Open through one shared,
  /// warm LRU pool.  Otherwise the engine is built in memory and every
  /// query runs against its own cold session pool.
  bool file_backed;
  size_t clients;
  size_t warmup_queries;  ///< the warm-up runs these twice
};

const WorkloadSpec kWorkloads[] = {
    {.name = "range_mem",
     .real_like = false,
     .objects = 50'000,
     .features_per_set = 50'000,
     .index_kind = FeatureIndexKind::kSrt,
     .variant = ScoreVariant::kRange,
     .file_backed = false,
     .clients = 1,
     .warmup_queries = 100},
    {.name = "file_shared_pool",
     .real_like = true,
     .objects = 0,
     .features_per_set = 0,
     .index_kind = FeatureIndexKind::kIr2,
     .variant = ScoreVariant::kRange,
     .file_backed = true,
     .clients = 2,
     .warmup_queries = 200},
    {.name = "nn_voronoi",
     .real_like = false,
     .objects = 10'000,
     .features_per_set = 10'000,
     .index_kind = FeatureIndexKind::kSrt,
     .variant = ScoreVariant::kNearestNeighbor,
     .file_backed = false,
     .clients = 1,
     .warmup_queries = 50},
};

/// Distinct queries per run.  The timed loop answers each at least once,
/// so latency_p99_ms has at least 10 samples beyond it.
constexpr size_t kQueryPool = 1000;
/// Answers re-checked (Tau, STDS) after the timed loop.
constexpr size_t kCheckedQueries = 20;
/// setup_s is the median of this many complete set-ups per run.
constexpr int kSetupRepetitions = 5;
/// Sort budget of the external build: small enough that its leaf sort
/// spills runs and merges them.
constexpr uint64_t kExternalBudgetBytes = uint64_t{1} << 20;
/// File-backed answers compared against the in-memory engine's.
constexpr size_t kFileVsMemoryQueries = 50;
/// Reconciliation tolerance: the layers must add up to the measured
/// Execute wall time within this share of it.
constexpr double kReconcileTolerance = 0.02;
/// Slack for comparing the engine's timer with the harness's enclosing
/// one (two clock reads of steady_clock).
constexpr double kClockSlackMs = 0.005;
/// The timed loop is cut into this many equal windows: the times in each
/// are scaled by its own reference units, and qps is the median of their
/// rates.
constexpr size_t kQpsWindows = 10;
/// latency_p99_ms is the median of the p99s of blocks of at least this
/// many consecutive queries.
constexpr size_t kP99Block = 1000;
/// Reference units run right before and right after each set-up.
constexpr int kSetupReferenceUnits = 50;
/// Failure messages kept per run.
constexpr size_t kMaxFailureMessages = 5;

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : kWorkloads) {
    if (name == spec.name) return &spec;
  }
  return nullptr;
}

const char* KindName(FeatureIndexKind kind) {
  return kind == FeatureIndexKind::kIr2 ? "IR2" : "SRT";
}

// ------------------------------------------------------------- spans

/// One span the harness records around a call into a layer.  Timestamps
/// come from the tracer's clock so they line up with the program's own
/// trace events.
struct Span {
  const char* name;
  uint64_t begin_ns;
  uint64_t end_ns;
  int64_t query;    ///< pool index of the query, -1 outside queries
  uint32_t client;  ///< 0 = main thread, else client thread number
};

/// Runs `fn`, records a span named `name` and stores its length in `*ms`.
template <typename Fn>
auto TimedCall(std::vector<Span>* spans, const char* name, double* ms,
               Fn&& fn) {
  const uint64_t begin = stpq::Tracer::NowNs();
  auto result = fn();
  const uint64_t end = stpq::Tracer::NowNs();
  *ms = static_cast<double>(end - begin) * 1e-6;
  spans->push_back({name, begin, end, -1, 0});
  return result;
}

/// Writes spans as Chrome trace-event JSON (loadable in Perfetto).
bool WriteSpans(const std::string& path, const std::vector<Span>& spans) {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"traceEvents\":[";
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"query\":%" PRId64 "}}",
                  i == 0 ? "" : ",\n", s.name, s.client,
                  static_cast<double>(s.begin_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.begin_ns) * 1e-3, s.query);
    out << buf;
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

// ------------------------------------------------------------- inputs

stpq::Dataset MakeDataset(const WorkloadSpec& spec, uint64_t seed) {
  if (spec.real_like) {
    stpq::RealLikeConfig config;
    config.seed = seed;
    return stpq::GenerateRealLike(config);
  }
  stpq::SyntheticConfig config;
  config.seed = seed;
  config.num_objects = spec.objects;
  config.num_features_per_set = spec.features_per_set;
  return stpq::GenerateSynthetic(config);
}

size_t FeatureCount(const stpq::Dataset& dataset) {
  size_t n = 0;
  for (const stpq::FeatureTable& t : dataset.feature_tables) n += t.size();
  return n;
}

/// Nodes of every tree of `engine` (one pool page each).
uint64_t IndexPages(const Engine& engine) {
  uint64_t pages = engine.object_index().tree().node_count();
  for (size_t i = 0; i < engine.num_feature_sets(); ++i) {
    const stpq::FeatureIndex* index = &engine.feature_index(i);
    if (const auto* srt = dynamic_cast<const stpq::SrtIndex*>(index)) {
      pages += srt->tree().node_count();
    } else if (const auto* ir2 = dynamic_cast<const stpq::Ir2Tree*>(index)) {
      pages += ir2->tree().node_count();
    }
  }
  return pages;
}

// ------------------------------------------------------------- setup

struct Setup {
  std::unique_ptr<Engine> engine;     ///< serves the timed loop
  std::unique_ptr<Engine> in_memory;  ///< file-backed: the engine Build made
  double setup_s = 0.0;
  /// Mean reference unit right before and right after this set-up.
  double reference_ms = 0.0;
  double dataset_write_ms = 0.0;
  double build_ms = 0.0;
  double save_ms = 0.0;
  double external_build_ms = 0.0;
  double open_ms = 0.0;
  double first_pass_ms = 0.0;
  double steady_pass_ms = 0.0;
  stpq::ExternalBuildStats external;
  double resident_after_drop = -1.0;  ///< share of the index still cached
  uint64_t pool_capacity = 0;
  std::string saved_path;     ///< file-backed: Build+Save output
  std::string external_path;  ///< file-backed: external build output
};

std::unique_ptr<Engine> TakeEngine(stpq::Result<Engine> r, const char* what,
                                   std::string* error) {
  if (!r.ok()) {
    *error = std::string(what) + ": " + r.status().ToString();
    return nullptr;
  }
  return std::make_unique<Engine>(r.TakeValue());
}

/// Runs the warm-up batch twice through ParallelWorkloadRunner; every
/// answer must pass the shape check.
bool WarmUp(const Engine& engine, const std::vector<Query>& batch,
            size_t clients, const stpq::Dataset& dataset, Setup* setup,
            std::vector<Span>* spans, std::string* error) {
  stpq::ParallelWorkloadOptions options;
  options.algorithm = stpq::Algorithm::kStps;
  options.threads = clients;
  const stpq::ParallelWorkloadRunner runner(&engine);
  double* pass_ms[2] = {&setup->first_pass_ms, &setup->steady_pass_ms};
  const char* names[2] = {"core.warmup_first_pass", "core.warmup_steady_pass"};
  for (int pass = 0; pass < 2; ++pass) {
    stpq::Result<stpq::ParallelWorkloadReport> report = TimedCall(
        spans, names[pass], pass_ms[pass],
        [&] { return runner.Run(batch, options); });
    if (!report.ok()) {
      *error = "warm-up: " + report.status().ToString();
      return false;
    }
    for (size_t i = 0; i < batch.size(); ++i) {
      const std::string why =
          CheckShape(batch[i], report.value().per_query[i], dataset.objects);
      if (!why.empty()) {
        *error = "warm-up answer " + std::to_string(i) + ": " + why;
        return false;
      }
    }
  }
  return true;
}

/// One complete set-up: from the first library call to the engine that is
/// ready for the first timed query, including the warm-up.
bool RunSetup(const WorkloadSpec& spec, const stpq::Dataset& dataset,
              const std::vector<Query>& warmup, const std::string& work_dir,
              Setup* setup, std::vector<Span>* spans, std::string* error) {
  stpq::EngineOptions options;
  options.index_kind = spec.index_kind;
  // Build takes its inputs by value; copying them is the caller's cost.
  std::vector<stpq::DataObject> objects = dataset.objects;
  std::vector<stpq::FeatureTable> tables = dataset.feature_tables;

  const Clock::time_point start = Clock::now();
  std::unique_ptr<Engine> built = TakeEngine(
      TimedCall(spans, "core.build", &setup->build_ms,
                [&] {
                  return Engine::Build(std::move(objects), std::move(tables),
                                       options);
                }),
      "Engine::Build", error);
  if (built == nullptr) return false;
  if (!spec.file_backed) {
    setup->engine = std::move(built);
  } else {
    setup->in_memory = std::move(built);
    const std::string data_path = work_dir + "/dataset.stpq";
    setup->saved_path = work_dir + "/saved.stpqx";
    setup->external_path = work_dir + "/external.stpqx";
    const stpq::Status written =
        TimedCall(spans, "io.dataset_write", &setup->dataset_write_ms,
                  [&] { return stpq::WriteDatasetBinary(data_path, dataset); });
    if (!written.ok()) {
      *error = "WriteDatasetBinary: " + written.ToString();
      return false;
    }
    const stpq::Status saved =
        TimedCall(spans, "io.save", &setup->save_ms, [&] {
          return setup->in_memory->Save(setup->saved_path,
                                        dataset.vocabularies);
        });
    if (!saved.ok()) {
      *error = "Engine::Save: " + saved.ToString();
      return false;
    }
    stpq::ExternalBuildOptions ext;
    ext.params.index_kind = spec.index_kind;
    ext.memory_budget_bytes = kExternalBudgetBytes;
    ext.temp_dir = work_dir;
    stpq::Result<stpq::ExternalBuildStats> external =
        TimedCall(spans, "io.external_build", &setup->external_build_ms, [&] {
          return stpq::BuildIndexFileExternal(data_path, setup->external_path,
                                              ext);
        });
    if (!external.ok()) {
      *error = "BuildIndexFileExternal: " + external.status().ToString();
      return false;
    }
    setup->external = external.value();
    const std::string dropped = DropFromPageCache(setup->saved_path);
    if (!dropped.empty()) {
      *error = dropped;
      return false;
    }
    setup->resident_after_drop = ResidentFraction(setup->saved_path);
    stpq::EngineOptions open_options;
    open_options.cold_cache_per_query = false;
    setup->pool_capacity =
        std::max<uint64_t>(1, IndexPages(*setup->in_memory) / 4);
    open_options.storage.pool_capacity = setup->pool_capacity;
    setup->engine = TakeEngine(
        TimedCall(spans, "io.open", &setup->open_ms,
                  [&] {
                    return Engine::Open(setup->saved_path, open_options);
                  }),
        "Engine::Open", error);
    if (setup->engine == nullptr) return false;
  }
  if (!WarmUp(*setup->engine, warmup, spec.clients, dataset, setup, spans,
              error)) {
    return false;
  }
  setup->setup_s = MsBetween(start, Clock::now()) * 1e-3;
  return true;
}

// ------------------------------------------------------------- timed loop

struct PhaseOptions {
  size_t clients = 1;
  double seconds = 0.0;
  /// The loop runs until both `seconds` have passed and this many queries
  /// have been handed out.
  size_t min_queries = 0;
  /// Arm capture of the program's trace events and record spans.
  bool traced = false;
  /// Run a reference unit after each query, so its times can be scaled
  /// to the nominal host.
  bool reference = false;
};

struct QuerySample {
  uint32_t pool_index = 0;
  uint32_t client = 0;
  uint64_t end_ns = 0;  ///< completion time on the tracer's clock
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
  /// The reference unit run after this query.
  ReferenceTime reference;
  /// wall_ms and cpu_ms at the nominal host's speed.
  double scaled_wall_ms = 0.0;
  double scaled_cpu_ms = 0.0;
  uint64_t reads = 0;
  bool failed = false;
};

/// What one client observed; the phase merges its clients' tallies.
struct Tally {
  std::vector<QuerySample> samples;
  QueryStats totals;  ///< summed over the answered queries
  std::vector<std::string> failures;
  // Traced loops only.
  std::vector<Span> spans;
  double measured_ms = 0.0;  ///< sum of Execute wall times
  double overhead_ms = 0.0;  ///< sum of (Execute wall - stats.cpu_ms)
  /// Sum over queries of |phases + untraced + overhead - Execute wall|.
  double residual_ms = 0.0;
  double trace_phase_ms = 0.0;  ///< phase self-times from the trace events
  uint64_t enclosing_violations = 0;  ///< engine timer outside the span
  uint64_t trace_events = 0;
  uint64_t unnested_events = 0;  ///< program events outside core.execute
  uint64_t unbalanced_queries = 0;  ///< begin/end events that do not pair

  void Merge(Tally&& other) {
    samples.insert(samples.end(), other.samples.begin(), other.samples.end());
    totals += other.totals;
    for (std::string& f : other.failures) {
      if (failures.size() < kMaxFailureMessages) {
        failures.push_back(std::move(f));
      }
    }
    spans.insert(spans.end(), other.spans.begin(), other.spans.end());
    measured_ms += other.measured_ms;
    overhead_ms += other.overhead_ms;
    residual_ms += other.residual_ms;
    trace_phase_ms += other.trace_phase_ms;
    enclosing_violations += other.enclosing_violations;
    trace_events += other.trace_events;
    unnested_events += other.unnested_events;
    unbalanced_queries += other.unbalanced_queries;
  }
};

struct Phase : Tally {
  /// First answer to each pool query, by pool index (empty when the
  /// loop did not reach it).
  std::vector<QueryResult> answers;
  uint64_t start_ns = 0;  ///< loop start on the tracer's clock
  double wall_s = 0.0;
  stpq::PageStoreStats store;   ///< store counter deltas over the loop
  stpq::BufferPoolStats pools;  ///< shared-pool counter deltas

  size_t failed() const {
    size_t n = 0;
    for (const QuerySample& s : samples) n += s.failed;
    return n;
  }
  double qps() const {
    return wall_s > 0 ? static_cast<double>(samples.size()) / wall_s : 0.0;
  }
  /// Which of `windows` equal windows of the first `seconds` of the loop
  /// `s` completed in; `windows` when it completed after them.
  size_t WindowOf(const QuerySample& s, double seconds,
                  size_t windows) const {
    const double window_ns = seconds * 1e9 / static_cast<double>(windows);
    return std::min(windows, static_cast<size_t>(static_cast<double>(
                                                     s.end_ns - start_ns) /
                                                 window_ns));
  }
  /// Sets every sample's scaled times from the mean reference unit of its
  /// window (the queries after the windows count with the last one).  A
  /// window pools many units, so a few the host interrupted move its mean
  /// by their share of the window's time, as they do the queries'.
  void ScaleToReference(double seconds, size_t windows) {
    std::vector<double> wall(windows, 0.0);
    std::vector<double> cpu(windows, 0.0);
    std::vector<double> units(windows, 0.0);
    for (const QuerySample& s : samples) {
      const size_t w = std::min(windows - 1, WindowOf(s, seconds, windows));
      wall[w] += s.reference.wall_ms;
      cpu[w] += s.reference.cpu_ms;
      units[w] += 1;
    }
    for (QuerySample& s : samples) {
      const size_t w = std::min(windows - 1, WindowOf(s, seconds, windows));
      s.scaled_wall_ms = s.wall_ms * kNominalReferenceMs * units[w] / wall[w];
      s.scaled_cpu_ms = s.cpu_ms * kNominalReferenceMs * units[w] / cpu[w];
    }
  }
  /// The closed loop's rate at the nominal host's speed in each of
  /// `windows` equal windows of the first `seconds` of the loop: the sum
  /// over clients of queries completed / their scaled Execute time.
  std::vector<double> ScaledWindowRates(double seconds, size_t windows,
                                        size_t clients) const {
    std::vector<uint64_t> count(windows * clients, 0);
    std::vector<double> busy_ms(windows * clients, 0.0);
    for (const QuerySample& s : samples) {
      const size_t w = WindowOf(s, seconds, windows);
      if (w >= windows) continue;
      ++count[w * clients + s.client];
      busy_ms[w * clients + s.client] += s.scaled_wall_ms;
    }
    std::vector<double> rates;
    for (size_t w = 0; w < windows; ++w) {
      double rate = 0.0;
      for (size_t c = 0; c < clients; ++c) {
        const size_t i = w * clients + c;
        if (busy_ms[i] > 0) rate += static_cast<double>(count[i]) * 1e3 /
                                    busy_ms[i];
      }
      if (rate > 0) rates.push_back(rate);
    }
    return rates;
  }
};

stpq::BufferPoolStats SharedPoolStats(const Engine& engine) {
  const stpq::BufferPoolStats o = engine.object_pool().stats();
  const stpq::BufferPoolStats f = engine.feature_pool().stats();
  return {o.reads + f.reads, o.hits + f.hits};
}

/// Adds one query's trace events to `tally`: checks that every event lies
/// inside the harness's core.execute span [begin_ns, end_ns], and sums the
/// self-time of the program's phase spans (every span but the query's own
/// outermost one).  Events of one query come from one thread's ring, in
/// emission order.
void AddTraceEvents(const std::vector<stpq::TraceEvent>& events,
                    uint64_t begin_ns, uint64_t end_ns, Tally* tally) {
  struct Open {
    stpq::TraceEventType type;
    uint64_t begin_ns;
    uint64_t child_ns;
  };
  std::vector<Open> stack;
  bool balanced = true;
  for (const stpq::TraceEvent& e : events) {
    ++tally->trace_events;
    if (e.ts_ns < begin_ns || e.ts_ns > end_ns) ++tally->unnested_events;
    if (e.mark == stpq::TraceMark::kBegin) {
      stack.push_back({e.type, e.ts_ns, 0});
    } else if (e.mark == stpq::TraceMark::kEnd) {
      if (stack.empty() || stack.back().type != e.type) {
        balanced = false;
        break;
      }
      const Open span = stack.back();
      stack.pop_back();
      const uint64_t length = e.ts_ns - span.begin_ns;
      if (span.type != stpq::TraceEventType::kQuery) {
        tally->trace_phase_ms +=
            static_cast<double>(length - std::min(length, span.child_ns)) *
            1e-6;
      }
      if (!stack.empty()) stack.back().child_ns += length;
    }
  }
  if (!balanced || !stack.empty()) ++tally->unbalanced_queries;
}

/// Closed loop: each client sends its next query only after the previous
/// one returned.  Queries are handed out in pool order from one counter.
Phase RunPhase(const Engine& engine, const std::vector<Query>& pool,
               const stpq::Dataset& dataset, const PhaseOptions& opt) {
  Phase phase;
  phase.answers.resize(pool.size());
  std::vector<Tally> tallies(opt.clients);
  std::vector<Clock::time_point> ends(opt.clients);
  std::atomic<size_t> next{0};
  std::atomic<bool> go{false};
  Clock::time_point deadline;

  auto client = [&](size_t c) {
    Tally& out = tallies[c];
    // Capacity 1 and threshold 0: after each query the log holds exactly
    // that query's trace events.
    stpq::SlowQueryLog capture(0.0, 1);
    stpq::ExecuteOptions exec;
    exec.algorithm = stpq::Algorithm::kStps;
    if (opt.traced) exec.slow_log = &capture;
    while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
    while (true) {
      const size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= opt.min_queries && Clock::now() >= deadline) break;
      const size_t p = i % pool.size();
      const uint64_t errors_before = engine.page_store().stats().io_errors;
      const double cpu_begin = ThreadCpuMs();
      const uint64_t begin_ns = stpq::Tracer::NowNs();
      stpq::Result<QueryResult> r = engine.Execute(pool[p], exec);
      const uint64_t end_ns = stpq::Tracer::NowNs();
      const double cpu_end = ThreadCpuMs();

      QuerySample sample;
      if (opt.reference) sample.reference = RunReferenceUnit(c);
      sample.pool_index = static_cast<uint32_t>(p);
      sample.client = static_cast<uint32_t>(c);
      sample.end_ns = end_ns;
      sample.wall_ms = static_cast<double>(end_ns - begin_ns) * 1e-6;
      sample.cpu_ms = cpu_end - cpu_begin;
      std::string why;
      if (!r.ok()) {
        why = r.status().ToString();
      } else {
        why = CheckShape(pool[p], r.value(), dataset.objects);
        if (why.empty() &&
            engine.page_store().stats().io_errors != errors_before) {
          why = "page store recorded I/O errors during the query";
        }
      }
      if (!why.empty()) {
        sample.failed = true;
        if (out.failures.size() < kMaxFailureMessages) {
          out.failures.push_back("query " + std::to_string(p) + ": " + why);
        }
      }
      if (r.ok()) {
        const QueryStats& stats = r.value().stats;
        sample.reads = stats.TotalReads();
        out.totals += stats;
        if (opt.traced) {
          const double overhead = sample.wall_ms - stats.cpu_ms;
          out.measured_ms += sample.wall_ms;
          out.overhead_ms += overhead;
          out.residual_ms += std::abs(stats.TracedMillis() +
                                      stats.UntracedMillis() + overhead -
                                      sample.wall_ms);
          if (overhead < -kClockSlackMs) ++out.enclosing_violations;
          out.spans.push_back({"core.execute", begin_ns, end_ns,
                               static_cast<int64_t>(p),
                               static_cast<uint32_t>(c + 1)});
          for (const stpq::SlowQueryRecord& rec : capture.Snapshot()) {
            AddTraceEvents(rec.events, begin_ns, end_ns, &out);
          }
        }
        // Each pool index below pool.size() is handed to exactly one
        // client, so this slot has no other writer.
        if (i < pool.size()) phase.answers[p] = r.TakeValue();
      }
      out.samples.push_back(sample);
    }
    ends[c] = Clock::now();
  };

  const stpq::PageStoreStats store_before = engine.page_store().stats();
  const stpq::BufferPoolStats pools_before = SharedPoolStats(engine);
  std::vector<std::thread> threads;
  for (size_t c = 0; c < opt.clients; ++c) threads.emplace_back(client, c);
  const Clock::time_point start = Clock::now();
  phase.start_ns = stpq::Tracer::NowNs();
  deadline = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(opt.seconds));
  go.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();

  const stpq::PageStoreStats store_after = engine.page_store().stats();
  phase.store = {store_after.fetches - store_before.fetches,
                 store_after.bytes_read - store_before.bytes_read,
                 store_after.io_errors - store_before.io_errors};
  phase.pools = SharedPoolStats(engine) - pools_before;
  for (Tally& t : tallies) phase.Merge(std::move(t));
  if (opt.reference) phase.ScaleToReference(opt.seconds, kQpsWindows);
  phase.wall_s =
      MsBetween(start, *std::max_element(ends.begin(), ends.end())) * 1e-3;
  return phase;
}

// ------------------------------------------------------------- checks

/// Pool indices the post-loop checks look at: `count` evenly spaced ones
/// among those the loop answered.
std::vector<size_t> SampleIndices(const Phase& phase, size_t count) {
  size_t covered = 0;
  while (covered < phase.answers.size() &&
         !phase.answers[covered].entries.empty()) {
    ++covered;
  }
  std::vector<size_t> out;
  for (size_t j = 0; j < count && covered > 0; ++j) {
    const size_t p = j * covered / count;
    if (out.empty() || out.back() != p) out.push_back(p);
  }
  return out;
}

struct CheckOutcome {
  uint64_t checked = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;

  void Record(const std::string& what, const std::string& why) {
    ++checked;
    if (why.empty()) return;
    ++failed;
    if (failures.size() < kMaxFailureMessages) {
      failures.push_back(what + ": " + why);
    }
  }
};

/// Sampled answer checks plus, on cold-session workloads, the check that
/// every execution of a query read exactly as many pages as its first.
CheckOutcome CheckAnswers(const WorkloadSpec& spec, const Setup& setup,
                          const std::vector<Query>& pool, const Phase& phase,
                          const AnswerChecker& checker) {
  CheckOutcome outcome;
  for (size_t p : SampleIndices(phase, kCheckedQueries)) {
    outcome.Record("query " + std::to_string(p),
                   checker.CheckSampled(pool[p], phase.answers[p]));
  }
  if (!spec.file_backed) {
    for (const QuerySample& s : phase.samples) {
      const QueryResult& first = phase.answers[s.pool_index];
      if (s.failed || first.entries.empty()) continue;
      outcome.Record("query " + std::to_string(s.pool_index),
                     s.reads == first.stats.TotalReads()
                         ? ""
                         : "page reads differ between executions");
    }
    return outcome;
  }
  for (size_t p : SampleIndices(phase, kFileVsMemoryQueries)) {
    stpq::Result<QueryResult> mem =
        setup.in_memory->Execute(pool[p], stpq::Algorithm::kStps);
    std::string why = mem.ok() ? "" : mem.status().ToString();
    if (why.empty() && mem.value().entries != phase.answers[p].entries) {
      why = "file-backed answer differs from the in-memory engine's";
    }
    outcome.Record("query " + std::to_string(p), why);
  }
  return outcome;
}

// ------------------------------------------------------------- output

void PrintMetric(RunReport* report, const char* name, double value,
                 const char* unit, const std::string& note = "") {
  std::printf("metric %-40s %14.6f %-6s%s%s\n", name, value, unit,
              note.empty() ? "" : "  ", note.c_str());
  report->metrics.push_back({name, value, unit});
}

double PerQuery(double total, size_t queries) {
  return queries > 0 ? total / static_cast<double>(queries) : 0.0;
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// Each set-up's timings, one entry per repetition.
struct SetupTimes {
  std::vector<double> setup_s, scaled_setup_s, reference_ms,
      dataset_write_ms, build_ms, save_ms, external_build_ms, open_ms,
      first_pass_ms, steady_pass_ms;

  void Add(const Setup& s) {
    setup_s.push_back(s.setup_s);
    scaled_setup_s.push_back(s.setup_s * kNominalReferenceMs /
                             s.reference_ms);
    reference_ms.push_back(s.reference_ms);
    dataset_write_ms.push_back(s.dataset_write_ms);
    build_ms.push_back(s.build_ms);
    save_ms.push_back(s.save_ms);
    external_build_ms.push_back(s.external_build_ms);
    open_ms.push_back(s.open_ms);
    first_pass_ms.push_back(s.first_pass_ms);
    steady_pass_ms.push_back(s.steady_pass_ms);
  }
};

/// Mean wall time of kSetupReferenceUnits reference units run in a row
/// on slot 0.
double ReferenceBurstMs() {
  double total = 0.0;
  for (int i = 0; i < kSetupReferenceUnits; ++i) {
    total += RunReferenceUnit(0).wall_ms;
  }
  return total / kSetupReferenceUnits;
}

std::string JoinNumbers(const std::vector<double>& values) {
  std::string out;
  for (double v : values) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%s%.3f", out.empty() ? "" : " ", v);
    out += buf;
  }
  return out;
}

/// The p99 of `field` in each block of kP99Block consecutive completions
/// (so each has at least 10 samples beyond it), and the median over the
/// blocks: a burst of interference on the machine moves one block.
double BlockP99(const Phase& phase, double QuerySample::*field,
                std::vector<double>* blocks) {
  std::vector<QuerySample> by_end = phase.samples;
  std::sort(by_end.begin(), by_end.end(),
            [](const QuerySample& a, const QuerySample& b) {
              return a.end_ns < b.end_ns;
            });
  const size_t n = by_end.size();
  const size_t count = std::max<size_t>(1, n / kP99Block);
  for (size_t b = 0; b < count; ++b) {
    std::vector<double> block;
    for (size_t i = b * n / count; i < (b + 1) * n / count; ++i) {
      block.push_back(by_end[i].*field);
    }
    blocks->push_back(Percentile(block, 0.99));
  }
  return Median(*blocks);
}

/// Buffer-pool misses per query.  On cold sessions a query's reads are a
/// function of the query, so the mean over the pool (each query once)
/// repeats exactly; on the shared pool it is the mean over the loop.
double PageReadsPerQuery(const WorkloadSpec& spec, const Phase& phase) {
  uint64_t reads = 0;
  size_t queries = 0;
  if (spec.file_backed) {
    for (const QuerySample& s : phase.samples) reads += s.reads;
    queries = phase.samples.size();
  } else {
    for (const QueryResult& a : phase.answers) {
      if (a.entries.empty()) continue;
      reads += a.stats.TotalReads();
      ++queries;
    }
  }
  return PerQuery(static_cast<double>(reads), queries);
}

void ReportEndToEnd(const WorkloadSpec& spec, const Phase& main,
                    double seconds, const SetupTimes& times,
                    double peak_rss_mb, uint64_t index_bytes, size_t records,
                    RunReport* report) {
  const size_t n = main.samples.size();
  std::vector<double> wall, scaled_wall, reference;
  double cpu_ms = 0.0;
  double scaled_cpu_ms = 0.0;
  for (const QuerySample& s : main.samples) {
    wall.push_back(s.wall_ms);
    scaled_wall.push_back(s.scaled_wall_ms);
    reference.push_back(s.reference.wall_ms);
    cpu_ms += s.cpu_ms;
    scaled_cpu_ms += s.scaled_cpu_ms;
  }
  // The times the harness measured, before scaling.
  std::vector<double> raw_blocks;
  std::printf(
      "info measured: loop rate %.3f 1/s, latency p50 %.3f ms, p99 %.3f ms "
      "(median of blocks), cpu %.3f ms per query, setup %s s\n",
      main.qps(), Percentile(wall, 0.50),
      BlockP99(main, &QuerySample::wall_ms, &raw_blocks), PerQuery(cpu_ms, n),
      JoinNumbers(times.setup_s).c_str());
  std::printf(
      "info reference unit: %.4f ms nominal; after each query median %.4f "
      "ms, p10 %.4f, p90 %.4f; around each set-up %s ms\n",
      kNominalReferenceMs, Percentile(reference, 0.50),
      Percentile(reference, 0.10), Percentile(reference, 0.90),
      JoinNumbers(times.reference_ms).c_str());

  const std::string count = "n=" + std::to_string(n);
  const std::vector<double> rates =
      main.ScaledWindowRates(seconds, kQpsWindows, spec.clients);
  std::printf("info qps by window %s; over the loop %.3f\n",
              JoinNumbers(rates).c_str(),
              Median(main.ScaledWindowRates(seconds, 1, spec.clients)));
  PrintMetric(report, "qps", Median(rates), "1/s",
              "nominal host; median of " + std::to_string(rates.size()) +
                  " windows; " +
                  count + " in " + std::to_string(main.wall_s) + " s, " +
                  std::to_string(spec.clients) + " closed-loop clients");
  PrintMetric(report, "latency_p50_ms", Percentile(scaled_wall, 0.50), "ms",
              "nominal host; " + count);
  std::vector<double> blocks;
  const double p99 = BlockP99(main, &QuerySample::scaled_wall_ms, &blocks);
  std::printf("info latency_p99_ms by block %s; over all %zu samples %.3f\n",
              JoinNumbers(blocks).c_str(), n, Percentile(scaled_wall, 0.99));
  PrintMetric(report, "latency_p99_ms", p99, "ms",
              "nominal host; median of " + std::to_string(blocks.size()) +
                  " blocks of " +
                  std::to_string(n / blocks.size()) + "+ queries");
  PrintMetric(report, "cpu_ms_per_query", PerQuery(scaled_cpu_ms, n), "ms",
              "nominal host; calling thread CPU time");
  PrintMetric(report, "page_reads_per_query", PageReadsPerQuery(spec, main),
              "count",
              spec.file_backed ? "buffer-pool misses, shared warm pool"
                               : "buffer-pool misses, mean over the pool");
  PrintMetric(report, "setup_s", Median(times.scaled_setup_s), "s",
              "nominal host; median of " +
                  JoinNumbers(times.scaled_setup_s));
  PrintMetric(report, "peak_rss_mb", peak_rss_mb, "MB");
  PrintMetric(report, "index_bytes_per_record",
              PerQuery(static_cast<double>(index_bytes), records), "bytes",
              std::to_string(index_bytes) + " bytes / " +
                  std::to_string(records) + " records");
}

void ReportPerLayer(const WorkloadSpec& spec, const Setup& setup,
                    const SetupTimes& times, const Phase& main,
                    const Phase& traced, const Phase& single, double residual,
                    RunReport* report) {
  const QueryStats& t = traced.totals;
  const size_t tn = traced.samples.size();
  auto per_query = [tn](double total) { return PerQuery(total, tn); };
  auto count = [&per_query](uint64_t total) {
    return per_query(static_cast<double>(total));
  };
  std::printf("info traced loop %zu queries in %.3f s; untraced loop %zu in "
              "%.3f s\n",
              tn, traced.wall_s, main.samples.size(), main.wall_s);
  PrintMetric(report, "core.component_score_ms_per_query",
              per_query(t.PhaseMillis(stpq::QueryPhase::kComponentScore)),
              "ms");
  PrintMetric(report, "core.combination_ms_per_query",
              per_query(t.PhaseMillis(stpq::QueryPhase::kCombination)), "ms");
  PrintMetric(report, "core.object_retrieval_ms_per_query",
              per_query(t.PhaseMillis(stpq::QueryPhase::kObjectRetrieval)),
              "ms");
  PrintMetric(report, "core.voronoi_ms_per_query",
              per_query(t.PhaseMillis(stpq::QueryPhase::kVoronoi)), "ms");
  // UntracedMillis of the sum equals the sum over queries unless a
  // query's phases exceed its cpu_ms, which the reconciliation rejects.
  PrintMetric(report, "core.untraced_ms_per_query",
              per_query(t.UntracedMillis()), "ms");
  PrintMetric(report, "core.engine_overhead_ms_per_query",
              per_query(traced.overhead_ms), "ms",
              "Execute wall minus stats.cpu_ms");
  PrintMetric(report, "core.build_ms", Median(times.build_ms), "ms");
  PrintMetric(report, "core.features_retrieved_per_query",
              count(t.features_retrieved), "count");
  PrintMetric(report, "core.combinations_emitted_per_query",
              count(t.combinations_emitted), "count");
  PrintMetric(report, "core.objects_scored_per_query",
              count(t.objects_scored), "count");
  PrintMetric(report, "core.heap_pushes_per_query", count(t.heap_pushes),
              "count");
  PrintMetric(report, "core.voronoi_cells_per_query", count(t.voronoi_cells),
              "count");
  PrintMetric(report, "core.voronoi_clip_features_per_query",
              count(t.voronoi_clip_features), "count");

  const stpq::TraversalProfile& tr = t.traversal;
  const double f_pruned = static_cast<double>(tr.FeaturePruned());
  const double f_desc = static_cast<double>(tr.FeatureDescended());
  const double o_pruned = static_cast<double>(tr.object_tree.TotalPruned());
  const double o_desc = static_cast<double>(tr.object_tree.TotalDescended());
  PrintMetric(report, "index.feature_nodes_visited_per_query",
              count(tr.FeatureVisited()), "count");
  PrintMetric(report, "index.feature_pruned_per_visit",
              Ratio(f_pruned, static_cast<double>(tr.FeatureVisited())),
              "count");
  PrintMetric(report, "index.feature_useful_ratio",
              Ratio(f_desc, f_desc + f_pruned), "ratio",
              "descended / (descended + pruned)");
  PrintMetric(report, "index.object_nodes_visited_per_query",
              count(tr.object_tree.TotalVisited()), "count");
  PrintMetric(report, "index.object_useful_ratio",
              Ratio(o_desc, o_desc + o_pruned), "ratio");

  const double hits = static_cast<double>(t.buffer_hits);
  const double reads = static_cast<double>(t.TotalReads());
  PrintMetric(report, "storage.object_reads_per_query",
              count(t.object_index_reads), "count");
  PrintMetric(report, "storage.feature_reads_per_query",
              count(t.feature_index_reads), "count");
  PrintMetric(report, "storage.pool_hit_ratio", Ratio(hits, hits + reads),
              "ratio");
  PrintMetric(report, "storage.store_fetches_per_query",
              count(traced.store.fetches), "count");
  PrintMetric(report, "storage.store_bytes_per_query",
              count(traced.store.bytes_read), "bytes");
  const double clients = static_cast<double>(spec.clients);
  PrintMetric(report, "storage.shared_pool_scaling",
              spec.clients > 1 ? Ratio(main.qps(), clients * single.qps())
                               : 0.0,
              "ratio",
              spec.clients > 1
                  ? "qps(" + std::to_string(spec.clients) + " clients) / (" +
                        std::to_string(spec.clients) + " x qps(1 client) " +
                        std::to_string(single.qps()) + ")"
                  : "n/a: one client");
  PrintMetric(report, "storage.store_io_errors",
              static_cast<double>(traced.store.io_errors), "count");
  std::printf("info store fetches %" PRIu64 ", page reads %.0f, shared-pool "
              "misses %" PRIu64 " in the traced loop\n",
              traced.store.fetches, reads, traced.pools.reads);

  const char* file_only = spec.file_backed ? "" : "n/a: in-memory workload";
  PrintMetric(report, "io.dataset_write_ms", Median(times.dataset_write_ms),
              "ms", file_only);
  PrintMetric(report, "io.save_ms", Median(times.save_ms), "ms", file_only);
  PrintMetric(report, "io.external_build_ms",
              Median(times.external_build_ms), "ms", file_only);
  PrintMetric(report, "io.external_runs_written",
              static_cast<double>(setup.external.runs_written), "count",
              file_only);
  PrintMetric(report, "io.external_merge_passes",
              static_cast<double>(setup.external.merge_passes), "count",
              file_only);
  PrintMetric(report, "io.external_spilled_bytes",
              static_cast<double>(setup.external.spilled_bytes), "bytes",
              file_only);
  PrintMetric(report, "io.open_ms", Median(times.open_ms), "ms", file_only);
  PrintMetric(report, "io.first_pass_ms", Median(times.first_pass_ms), "ms",
              std::to_string(spec.warmup_queries) + " warm-up queries");
  PrintMetric(report, "io.steady_pass_ms", Median(times.steady_pass_ms), "ms",
              "the same queries again");
  PrintMetric(report, "io.resident_after_drop_ratio",
              std::max(0.0, setup.resident_after_drop), "ratio", file_only);

  PrintMetric(report, "obs.tracing_overhead_ratio",
              Ratio(traced.qps(), main.qps()), "ratio",
              "traced qps / untraced qps");
  PrintMetric(report, "obs.reconcile_residual_ratio", residual, "ratio");
  PrintMetric(report, "obs.trace_phase_coverage_ratio",
              Ratio(traced.trace_phase_ms, t.TracedMillis()), "ratio",
              "phase self-time inside trace spans / PhaseTimer self-time");
  PrintMetric(report, "obs.trace_events_per_query",
              count(traced.trace_events), "count");
}

}  // namespace

bool RunWorkload(const RunConfig& config, RunReport* report,
                 std::string* error) {
  const WorkloadSpec* spec_ptr = FindWorkload(config.workload);
  if (spec_ptr == nullptr) {
    *error = "unknown workload '" + config.workload + "'";
    return false;
  }
  const WorkloadSpec& spec = *spec_ptr;

  PrepareReferenceUnits(spec.clients);

  // Inputs: the dataset and the queries each come from their own seed,
  // both derived from the run's seed.
  const uint64_t data_seed = DeriveSeed(config.seed, 0);
  const uint64_t query_seed = DeriveSeed(config.seed, 1);
  const stpq::Dataset dataset = MakeDataset(spec, data_seed);
  stpq::QueryWorkloadConfig query_cfg;  // Table 2 defaults
  query_cfg.seed = query_seed;
  query_cfg.count = static_cast<uint32_t>(kQueryPool);
  query_cfg.variant = spec.variant;
  const std::vector<Query> pool = stpq::GenerateQueries(dataset, query_cfg);
  const std::vector<Query> warmup(
      pool.begin(),
      pool.begin() + static_cast<std::ptrdiff_t>(spec.warmup_queries));

  std::string features;
  for (const stpq::FeatureTable& t : dataset.feature_tables) {
    features += (features.empty() ? "" : "+") + std::to_string(t.size());
  }
  std::printf(
      "workload %s seed %" PRIu64 " dataset_seed %" PRIu64
      " query_seed %" PRIu64 " trace %d\n"
      "input objects %zu features %s keywords %u index %s algorithm STPS "
      "variant %s k %u radius %g lambda %g keywords_per_set %u\n",
      spec.name, config.seed, data_seed, query_seed, config.trace ? 1 : 0,
      dataset.objects.size(), features.c_str(),
      dataset.feature_tables.empty()
          ? 0u
          : dataset.feature_tables[0].universe_size(),
      KindName(spec.index_kind), stpq::VariantName(spec.variant),
      query_cfg.k, query_cfg.radius, query_cfg.lambda,
      query_cfg.keywords_per_set);

  // Set-up, several times; the last engine serves the timed loop.
  Setup setup;
  SetupTimes times;
  std::vector<Span> setup_spans;
  for (int rep = 0; rep < kSetupRepetitions; ++rep) {
    setup = Setup{};  // the previous engines are gone before the next build
    const double reference_before = ReferenceBurstMs();
    if (!RunSetup(spec, dataset, warmup, config.work_dir, &setup,
                  &setup_spans, error)) {
      return false;
    }
    setup.reference_ms = (reference_before + ReferenceBurstMs()) / 2;
    times.Add(setup);
  }
  const Engine& engine = *setup.engine;
  std::printf(
      "setup backend %s cold_sessions %d clients %zu pool_capacity_pages "
      "%" PRIu64 " index_pages %" PRIu64 " query_pool %zu warmup_queries %zu "
      "setup_repetitions %d\n",
      stpq::StorageBackendName(engine.options().storage.backend),
      engine.options().cold_cache_per_query ? 1 : 0, spec.clients,
      setup.pool_capacity,
      IndexPages(spec.file_backed ? *setup.in_memory : engine),
      kQueryPool, spec.warmup_queries, kSetupRepetitions);
  if (spec.file_backed) {
    std::printf("page_cache_drop resident_after_drop %.4f (%s)\n",
                setup.resident_after_drop,
                setup.resident_after_drop < 0    ? "not measurable"
                : setup.resident_after_drop == 0 ? "fully evicted"
                                                 : "NOT fully evicted");
  }

  // The timed loop (untraced), or in a traced run the untraced loop whose
  // throughput the traced one is compared with.
  PhaseOptions timed;
  timed.clients = spec.clients;
  timed.seconds = config.trace ? config.seconds / 2 : config.seconds;
  timed.min_queries = config.trace ? 0 : kQueryPool;
  timed.reference = !config.trace;
  const Phase main = RunPhase(engine, pool, dataset, timed);
  // The reference buffers were resident from before the first set-up on.
  const double peak_rss_mb = PeakRssMb() - ReferenceBufferMb();

  Phase traced;
  Phase single;
  if (config.trace) {
    stpq::Tracer& tracer = stpq::Tracer::Global();
    tracer.Start(size_t{1} << 18);
    PhaseOptions opt = timed;
    opt.traced = true;
    traced = RunPhase(engine, pool, dataset, opt);
    tracer.Stop();
    tracer.Discard();
    if (spec.clients > 1) {
      opt = timed;
      opt.clients = 1;
      opt.seconds = config.seconds / 4;
      single = RunPhase(engine, pool, dataset, opt);
    }
  }

  // Correctness checks, after the loops so they cost no timed work.
  std::unique_ptr<Engine> cross;
  {
    stpq::EngineOptions options;
    options.index_kind = spec.index_kind == FeatureIndexKind::kSrt
                             ? FeatureIndexKind::kIr2
                             : FeatureIndexKind::kSrt;
    cross = TakeEngine(Engine::Build(dataset.objects, dataset.feature_tables,
                                     options),
                       "cross-check Engine::Build", error);
    if (cross == nullptr) return false;
  }
  const AnswerChecker checker(dataset, *cross);
  const Phase& checked_phase = config.trace ? traced : main;
  CheckOutcome checks =
      CheckAnswers(spec, setup, pool, checked_phase, checker);
  if (spec.file_backed) {
    checks.Record("index files (Build+Save vs external build)",
                  CompareFiles(setup.saved_path, setup.external_path));
  }

  // Index size per record.  The in-memory workloads save their index here,
  // after the timed loop, so the write costs them no set-up time.
  std::string index_path = setup.saved_path;
  if (!spec.file_backed) {
    index_path = config.work_dir + "/index.stpqx";
    const stpq::Status saved = engine.Save(index_path, dataset.vocabularies);
    if (!saved.ok()) {
      *error = "Engine::Save: " + saved.ToString();
      return false;
    }
  }
  const uint64_t index_bytes = FileBytes(index_path);
  const size_t records = dataset.objects.size() + FeatureCount(dataset);

  // Reconciliation of the traced loop, query by query: the phase
  // self-times, the untraced remainder of the engine's timer and the
  // engine overhead outside it must add up to the Execute wall time the
  // harness measured.  They fail to when phases double-count (their sum
  // exceeds stats.cpu_ms) or the engine's timer is not inside the span.
  bool reconciled = true;
  double residual = 0.0;
  if (config.trace) {
    residual = Ratio(traced.residual_ms, traced.measured_ms);
    reconciled = residual <= kReconcileTolerance &&
                 traced.enclosing_violations == 0 &&
                 traced.unnested_events == 0 &&
                 traced.unbalanced_queries == 0 && traced.trace_events > 0;
    std::printf(
        "reconcile phases %.3f + untraced %.3f + engine overhead %.3f ms vs "
        "measured Execute wall %.3f ms: residual %.5f (tolerance %.2f); "
        "engine timer outside core.execute %" PRIu64 "; program trace events "
        "%" PRIu64 ", outside core.execute %" PRIu64 ", unbalanced queries "
        "%" PRIu64 "; phase self-time in trace spans %.3f ms -> %s\n",
        traced.totals.TracedMillis(), traced.totals.UntracedMillis(),
        traced.overhead_ms, traced.measured_ms, residual, kReconcileTolerance,
        traced.enclosing_violations, traced.trace_events,
        traced.unnested_events, traced.unbalanced_queries,
        traced.trace_phase_ms, reconciled ? "ok" : "FAILED");
    if (!config.trace_out.empty()) {
      std::vector<Span> spans = setup_spans;
      spans.insert(spans.end(), traced.spans.begin(), traced.spans.end());
      if (!WriteSpans(config.trace_out, spans)) {
        *error = "cannot write " + config.trace_out;
        return false;
      }
      std::printf("spans %zu written to %s\n", spans.size(),
                  config.trace_out.c_str());
    }
  }

  // Failures: queries that failed in a loop, plus failed sampled checks.
  const Phase* phases[] = {&main, &traced, &single};
  for (const Phase* ph : phases) {
    report->attempted += ph->samples.size();
    report->failed += ph->failed();
    for (const std::string& f : ph->failures) {
      std::printf("FAILED %s\n", f.c_str());
    }
  }
  report->failed += checks.failed;
  for (const std::string& f : checks.failures) {
    std::printf("FAILED check %s\n", f.c_str());
  }
  std::printf("checks %" PRIu64 " sampled, determinism and file checks, "
              "%" PRIu64 " failed; every answer shape-checked\n",
              checks.checked, checks.failed);
  report->correct = report->failed == 0 && reconciled;
  if (config.trace) {
    ReportPerLayer(spec, setup, times, main, traced, single, residual, report);
  } else {
    ReportEndToEnd(spec, main, timed.seconds, times, peak_rss_mb, index_bytes,
                   records, report);
  }
  std::printf("info failed_ratio %.6f (%" PRIu64 "/%" PRIu64 ")\n",
              Ratio(static_cast<double>(report->failed),
                    static_cast<double>(report->attempted)),
              report->failed, report->attempted);
  return true;
}

}  // namespace perfbench

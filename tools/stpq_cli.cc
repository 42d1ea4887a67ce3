// stpq_cli: command-line front end for the stpq library.
//
// Subcommands (run `stpq_cli <command> --help` for per-command flags):
//
//   generate   synthesize a dataset and write it as a .stpq file
//   info       summarize a .stpq dataset
//   build      build all indexes over a dataset and persist them as a
//              versioned .stpqx index file (Engine::Save)
//   load       print the superblock + segment catalog of a .stpqx file
//   query      run one query and print the top-k
//   bench      run a generated query batch sequentially
//   workload   parallel throughput sweep over thread counts
//   profile    sequential run with phase breakdown + latency histogram
//   trace      run with the tracer armed and export Chrome trace JSON
//   validate   run the deep structural validators over every index
//
// Every query-running command accepts either --data FILE (build indexes
// in memory, simulated storage) or --index FILE (reopen a prebuilt
// .stpqx file, file-backed storage).  --kind srt|ir2 picks the feature
// index when building; a reopened file always uses the kind it was built
// with.
//
// Flags accept both "--flag value" and "--flag=value".
// Keyword syntax: per-feature-set lists separated by ';', terms by ','.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "debug/validate.h"
#include "core/explain.h"
#include "core/score.h"
#include "core/workload.h"
#include "gen/queries.h"
#include "gen/real_like.h"
#include "gen/synthetic.h"
#include "io/bulk_load.h"
#include "io/dataset_io.h"
#include "io/index_file.h"
#include "obs/admin_server.h"
#include "obs/histogram.h"
#include "obs/metrics_registry.h"
#include "obs/timeseries.h"
#include "obs/trace.h"
#include "obs/trace_export.h"
#include "storage/page_store.h"

using namespace stpq;

namespace {

/// Minimal --flag value parser; positional[0] is the subcommand.
struct Args {
  std::string command;
  std::map<std::string, std::string> flags;

  std::string Get(const std::string& key, const std::string& def = "") const {
    auto it = flags.find(key);
    return it == flags.end() ? def : it->second;
  }
  double GetDouble(const std::string& key, double def) const {
    auto it = flags.find(key);
    return it == flags.end() ? def : std::atof(it->second.c_str());
  }
  uint32_t GetUint(const std::string& key, uint32_t def) const {
    auto it = flags.find(key);
    return it == flags.end()
               ? def
               : static_cast<uint32_t>(std::atoi(it->second.c_str()));
  }
  bool Has(const std::string& key) const { return flags.count(key) > 0; }
};

Args Parse(int argc, char** argv) {
  Args a;
  if (argc > 1) a.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) continue;
    std::string key = arg.substr(2);
    size_t eq = key.find('=');
    if (eq != std::string::npos) {
      a.flags.insert_or_assign(key.substr(0, eq), key.substr(eq + 1));
      continue;
    }
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      a.flags.insert_or_assign(key, std::string(argv[++i]));
    } else {
      a.flags.insert_or_assign(key, std::string("1"));  // boolean flag
    }
  }
  return a;
}

/// One subcommand: name, one-line summary for the top-level usage, flag
/// details for `stpq_cli <name> --help`, and the handler.
struct CommandSpec {
  const char* name;
  const char* summary;
  const char* help;
  int (*run)(const Args&);
};

const std::vector<CommandSpec>& Commands();  // defined after the handlers

int Usage() {
  std::fprintf(stderr, "usage: stpq_cli <command> [flags]\n\ncommands:\n");
  for (const CommandSpec& c : Commands()) {
    std::fprintf(stderr, "  %-9s %s\n", c.name, c.summary);
  }
  std::fprintf(stderr,
               "\nrun 'stpq_cli <command> --help' for the command's flags\n");
  return 2;
}

/// Flags shared by every command that answers queries; individual help
/// strings append their command-specific flags to this.
#define STPQ_CLI_ENGINE_FLAGS                                               \
  "  --data FILE       dataset to index in memory (simulated storage)\n"    \
  "  --index FILE      prebuilt .stpqx index file to reopen instead\n"      \
  "  --kind srt|ir2    feature index to build (default srt; ignored when\n" \
  "                    reopening: the file records its kind)\n"             \
  "  --page-size N     simulated page size in bytes when building\n"        \
  "  --pool N          buffer-pool capacity in pages (0 = unbounded)\n"

Result<Dataset> LoadData(const Args& args) {
  std::string path = args.Get("data");
  if (path.empty()) {
    return Status::InvalidArgument("--data FILE is required");
  }
  return ReadDatasetBinary(path);
}

EngineOptions MakeEngineOptions(const Args& args) {
  EngineOptions opts;
  if (args.Get("kind", "srt") == "ir2") {
    opts.index_kind = FeatureIndexKind::kIr2;
  }
  opts.storage.page_size = args.GetUint("page-size", kDefaultPageSizeBytes);
  opts.storage.pool_capacity = args.GetUint("pool", 0);
  opts.fill = args.GetDouble("fill", 1.0);
  if (args.Has("signature-bits")) {
    opts.signature_bits = args.GetUint("signature-bits", 0);
  }
  if (args.Has("signature-hashes")) {
    opts.signature_hashes = args.GetUint("signature-hashes", 3);
  }
  return opts;
}

/// The shared engine source behind every query-running command: reopens
/// --index (file backend) when given, else builds in memory from --data
/// (simulated backend), and fills `ds` with the objects, tables and
/// vocabularies the command needs for keyword parsing and query
/// generation.
Result<Engine> MakeEngine(const Args& args, Dataset* ds) {
  const std::string index_path = args.Get("index");
  if (!index_path.empty()) {
    Result<Engine> engine = Engine::Open(index_path, MakeEngineOptions(args));
    if (!engine.ok()) return engine;
    // Rebuild the dataset view from the engine + the persisted
    // vocabularies so query generation matches the --data path.
    ds->objects = engine.value().objects();
    for (size_t i = 0; i < engine.value().num_feature_sets(); ++i) {
      ds->feature_tables.push_back(engine.value().feature_table(i));
    }
    Result<std::vector<Vocabulary>> vocabs = ReadIndexVocabularies(index_path);
    if (!vocabs.ok()) return vocabs.status();
    ds->vocabularies = vocabs.TakeValue();
    return engine;
  }

  Result<Dataset> data = LoadData(args);
  if (!data.ok()) return data.status();
  *ds = data.TakeValue();
  // The dataset stays alive in the caller (names, vocabularies, query
  // generation), so the engine gets copies.
  return Engine::Build(ds->objects,
                       std::vector<FeatureTable>(ds->feature_tables),
                       MakeEngineOptions(args));
}

int Generate(const Args& args) {
  std::string out = args.Get("out");
  if (out.empty()) return Usage();
  double scale = args.GetDouble("scale", 0.1);
  uint64_t seed = args.GetUint("seed", 42);
  Dataset ds;
  if (args.Get("kind", "synthetic") == "real") {
    RealLikeConfig cfg;
    cfg.scale = scale;
    cfg.seed = seed;
    ds = GenerateRealLike(cfg);
  } else {
    SyntheticConfig cfg;
    cfg.seed = seed;
    cfg.num_objects = static_cast<uint32_t>(100'000 * scale);
    cfg.num_features_per_set = static_cast<uint32_t>(100'000 * scale);
    cfg.num_clusters = std::max(100u, static_cast<uint32_t>(10'000 * scale));
    ds = GenerateSynthetic(cfg);
  }
  Status st = WriteDatasetBinary(out, ds);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %zu objects, %zu feature sets\n", out.c_str(),
              ds.objects.size(), ds.feature_tables.size());
  return 0;
}

int Info(const Args& args) {
  Result<Dataset> data = LoadData(args);
  if (!data.ok()) {
    std::fprintf(stderr, "error: %s\n", data.status().ToString().c_str());
    return 1;
  }
  const Dataset& ds = data.value();
  std::printf("objects: %zu\n", ds.objects.size());
  for (size_t i = 0; i < ds.feature_tables.size(); ++i) {
    std::printf("feature set %zu: %zu features, %u keywords (e.g.", i,
                ds.feature_tables[i].size(),
                ds.feature_tables[i].universe_size());
    for (uint32_t t = 0; t < std::min(5u, ds.vocabularies[i].size()); ++t) {
      std::printf(" %s", ds.vocabularies[i].Term(t).c_str());
    }
    std::printf(")\n");
  }
  return 0;
}

/// Parses "a,b;c,d" into one KeywordSet per feature set.
bool ParseKeywords(const std::string& spec, const Dataset& ds, Query* query) {
  std::vector<std::string> groups;
  std::string cur;
  for (char ch : spec) {
    if (ch == ';') {
      groups.push_back(cur);
      cur.clear();
    } else {
      cur.push_back(ch);
    }
  }
  groups.push_back(cur);
  if (groups.size() != ds.feature_tables.size()) {
    std::fprintf(stderr,
                 "error: %zu keyword groups for %zu feature sets "
                 "(separate groups with ';')\n",
                 groups.size(), ds.feature_tables.size());
    return false;
  }
  for (size_t i = 0; i < groups.size(); ++i) {
    KeywordSet kw(ds.feature_tables[i].universe_size());
    std::string term;
    auto flush = [&]() {
      if (term.empty()) return true;
      Result<TermId> id = ds.vocabularies[i].Lookup(term);
      if (!id.ok()) {
        std::fprintf(stderr, "error: unknown keyword '%s' in set %zu\n",
                     term.c_str(), i);
        return false;
      }
      kw.Insert(id.value());
      term.clear();
      return true;
    };
    for (char ch : groups[i]) {
      if (ch == ',') {
        if (!flush()) return false;
      } else if (!std::isspace(static_cast<unsigned char>(ch))) {
        term.push_back(ch);
      }
    }
    if (!flush()) return false;
    query->keywords.push_back(std::move(kw));
  }
  return true;
}

int RunQuery(const Args& args) {
  Dataset ds;
  Result<Engine> engine_r = MakeEngine(args, &ds);
  if (!engine_r.ok()) {
    std::fprintf(stderr, "error: %s\n", engine_r.status().ToString().c_str());
    return 1;
  }
  Engine engine = engine_r.TakeValue();
  Query query;
  query.k = args.GetUint("k", 10);
  query.radius = args.GetDouble("r", 0.01);
  query.lambda = args.GetDouble("lambda", 0.5);
  std::string variant = args.Get("variant", "range");
  if (variant == "influence") query.variant = ScoreVariant::kInfluence;
  if (variant == "nn") query.variant = ScoreVariant::kNearestNeighbor;
  if (!ParseKeywords(args.Get("keywords"), ds, &query)) return 1;

  const std::vector<DataObject>& objects = ds.objects;  // names for printing
  Algorithm algo =
      args.Get("algo", "stps") == "stds" ? Algorithm::kStds : Algorithm::kStps;
  Result<QueryResult> executed = engine.Execute(query, algo);
  if (!executed.ok()) {
    std::fprintf(stderr, "error: %s\n", executed.status().ToString().c_str());
    return 1;
  }
  QueryResult result = executed.TakeValue();
  std::printf("top-%u (%s, %s, %s index):\n", query.k, VariantName(
                  query.variant),
              algo == Algorithm::kStds ? "STDS" : "STPS",
              engine.IndexName());
  for (size_t rank = 0; rank < result.entries.size(); ++rank) {
    const ResultEntry& e = result.entries[rank];
    const std::string& name = objects[e.object].name;
    std::printf("%3zu. #%-8u %-20s tau = %.5f\n", rank + 1, e.object,
                name.empty() ? "(unnamed)" : name.c_str(), e.score);
    if (args.Has("explain")) {
      Explanation why = ExplainScore(&engine, query, e.object);
      for (const Contribution& c : why.contributions) {
        if (!c.has_feature) {
          std::printf("       set %zu: no relevant feature\n",
                      c.feature_set);
          continue;
        }
        const FeatureObject& f =
            engine.feature_table(c.feature_set).Get(c.feature);
        std::printf("       set %zu: %-20s s=%.4f dist=%.5f\n",
                    c.feature_set,
                    f.name.empty() ? "(unnamed)" : f.name.c_str(), c.score,
                    c.distance);
      }
    }
  }
  std::printf("cost: %.3f ms CPU, %llu page reads\n", result.stats.cpu_ms,
              static_cast<unsigned long long>(result.stats.TotalReads()));
  return 0;
}

/// Live-introspection flags shared by the long-running commands; the
/// individual help strings append this to STPQ_CLI_ENGINE_FLAGS.
#define STPQ_CLI_ADMIN_FLAGS                                                  \
  "  --serve-admin PORT  serve /metrics /healthz /statusz /slowz /tracez\n"   \
  "                    /varz on 127.0.0.1:PORT while the run executes\n"      \
  "                    (0 = ephemeral; the bound port is printed)\n"          \
  "  --metrics-interval MS  sample interval deltas every MS ms (/varz;\n"     \
  "                    armed at 250 ms automatically when serving)\n"

/// The optional live-introspection plane behind --serve-admin /
/// --metrics-interval / --slow-ms (DESIGN.md §18): a background metrics
/// sampler, a slow-query log, and the admin HTTP server wired to all of
/// them plus the engine.  Members shut down in reverse order of arming.
struct AdminScope {
  std::unique_ptr<MetricsRecorder> recorder;
  std::unique_ptr<SlowQueryLog> slow_log;
  std::unique_ptr<AdminServer> server;

  /// Stops the server first (no requests against a dead sampler), then
  /// the sampler.  Idempotent; the destructor runs it too.
  void Shutdown() {
    if (server != nullptr) server->Stop();
    if (recorder != nullptr) recorder->Stop();
  }
  ~AdminScope() { Shutdown(); }
};

/// /statusz rows describing `engine`: shape, storage, live pool occupancy.
AdminStatusRows EngineStatusRows(const Engine* engine) {
  AdminStatusRows rows;
  rows.emplace_back("index", engine->IndexName());
  rows.emplace_back("objects", std::to_string(engine->objects().size()));
  rows.emplace_back("feature_sets",
                    std::to_string(engine->num_feature_sets()));
  rows.emplace_back("backend",
                    StorageBackendName(engine->options().storage.backend));
  rows.emplace_back("page_size",
                    std::to_string(engine->options().storage.page_size));
  rows.emplace_back("pool_capacity_pages",
                    std::to_string(engine->object_pool().capacity_pages()));
  rows.emplace_back(
      "pool_resident_pages",
      std::to_string(engine->object_pool().resident_pages() +
                     engine->feature_pool().resident_pages()));
  rows.emplace_back(
      "pool_pinned_pages",
      std::to_string(engine->object_pool().pinned_pages() +
                     engine->feature_pool().pinned_pages()));
  return rows;
}

/// Arms the introspection plane a command's flags ask for.  `external_slow_log`
/// lets a command that owns its own SlowQueryLog (trace) expose it on
/// /slowz instead of getting a second one.  Returns false (with the error
/// printed) only when --serve-admin was requested and the bind failed.
bool StartAdmin(const Args& args, const Engine* engine,
                SlowQueryLog* external_slow_log, AdminScope* scope) {
  const bool serve = args.Has("serve-admin");
  if (serve || args.Has("metrics-interval")) {
    MetricsRecorderOptions ropts;
    ropts.interval_ms = args.GetUint("metrics-interval", 250);
    if (ropts.interval_ms == 0) ropts.interval_ms = 250;
    scope->recorder = std::make_unique<MetricsRecorder>(ropts);
    scope->recorder->Start();
  }
  if (external_slow_log == nullptr && args.Has("slow-ms")) {
    scope->slow_log =
        std::make_unique<SlowQueryLog>(args.GetDouble("slow-ms", 0.0));
  }
  if (!serve) return true;
  AdminServerOptions sopts;
  sopts.port = static_cast<uint16_t>(args.GetUint("serve-admin", 0));
  sopts.recorder = scope->recorder.get();
  sopts.slow_log =
      external_slow_log != nullptr ? external_slow_log : scope->slow_log.get();
  sopts.status_provider = [engine] { return EngineStatusRows(engine); };
  scope->server = std::make_unique<AdminServer>(std::move(sopts));
  Status st = scope->server->Start();
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return false;
  }
  // The CI smoke driver (tests/admin/check_admin_live.py) parses this
  // line to find an ephemeral port; keep the format stable.
  std::printf("admin: listening on 127.0.0.1:%u\n",
              static_cast<unsigned>(scope->server->port()));
  std::fflush(stdout);
  return true;
}

/// Keeps the admin server scrapeable for --linger-ms after the run so
/// out-of-process drivers can fetch the final state.
void AdminLinger(const Args& args, const AdminScope& scope) {
  const uint32_t linger_ms = args.GetUint("linger-ms", 0);
  if (linger_ms == 0 || scope.server == nullptr) return;
  std::printf("admin: lingering %u ms\n", linger_ms);
  std::fflush(stdout);
  std::this_thread::sleep_for(std::chrono::milliseconds(linger_ms));
}

/// Prints the sampler's interval table: one row per closed interval with
/// the derived per-interval rates (the same numbers /varz serves).
void PrintIntervalTable(const MetricsRecorder& recorder) {
  const std::vector<IntervalSample> samples = recorder.Recent();
  if (samples.empty()) return;
  std::printf("interval samples (every %llu ms):\n",
              static_cast<unsigned long long>(recorder.interval_ms()));
  std::printf("%10s %9s %10s %12s %10s %10s %10s\n", "t_ms", "queries",
              "queries/s", "page_reads", "hit_rate", "p50_ms", "p99_ms");
  for (const IntervalSample& s : samples) {
    const LatencyHistogram* lat = s.Histogram("stpq_query_cpu_ms");
    std::printf("%10.0f %9llu %10.1f %12llu %10.3f %10.3f %10.3f\n", s.end_ms,
                static_cast<unsigned long long>(
                    s.CounterDelta("stpq_queries_total")),
                s.QueriesPerSec(),
                static_cast<unsigned long long>(
                    s.CounterDelta("stpq_pages_read_total")),
                s.PoolHitRate(),
                lat != nullptr ? lat->PercentileMs(0.50) : 0.0,
                lat != nullptr ? lat->PercentileMs(0.99) : 0.0);
  }
}

int Bench(const Args& args) {
  Dataset ds;
  Result<Engine> engine_r = MakeEngine(args, &ds);
  if (!engine_r.ok()) {
    std::fprintf(stderr, "error: %s\n", engine_r.status().ToString().c_str());
    return 1;
  }
  Engine engine = engine_r.TakeValue();
  QueryWorkloadConfig qcfg;
  qcfg.count = args.GetUint("queries", 50);
  qcfg.k = args.GetUint("k", 10);
  qcfg.radius = args.GetDouble("r", 0.01);
  qcfg.lambda = args.GetDouble("lambda", 0.5);
  std::string variant = args.Get("variant", "range");
  if (variant == "influence") qcfg.variant = ScoreVariant::kInfluence;
  if (variant == "nn") qcfg.variant = ScoreVariant::kNearestNeighbor;
  std::vector<Query> queries = GenerateQueries(ds, qcfg);
  Algorithm algo =
      args.Get("algo", "stps") == "stds" ? Algorithm::kStds : Algorithm::kStps;
  AdminScope admin;
  if (!StartAdmin(args, &engine, nullptr, &admin)) return 1;
  Result<WorkloadSummary> s =
      RunWorkload(engine, queries, algo, args.GetDouble("io-ms", 0.1));
  if (!s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", s.value().ToString().c_str());
  AdminLinger(args, admin);
  return 0;
}

/// Writes the global registry's Prometheus text exposition to `path`.
bool WriteMetricsFile(const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "error: cannot write metrics file '%s'\n",
                 path.c_str());
    return false;
  }
  out << MetricsRegistry::Global().RenderPrometheusText();
  return static_cast<bool>(out);
}

/// Drains the global tracer and writes a Chrome trace-event JSON file.
bool WriteTraceFile(const std::string& path) {
  TraceCollection collection = Tracer::Global().Collect();
  Status st = WriteChromeTraceFile(collection, path);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return false;
  }
  std::printf("trace: %zu events from %zu threads (%llu dropped) -> %s\n",
              collection.TotalEvents(), collection.threads.size(),
              static_cast<unsigned long long>(collection.dropped),
              path.c_str());
  return true;
}

/// Parses "1,2,4,8" into thread counts; returns empty on a parse error.
std::vector<size_t> ParseThreadList(const std::string& spec) {
  std::vector<size_t> out;
  std::string cur;
  auto flush = [&]() {
    if (cur.empty()) return true;
    char* end = nullptr;
    long v = std::strtol(cur.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || v < 0) return false;
    out.push_back(static_cast<size_t>(v));
    cur.clear();
    return true;
  };
  for (char ch : spec) {
    if (ch == ',') {
      if (!flush()) return {};
    } else if (!std::isspace(static_cast<unsigned char>(ch))) {
      cur.push_back(ch);
    }
  }
  if (!flush()) return {};
  return out;
}

/// Runs one generated query batch through ParallelWorkloadRunner for each
/// requested thread count and prints a throughput row per count.
int Workload(const Args& args) {
  Dataset ds;
  Result<Engine> engine = MakeEngine(args, &ds);
  if (!engine.ok()) {
    std::fprintf(stderr, "error: %s\n", engine.status().ToString().c_str());
    return 1;
  }
  QueryWorkloadConfig qcfg;
  qcfg.count = args.GetUint("queries", 200);
  qcfg.k = args.GetUint("k", 10);
  qcfg.radius = args.GetDouble("r", 0.01);
  qcfg.lambda = args.GetDouble("lambda", 0.5);
  std::string variant = args.Get("variant", "range");
  if (variant == "influence") qcfg.variant = ScoreVariant::kInfluence;
  if (variant == "nn") qcfg.variant = ScoreVariant::kNearestNeighbor;
  std::vector<Query> queries = GenerateQueries(ds, qcfg);

  std::vector<size_t> thread_counts = ParseThreadList(args.Get("threads", "1"));
  if (thread_counts.empty()) {
    std::fprintf(stderr, "error: --threads expects N or N,N,... (got '%s')\n",
                 args.Get("threads", "1").c_str());
    return 1;
  }

  ParallelWorkloadRunner runner(&engine.value());

  ParallelWorkloadOptions opts;
  opts.algorithm =
      args.Get("algo", "stps") == "stds" ? Algorithm::kStds : Algorithm::kStps;
  opts.io_unit_cost_ms = args.GetDouble("io-ms", 0.1);

  AdminScope admin;
  if (!StartAdmin(args, &engine.value(), nullptr, &admin)) return 1;
  opts.slow_log = admin.slow_log.get();

  if (args.Has("trace-out")) Tracer::Global().Start();

  std::printf("%zu queries, %s, %s index\n", queries.size(),
              opts.algorithm == Algorithm::kStds ? "STDS" : "STPS",
              engine.value().IndexName());
  std::printf("%8s %12s %12s %14s %10s %10s %10s\n", "threads", "wall_ms",
              "queries/s", "reads/query", "p50_ms", "p95_ms", "p99_ms");
  for (size_t threads : thread_counts) {
    opts.threads = threads;
    Result<ParallelWorkloadReport> report = runner.Run(queries, opts);
    if (!report.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    const ParallelWorkloadReport& r = report.value();
    std::printf("%8zu %12.2f %12.1f %14.1f %10.3f %10.3f %10.3f\n", threads,
                r.wall_ms, r.queries_per_sec, r.summary.mean_page_reads,
                r.latency.PercentileMs(0.50), r.latency.PercentileMs(0.95),
                r.latency.PercentileMs(0.99));
  }
  if (args.Has("trace-out")) {
    Tracer::Global().Stop();
    if (!WriteTraceFile(args.Get("trace-out"))) return 1;
  }
  if (args.Has("metrics") && !WriteMetricsFile(args.Get("metrics"))) {
    return 1;
  }
  AdminLinger(args, admin);
  if (admin.recorder != nullptr) {
    admin.recorder->Stop();  // closes the final partial interval
    PrintIntervalTable(*admin.recorder);
  }
  return 0;
}

/// Executes a generated workload sequentially and prints the per-phase
/// wall-time breakdown plus the latency distribution (DESIGN.md §12).
int Profile(const Args& args) {
  Dataset ds;
  Result<Engine> engine = MakeEngine(args, &ds);
  if (!engine.ok()) {
    std::fprintf(stderr, "error: %s\n", engine.status().ToString().c_str());
    return 1;
  }
  QueryWorkloadConfig qcfg;
  qcfg.count = args.GetUint("queries", 100);
  qcfg.k = args.GetUint("k", 10);
  qcfg.radius = args.GetDouble("r", 0.01);
  qcfg.lambda = args.GetDouble("lambda", 0.5);
  std::string variant = args.Get("variant", "range");
  if (variant == "influence") qcfg.variant = ScoreVariant::kInfluence;
  if (variant == "nn") qcfg.variant = ScoreVariant::kNearestNeighbor;
  std::vector<Query> queries = GenerateQueries(ds, qcfg);
  const double io_ms = args.GetDouble("io-ms", 0.1);
  Algorithm algo =
      args.Get("algo", "stps") == "stds" ? Algorithm::kStds : Algorithm::kStps;

  AdminScope admin;
  if (!StartAdmin(args, &engine.value(), nullptr, &admin)) return 1;

  if (args.Has("trace-out")) Tracer::Global().Start();

  QueryStats aggregate;
  LatencyHistogram latency;
  ExecuteOptions exec;
  exec.algorithm = algo;
  exec.slow_log = admin.slow_log.get();
  for (const Query& q : queries) {
    Result<QueryResult> r = engine.value().Execute(q, exec);
    if (!r.ok()) {
      std::fprintf(stderr, "error: %s\n", r.status().ToString().c_str());
      return 1;
    }
    const QueryStats& stats = r.value().stats;
    aggregate += stats;
    latency.Record(stats.cpu_ms + stats.IoMillis(io_ms));
  }

  std::printf("profile: %zu queries, %s, %s index, variant=%s\n",
              queries.size(), algo == Algorithm::kStds ? "STDS" : "STPS",
              engine.value().IndexName(), variant.c_str());
  std::printf("latency (cpu + %.3f ms/read): %s mean=%.3fms\n", io_ms,
              latency.SummaryString().c_str(), latency.mean_ms());

  // Phase breakdown: traced self-times, the derived I/O phase (page reads
  // priced at io-ms, never timed), and the untraced remainder.
  const double io_total = aggregate.IoMillis(io_ms);
  const double grand_total = aggregate.cpu_ms + io_total;
  auto row = [&](const char* name, double ms) {
    std::printf("  %-18s %12.3f ms %6.1f%%\n", name, ms,
                grand_total > 0.0 ? 100.0 * ms / grand_total : 0.0);
  };
  std::printf("phase breakdown (self time over the whole workload):\n");
  for (size_t i = 0; i < kNumQueryPhases; ++i) {
    row(QueryPhaseName(static_cast<QueryPhase>(i)),
        aggregate.phase_ms[i]);
  }
  row("io (derived)", io_total);
  row("other", aggregate.UntracedMillis());
  std::printf("counters: %s\n", aggregate.ToString().c_str());

  if (args.Has("trace-out")) {
    Tracer::Global().Stop();
    if (!WriteTraceFile(args.Get("trace-out"))) return 1;
  }
  if (args.Has("metrics") && !WriteMetricsFile(args.Get("metrics"))) {
    return 1;
  }
  AdminLinger(args, admin);
  return 0;
}

/// Runs a generated workload with the tracer armed and exports a Chrome
/// trace-event JSON file (load it at ui.perfetto.dev or
/// chrome://tracing).  With --slow-ms only queries at or above the
/// threshold are captured (slow-query mode); without it the full event
/// stream of the run is exported.
int Trace(const Args& args) {
  Dataset ds;
  Result<Engine> engine = MakeEngine(args, &ds);
  if (!engine.ok()) {
    std::fprintf(stderr, "error: %s\n", engine.status().ToString().c_str());
    return 1;
  }
  QueryWorkloadConfig qcfg;
  qcfg.count = args.GetUint("queries", 100);
  qcfg.k = args.GetUint("k", 10);
  qcfg.radius = args.GetDouble("r", 0.01);
  qcfg.lambda = args.GetDouble("lambda", 0.5);
  std::string variant = args.Get("variant", "range");
  if (variant == "influence") qcfg.variant = ScoreVariant::kInfluence;
  if (variant == "nn") qcfg.variant = ScoreVariant::kNearestNeighbor;
  std::vector<Query> queries = GenerateQueries(ds, qcfg);

  const std::string out_path = args.Get("trace-out", "trace.json");
  const bool slow_mode = args.Has("slow-ms");
  SlowQueryLog slow_log(args.GetDouble("slow-ms", 0.0));

  AdminScope admin;
  if (!StartAdmin(args, &engine.value(), slow_mode ? &slow_log : nullptr,
                  &admin)) {
    return 1;
  }

  Tracer::Global().Start();
  ParallelWorkloadRunner runner(&engine.value());
  ParallelWorkloadOptions opts;
  opts.algorithm =
      args.Get("algo", "stps") == "stds" ? Algorithm::kStds : Algorithm::kStps;
  opts.threads = args.GetUint("threads", 1);
  opts.io_unit_cost_ms = args.GetDouble("io-ms", 0.1);
  if (slow_mode) opts.slow_log = &slow_log;
  Result<ParallelWorkloadReport> report = runner.Run(queries, opts);
  Tracer::Global().Stop();
  if (!report.ok()) {
    std::fprintf(stderr, "error: %s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", report.value().summary.ToString().c_str());
  AdminLinger(args, admin);

  if (slow_mode) {
    // Slow-query mode: keep only the captured queries; the rest of the
    // stream (already drained per query by the log) is discarded.
    TraceCollection leftover = Tracer::Global().Collect();
    std::vector<SlowQueryRecord> records = slow_log.Snapshot();
    TraceCollection collection =
        CollectionFromSlowQueries(records, leftover.dropped);
    Status st = WriteChromeTraceFile(collection, out_path);
    if (!st.ok()) {
      std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
      return 1;
    }
    std::printf("trace: %zu slow queries (>= %.3f ms), %zu events -> %s\n",
                records.size(), slow_log.threshold_ms(),
                collection.TotalEvents(), out_path.c_str());
    return 0;
  }
  return WriteTraceFile(out_path) ? 0 : 1;
}

/// Builds every index over the dataset and runs the deep structural
/// validators from debug/validate.h, reporting the first violation per
/// structure.  Exit code 0 = all structures sound.
int Validate(const Args& args) {
  Dataset ds;
  Result<Engine> engine_r = MakeEngine(args, &ds);
  if (!engine_r.ok()) {
    std::fprintf(stderr, "error: %s\n", engine_r.status().ToString().c_str());
    return 1;
  }
  Engine engine = engine_r.TakeValue();
  std::vector<std::vector<KeywordSet>> corpora(ds.feature_tables.size());
  for (size_t i = 0; i < ds.feature_tables.size(); ++i) {
    for (const FeatureObject& f : ds.feature_tables[i].All()) {
      corpora[i].push_back(f.keywords);
    }
  }

  int failures = 0;
  auto report = [&failures](const char* what, const Status& st) {
    if (st.ok()) {
      std::printf("%-24s OK\n", what);
    } else {
      std::printf("%-24s VIOLATION: %s\n", what, st.message().c_str());
      ++failures;
    }
  };

  report("object index", ValidateObjectIndex(engine.object_index()));
  for (size_t i = 0; i < engine.num_feature_sets(); ++i) {
    std::string label = "feature index " + std::to_string(i);
    const FeatureIndex& fi = engine.feature_index(i);
    if (const auto* srt = dynamic_cast<const SrtIndex*>(&fi)) {
      report((label + " (SRT)").c_str(), ValidateSrtIndex(*srt));
    } else if (const auto* ir2 = dynamic_cast<const Ir2Tree*>(&fi)) {
      report((label + " (IR2)").c_str(), ValidateIr2Tree(*ir2));
    } else {
      std::printf("%-24s skipped (unknown index type)\n", label.c_str());
    }
    InvertedIndex inv = InvertedIndex::Build(
        engine.feature_table(i).universe_size(), corpora[i]);
    report(("inverted index " + std::to_string(i)).c_str(),
           ValidateInvertedIndex(inv, corpora[i]));
  }
  if (failures == 0) {
    std::printf("all structures sound\n");
  }
  return failures == 0 ? 0 : 1;
}

/// Builds every index over a dataset and persists the set as a .stpqx
/// file that `--index`-accepting commands (and Engine::Open) reopen.
int BuildIndex(const Args& args) {
  const std::string out = args.Get("index");
  if (out.empty()) {
    std::fprintf(stderr, "error: --index FILE (output path) is required\n");
    return 1;
  }
  if (args.Has("external")) {
    // External build: stream the dataset straight into the .stpqx file in
    // bounded memory; the dataset is never materialized.
    const std::string data_path = args.Get("data");
    if (data_path.empty()) {
      std::fprintf(stderr, "error: --data FILE is required\n");
      return 1;
    }
    ExternalBuildOptions opts;
    if (args.Get("kind", "srt") == "ir2") {
      opts.params.index_kind = FeatureIndexKind::kIr2;
    }
    opts.params.page_size_bytes =
        args.GetUint("page-size", kDefaultPageSizeBytes);
    opts.params.fill = args.GetDouble("fill", 1.0);
    if (args.Has("signature-bits")) {
      opts.params.signature_bits = args.GetUint("signature-bits", 0);
    }
    if (args.Has("signature-hashes")) {
      opts.params.signature_hashes = args.GetUint("signature-hashes", 3);
    }
    opts.memory_budget_bytes =
        uint64_t{args.GetUint("memory-budget", 256)} << 20;
    opts.temp_dir = args.Get("temp-dir");
    Result<ExternalBuildStats> stats_r =
        BuildIndexFileExternal(data_path, out, opts);
    if (!stats_r.ok()) {
      std::fprintf(stderr, "error: %s\n", stats_r.status().ToString().c_str());
      return 1;
    }
    const ExternalBuildStats& s = stats_r.value();
    std::printf("wrote %s: %s index, %llu objects, %u feature sets, "
                "%llu bytes (external build)\n",
                out.c_str(),
                opts.params.index_kind == FeatureIndexKind::kIr2 ? "IR2"
                                                                 : "SRT",
                static_cast<unsigned long long>(s.objects), s.tables,
                static_cast<unsigned long long>(s.output_bytes));
    std::printf("sort: %llu runs written, %llu merge passes, "
                "%llu bytes spilled\n",
                static_cast<unsigned long long>(s.runs_written),
                static_cast<unsigned long long>(s.merge_passes),
                static_cast<unsigned long long>(s.spilled_bytes));
    return 0;
  }
  Result<Dataset> data = LoadData(args);
  if (!data.ok()) {
    std::fprintf(stderr, "error: %s\n", data.status().ToString().c_str());
    return 1;
  }
  Dataset ds = data.TakeValue();
  std::vector<Vocabulary> vocabularies = ds.vocabularies;  // ride along
  Result<Engine> engine =
      Engine::Build(std::move(ds.objects), std::move(ds.feature_tables),
                    MakeEngineOptions(args));
  if (!engine.ok()) {
    std::fprintf(stderr, "error: %s\n", engine.status().ToString().c_str());
    return 1;
  }
  Status st = engine.value().Save(out, vocabularies);
  if (!st.ok()) {
    std::fprintf(stderr, "error: %s\n", st.ToString().c_str());
    return 1;
  }
  Result<IndexFileInfo> info = ReadIndexFileInfo(out);
  if (!info.ok()) {
    std::fprintf(stderr, "error: reopening just-written index: %s\n",
                 info.status().ToString().c_str());
    return 1;
  }
  std::printf("wrote %s: %s index, %llu objects, %u feature sets, "
              "%llu bytes\n",
              out.c_str(), engine.value().IndexName(),
              static_cast<unsigned long long>(info.value().object_count),
              info.value().table_count,
              static_cast<unsigned long long>(info.value().file_bytes));
  return 0;
}

/// Prints the superblock + segment catalog of a .stpqx file; --verify
/// additionally opens it with Engine::Open, which checks every segment
/// checksum, every node slot header and the tree metadata (nodes are read
/// in place by queries, never decoded up front).
int LoadInfo(const Args& args) {
  const std::string path = args.Get("index");
  if (path.empty()) {
    std::fprintf(stderr, "error: --index FILE is required\n");
    return 1;
  }
  Result<IndexFileInfo> info_r = ReadIndexFileInfo(path);
  if (!info_r.ok()) {
    std::fprintf(stderr, "error: %s\n", info_r.status().ToString().c_str());
    return 1;
  }
  const IndexFileInfo& info = info_r.value();
  std::printf("%s: version %u, %s index, page size %u, fill %.2f\n",
              path.c_str(), info.version,
              info.params.index_kind == FeatureIndexKind::kIr2 ? "IR2" : "SRT",
              info.params.page_size_bytes, info.params.fill);
  std::printf("objects: %llu, feature sets: %u, file bytes: %llu\n",
              static_cast<unsigned long long>(info.object_count),
              info.table_count,
              static_cast<unsigned long long>(info.file_bytes));
  std::printf("%-20s %8s %12s %10s %10s\n", "segment", "ordinal", "bytes",
              "slots", "slot_b");
  for (const IndexSegmentInfo& s : info.segments) {
    std::printf("%-20s %8u %12llu %10llu %10u\n", s.name.c_str(), s.ordinal,
                static_cast<unsigned long long>(s.bytes),
                static_cast<unsigned long long>(s.slots), s.slot_bytes);
  }
  if (args.Has("verify")) {
    Result<Engine> engine = Engine::Open(path);
    if (!engine.ok()) {
      std::fprintf(stderr, "verify FAILED: %s\n",
                   engine.status().ToString().c_str());
      return 1;
    }
    std::printf("verify OK: all segments verified\n");
  }
  return 0;
}

const std::vector<CommandSpec>& Commands() {
  static const std::vector<CommandSpec> kCommands = {
      {"generate", "synthesize a dataset and write it as a .stpq file",
       "  --out FILE        output dataset path (required)\n"
       "  --kind NAME       synthetic|real (default synthetic)\n"
       "  --scale S         dataset scale factor (default 0.1)\n"
       "  --seed N          RNG seed (default 42)\n",
       &Generate},
      {"info", "summarize a .stpq dataset",
       "  --data FILE       dataset path (required)\n", &Info},
      {"build",
       "build all indexes over a dataset and persist them as a .stpqx file",
       "  --data FILE       dataset to index (required)\n"
       "  --index FILE      output index file path (required)\n"
       "  --kind srt|ir2    feature index to build (default srt)\n"
       "  --page-size N     page size in bytes (default 4096)\n"
       "  --fill F          bulk-load fill factor in (0, 1]\n"
       "  --signature-bits N / --signature-hashes N  IR2 signatures\n"
       "  --external        stream-build on disk in bounded memory\n"
       "                    (external merge sort; byte-identical output)\n"
       "  --memory-budget MB  external sort memory ceiling (default 256)\n"
       "  --temp-dir DIR    where external sort runs spill (default: next\n"
       "                    to the output index)\n",
       &BuildIndex},
      {"load", "print the superblock + segment catalog of a .stpqx file",
       "  --index FILE      index file path (required)\n"
       "  --verify          additionally open the index with Engine::Open:\n"
       "                    segment checksums, node slot headers and tree\n"
       "                    metadata (nodes are not decoded)\n",
       &LoadInfo},
      {"query", "run one query and print the top-k",
       STPQ_CLI_ENGINE_FLAGS
       "  --keywords \"a,b;c\"  per-set keyword lists (required)\n"
       "  --k N / --r R / --lambda L\n"
       "  --variant range|influence|nn\n"
       "  --algo stps|stds\n"
       "  --explain         print per-set contributions for each result\n",
       &RunQuery},
      {"bench", "run a generated query batch sequentially",
       STPQ_CLI_ENGINE_FLAGS
       "  --queries N / --k N / --r R / --lambda L\n"
       "  --variant range|influence|nn\n"
       "  --algo stps|stds\n"
       "  --io-ms MS        simulated cost per page read\n"
       STPQ_CLI_ADMIN_FLAGS
       "  --linger-ms MS    keep the admin server up MS ms after the run\n",
       &Bench},
      {"workload", "parallel throughput sweep over thread counts",
       STPQ_CLI_ENGINE_FLAGS
       "  --threads N[,N...]  thread counts to sweep (default 1)\n"
       "  --queries N / --k N / --r R / --lambda L\n"
       "  --variant range|influence|nn\n"
       "  --algo stps|stds\n"
       "  --io-ms MS        simulated cost per page read\n"
       "  --metrics FILE    write Prometheus text exposition\n"
       "  --trace-out FILE  write Chrome trace JSON\n"
       STPQ_CLI_ADMIN_FLAGS
       "  --slow-ms T       retain queries at or above T ms (/slowz)\n"
       "  --linger-ms MS    keep the admin server up MS ms after the run\n",
       &Workload},
      {"profile", "sequential run with phase breakdown + latency histogram",
       STPQ_CLI_ENGINE_FLAGS
       "  --queries N / --k N / --r R / --lambda L\n"
       "  --variant range|influence|nn\n"
       "  --algo stps|stds\n"
       "  --io-ms MS        simulated cost per page read\n"
       "  --metrics FILE    write Prometheus text exposition\n"
       "  --trace-out FILE  write Chrome trace JSON\n"
       STPQ_CLI_ADMIN_FLAGS
       "  --slow-ms T       retain queries at or above T ms (/slowz)\n"
       "  --linger-ms MS    keep the admin server up MS ms after the run\n",
       &Profile},
      {"trace", "run with the tracer armed and export Chrome trace JSON",
       STPQ_CLI_ENGINE_FLAGS
       "  --trace-out FILE  output path (default trace.json)\n"
       "  --slow-ms T       capture only queries at or above T ms\n"
       "  --queries N / --threads N\n"
       "  --variant range|influence|nn\n"
       "  --algo stps|stds\n"
       STPQ_CLI_ADMIN_FLAGS
       "  --linger-ms MS    keep the admin server up MS ms after the run\n"
       "                    (note: a /tracez scrape consumes trace events\n"
       "                    the export would otherwise include)\n",
       &Trace},
      {"validate", "run the deep structural validators over every index",
       STPQ_CLI_ENGINE_FLAGS, &Validate},
  };
  return kCommands;
}

}  // namespace

int main(int argc, char** argv) {
  Args args = Parse(argc, argv);
  for (const CommandSpec& c : Commands()) {
    if (args.command != c.name) continue;
    if (args.Has("help")) {
      std::printf("usage: stpq_cli %s [flags]\n%s\n%s", c.name, c.summary,
                  c.help);
      return 0;
    }
    return c.run(args);
  }
  return Usage();
}

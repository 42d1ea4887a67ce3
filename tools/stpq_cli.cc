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
//   bench      run a generated query batch on one thread
//   workload   parallel throughput sweep over thread counts
//   profile    one-thread run with phase breakdown + latency histogram
//   trace      run with the tracer armed and export Chrome trace JSON
//   validate   run the deep structural validators over every index
//
// Every query-running command accepts either --data FILE (build indexes
// in memory, simulated storage) or --index FILE (reopen a prebuilt
// .stpqx file, file-backed storage).  --kind srt|ir2 picks the feature
// index when building; a reopened file always uses the kind it was built
// with.
//
// Each command declares its flags in one table (name, value kind,
// default, help line) that both parsing and --help read.  Flags accept
// "--flag value" and "--flag=value"; an unknown flag, a value that does
// not parse, or a value outside its set is a usage error (exit 2).
// Keyword syntax: per-feature-set lists separated by ';', terms by ','.
#include <algorithm>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/explain.h"
#include "core/score.h"
#include "core/workload.h"
#include "debug/validate.h"
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

// ------------------------------------------------------------ flag tables

enum class FlagKind { kString, kUint, kPort, kDouble, kBool, kChoice };

/// One row of a command's flag table: what Parse accepts and --help prints.
struct Flag {
  const char* name;
  FlagKind kind;
  /// --help placeholder for the value; for kChoice, the '|'-separated set
  /// of accepted values.  Unused for kBool.
  const char* value;
  /// Default as text; nullptr when the flag has none (it is optional, or
  /// required and checked by the command).
  const char* def;
  const char* help;
};

using FlagTable = std::vector<Flag>;

FlagTable Join(std::initializer_list<FlagTable> parts) {
  FlagTable out;
  for (const FlagTable& part : parts) {
    out.insert(out.end(), part.begin(), part.end());
  }
  return out;
}

const Flag* FindFlag(const FlagTable& table, const std::string& name) {
  for (const Flag& f : table) {
    if (name == f.name) return &f;
  }
  return nullptr;
}

bool InChoiceSet(const std::string& choices, const std::string& value) {
  for (size_t start = 0;;) {
    const size_t bar = choices.find('|', start);
    if (choices.compare(start, bar - start, value) == 0) return true;
    if (bar == std::string::npos) return false;
    start = bar + 1;
  }
}

/// Checks `value` against the flag's kind; bool values are normalized to
/// "1"/"0".  Returns false with `*error` set when it does not parse.
bool CheckValue(const Flag& flag, std::string* value, std::string* error) {
  const std::string quoted = "'" + *value + "'";
  switch (flag.kind) {
    case FlagKind::kString:
      return true;
    case FlagKind::kUint:
    case FlagKind::kPort: {
      const bool digits = !value->empty() &&
          value->find_first_not_of("0123456789") == std::string::npos;
      const unsigned long long max =
          flag.kind == FlagKind::kPort ? 65535 : UINT32_MAX;
      errno = 0;
      const unsigned long long v =
          digits ? std::strtoull(value->c_str(), nullptr, 10) : 0;
      if (!digits || errno == ERANGE || v > max) {
        *error = "expects an integer in [0, " + std::to_string(max) +
                 "], got " + quoted;
        return false;
      }
      return true;
    }
    case FlagKind::kDouble: {
      char* end = nullptr;
      const double v = std::strtod(value->c_str(), &end);
      if (value->empty() || *end != '\0' || !std::isfinite(v)) {
        *error = "expects a number, got " + quoted;
        return false;
      }
      return true;
    }
    case FlagKind::kBool:
      if (*value == "1" || *value == "true") {
        *value = "1";
      } else if (*value == "0" || *value == "false") {
        *value = "0";
      } else {
        *error = "expects true|false|1|0, got " + quoted;
        return false;
      }
      return true;
    case FlagKind::kChoice:
      if (!InChoiceSet(flag.value, *value)) {
        *error = "expects one of " + std::string(flag.value) + ", got " +
                 quoted;
        return false;
      }
      return true;
  }
  return false;
}

/// The parsed flags of one command invocation.  Every read names a flag
/// of the command's table; an unset flag reads as its default.
class Args {
 public:
  Args(const FlagTable* table, std::map<std::string, std::string> given)
      : table_(table), given_(std::move(given)) {}

  /// Whether the table has the flag at all.
  bool Declares(const std::string& name) const {
    return FindFlag(*table_, name) != nullptr;
  }
  /// Whether the flag was given on the command line.
  bool Has(const std::string& name) const {
    Find(name);
    return given_.count(name) > 0;
  }
  std::string Get(const std::string& name) const {
    const Flag& flag = Find(name);
    auto it = given_.find(name);
    if (it != given_.end()) return it->second;
    return flag.def != nullptr ? flag.def : "";
  }
  uint32_t Uint(const std::string& name) const {
    return static_cast<uint32_t>(
        std::strtoul(Get(name).c_str(), nullptr, 10));
  }
  double Double(const std::string& name) const {
    return std::strtod(Get(name).c_str(), nullptr);
  }
  bool Bool(const std::string& name) const { return Get(name) == "1"; }

 private:
  const Flag& Find(const std::string& name) const {
    const Flag* flag = FindFlag(*table_, name);
    STPQ_CHECK(flag != nullptr && "a command read a flag its table lacks");
    return *flag;
  }

  const FlagTable* table_;
  std::map<std::string, std::string> given_;
};

/// Parses argv[2..] against `table`.  Returns false with `*error` set on
/// an unknown flag, a missing or malformed value, or a stray argument.
bool Parse(const FlagTable& table, int argc, char** argv,
           std::map<std::string, std::string>* given, std::string* error) {
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      *error = "unexpected argument '" + arg + "'";
      return false;
    }
    const size_t eq = arg.find('=');
    const std::string name = arg.substr(2, eq == std::string::npos
                                               ? std::string::npos
                                               : eq - 2);
    const Flag* flag = FindFlag(table, name);
    if (flag == nullptr) {
      *error = "unknown flag --" + name;
      return false;
    }
    std::string value;
    if (eq != std::string::npos) {
      value = arg.substr(eq + 1);
    } else if (flag->kind == FlagKind::kBool) {
      value = "1";
    } else if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      value = argv[++i];
    } else {
      *error = "flag --" + name + " needs a value";
      return false;
    }
    std::string why;
    if (!CheckValue(*flag, &value, &why)) {
      *error = "flag --" + name + " " + why;
      return false;
    }
    given->insert_or_assign(name, std::move(value));
  }
  return true;
}

void PrintFlagHelp(const FlagTable& table) {
  for (const Flag& f : table) {
    std::string lhs = std::string("--") + f.name;
    if (f.kind != FlagKind::kBool) lhs += std::string(" ") + f.value;
    std::printf("  %-26s %s", lhs.c_str(), f.help);
    if (f.def != nullptr) std::printf(" (default %s)", f.def);
    std::printf("\n");
  }
}

// Flag groups shared by several commands.

static_assert(kDefaultPageSizeBytes == 4096, "update the --page-size default");

/// How a query-running command gets its engine (MakeEngine): where from...
const FlagTable kSourceFlags = {
    {"data", FlagKind::kString, "FILE", nullptr,
     "dataset to index in memory (simulated storage)"},
    {"index", FlagKind::kString, "FILE", nullptr,
     "prebuilt .stpqx index file to reopen instead"},
};

/// ...and how it is built (MakeEngineOptions; build reads these too).
const FlagTable kBuildFlags = {
    {"kind", FlagKind::kChoice, "srt|ir2", "srt",
     "feature index to build (a reopened file records its own)"},
    {"page-size", FlagKind::kUint, "N", "4096",
     "page size in bytes when building"},
    {"pool", FlagKind::kUint, "N", "0",
     "buffer-pool capacity in pages (0 = unbounded)"},
    {"fill", FlagKind::kDouble, "F", "1", "bulk-load fill factor in (0, 1]"},
    {"signature-bits", FlagKind::kUint, "N", "0",
     "IR2 signature width in bits (0 = 2x the keyword universe)"},
    {"signature-hashes", FlagKind::kUint, "N", "3",
     "IR2 signature bits set per keyword"},
};

const FlagTable kEngineFlags = Join({kSourceFlags, kBuildFlags});

/// The query shape and algorithm (QueryRun).
const FlagTable kQueryFlags = {
    {"k", FlagKind::kUint, "N", "10", "results per query"},
    {"r", FlagKind::kDouble, "R", "0.01",
     "radius in the normalized [0,1] space"},
    {"lambda", FlagKind::kDouble, "L", "0.5",
     "smoothing between feature score and textual similarity"},
    {"variant", FlagKind::kChoice, "range|influence|nn", "range",
     "score variant"},
    {"algo", FlagKind::kChoice, "stps|stds", "stps", "query algorithm"},
};

/// A generated batch of `queries` queries run through the workload runner.
FlagTable BatchFlags(const char* queries) {
  return {{"queries", FlagKind::kUint, "N", queries, "queries in the batch"},
          {"io-ms", FlagKind::kDouble, "MS", "0.1",
           "modelled cost of one page read (reported apart from measured "
           "time)"}};
}

/// The live-introspection plane (StartAdmin, AdminLinger).
const FlagTable kAdminFlags = {
    {"serve-admin", FlagKind::kPort, "PORT", nullptr,
     "serve /metrics /healthz /statusz /slowz /tracez /varz on "
     "127.0.0.1:PORT while the run executes (0 = ephemeral; the bound port "
     "is printed)"},
    {"metrics-interval", FlagKind::kUint, "MS", "250",
     "sample interval deltas every MS ms (/varz); armed automatically when "
     "serving"},
    {"linger-ms", FlagKind::kUint, "MS", "0",
     "keep the admin server up MS ms after the run"},
};

const Flag kSlowLogFlag = {"slow-ms", FlagKind::kDouble, "T", nullptr,
                           "retain queries at or above T ms (/slowz)"};
const Flag kMetricsFlag = {"metrics", FlagKind::kString, "FILE", nullptr,
                           "write Prometheus text exposition"};
const Flag kTraceOutFlag = {"trace-out", FlagKind::kString, "FILE", nullptr,
                            "write Chrome trace JSON"};

/// One subcommand: name, one-line summary for the top-level usage, its
/// flag table, and the handler.
struct CommandSpec {
  const char* name;
  const char* summary;
  FlagTable flags;
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

// ------------------------------------------------------------- prologues

Result<Dataset> LoadData(const Args& args) {
  std::string path = args.Get("data");
  if (path.empty()) {
    return Status::InvalidArgument("--data FILE is required");
  }
  return ReadDatasetBinary(path);
}

FeatureIndexKind IndexKind(const Args& args) {
  return args.Get("kind") == "ir2" ? FeatureIndexKind::kIr2
                                   : FeatureIndexKind::kSrt;
}

EngineOptions MakeEngineOptions(const Args& args) {
  EngineOptions opts;
  opts.index_kind = IndexKind(args);
  opts.storage.page_size = args.Uint("page-size");
  opts.storage.pool_capacity = args.Uint("pool");
  opts.fill = args.Double("fill");
  opts.signature_bits = args.Uint("signature-bits");
  opts.signature_hashes = args.Uint("signature-hashes");
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

/// What a query-running command sets up before its first query: the
/// engine with its dataset view, the query shape and the algorithm, and
/// — for a command with --queries — the generated batch.
struct QueryRun {
  Dataset ds;
  Engine engine;
  QueryWorkloadConfig shape;
  Algorithm algo;
  std::vector<Query> queries;

  const char* AlgoName() const {
    return algo == Algorithm::kStds ? "STDS" : "STPS";
  }
};

/// Builds the QueryRun from the command's flags; prints the error and
/// returns nullopt when the engine cannot be made.
std::optional<QueryRun> PrepareRun(const Args& args) {
  Dataset ds;
  Result<Engine> engine = MakeEngine(args, &ds);
  if (!engine.ok()) {
    std::fprintf(stderr, "error: %s\n", engine.status().ToString().c_str());
    return std::nullopt;
  }
  QueryWorkloadConfig shape;
  shape.k = args.Uint("k");
  shape.radius = args.Double("r");
  shape.lambda = args.Double("lambda");
  for (ScoreVariant v : {ScoreVariant::kRange, ScoreVariant::kInfluence,
                         ScoreVariant::kNearestNeighbor}) {
    if (args.Get("variant") == VariantName(v)) shape.variant = v;
  }
  const Algorithm algo =
      args.Get("algo") == "stds" ? Algorithm::kStds : Algorithm::kStps;
  std::vector<Query> queries;
  if (args.Declares("queries")) {
    shape.count = args.Uint("queries");
    queries = GenerateQueries(ds, shape);
  }
  return QueryRun{std::move(ds), engine.TakeValue(), shape, algo,
                  std::move(queries)};
}

/// Runner options for a batch command: the run's algorithm, --io-ms, and
/// `threads` workers.
ParallelWorkloadOptions BatchOptions(const QueryRun& run, const Args& args,
                                     size_t threads, SlowQueryLog* slow_log) {
  ParallelWorkloadOptions opts;
  opts.algorithm = run.algo;
  opts.threads = threads;
  opts.io_unit_cost_ms = args.Double("io-ms");
  opts.slow_log = slow_log;
  return opts;
}

// -------------------------------------------------------------- commands

int Generate(const Args& args) {
  std::string out = args.Get("out");
  if (out.empty()) {
    std::fprintf(stderr, "error: --out FILE is required\n");
    return 2;
  }
  double scale = args.Double("scale");
  uint64_t seed = args.Uint("seed");
  Dataset ds;
  if (args.Get("kind") == "real") {
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
  std::optional<QueryRun> run = PrepareRun(args);
  if (!run) return 1;
  const Engine& engine = run->engine;
  Query query;
  query.k = run->shape.k;
  query.radius = run->shape.radius;
  query.lambda = run->shape.lambda;
  query.variant = run->shape.variant;
  if (!ParseKeywords(args.Get("keywords"), run->ds, &query)) return 1;

  const std::vector<DataObject>& objects = run->ds.objects;  // names
  Result<QueryResult> executed = engine.Execute(query, run->algo);
  if (!executed.ok()) {
    std::fprintf(stderr, "error: %s\n", executed.status().ToString().c_str());
    return 1;
  }
  QueryResult result = executed.TakeValue();
  std::printf("top-%u (%s, %s, %s index):\n", query.k,
              VariantName(query.variant), run->AlgoName(),
              engine.IndexName());
  for (size_t rank = 0; rank < result.entries.size(); ++rank) {
    const ResultEntry& e = result.entries[rank];
    const std::string& name = objects[e.object].name;
    std::printf("%3zu. #%-8u %-20s tau = %.5f\n", rank + 1, e.object,
                name.empty() ? "(unnamed)" : name.c_str(), e.score);
    if (args.Bool("explain")) {
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
    ropts.interval_ms = args.Uint("metrics-interval");
    if (ropts.interval_ms == 0) ropts.interval_ms = 250;
    scope->recorder = std::make_unique<MetricsRecorder>(ropts);
    scope->recorder->Start();
  }
  if (external_slow_log == nullptr && args.Has("slow-ms")) {
    scope->slow_log = std::make_unique<SlowQueryLog>(args.Double("slow-ms"));
  }
  if (!serve) return true;
  AdminServerOptions sopts;
  sopts.port = static_cast<uint16_t>(args.Uint("serve-admin"));
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
  const uint32_t linger_ms = args.Uint("linger-ms");
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
  std::optional<QueryRun> run = PrepareRun(args);
  if (!run) return 1;
  AdminScope admin;
  if (!StartAdmin(args, &run->engine, nullptr, &admin)) return 1;
  Result<ParallelWorkloadReport> report =
      ParallelWorkloadRunner(&run->engine)
          .Run(run->queries, BatchOptions(*run, args, 1, admin.slow_log.get()));
  if (!report.ok()) {
    std::fprintf(stderr, "error: %s\n", report.status().ToString().c_str());
    return 1;
  }
  std::printf("%s\n", report.value().summary.ToString().c_str());
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
  std::vector<size_t> thread_counts = ParseThreadList(args.Get("threads"));
  if (thread_counts.empty()) {
    std::fprintf(stderr, "error: --threads expects N or N,N,... (got '%s')\n",
                 args.Get("threads").c_str());
    return 2;
  }
  std::optional<QueryRun> run = PrepareRun(args);
  if (!run) return 1;
  ParallelWorkloadRunner runner(&run->engine);

  AdminScope admin;
  if (!StartAdmin(args, &run->engine, nullptr, &admin)) return 1;

  if (args.Has("trace-out")) Tracer::Global().Start();

  std::printf("%zu queries, %s, %s index\n", run->queries.size(),
              run->AlgoName(), run->engine.IndexName());
  std::printf("%8s %12s %12s %14s %10s %10s %10s\n", "threads", "wall_ms",
              "queries/s", "reads/query", "p50_ms", "p95_ms", "p99_ms");
  for (size_t threads : thread_counts) {
    Result<ParallelWorkloadReport> report = runner.Run(
        run->queries, BatchOptions(*run, args, threads, admin.slow_log.get()));
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

/// Runs a generated workload on one thread and prints the measured
/// latency distribution, the modelled I/O apart from it, and the
/// per-phase breakdown of the measured time (DESIGN.md §12).
int Profile(const Args& args) {
  std::optional<QueryRun> run = PrepareRun(args);
  if (!run) return 1;
  AdminScope admin;
  if (!StartAdmin(args, &run->engine, nullptr, &admin)) return 1;

  if (args.Has("trace-out")) Tracer::Global().Start();
  const ParallelWorkloadOptions opts =
      BatchOptions(*run, args, 1, admin.slow_log.get());
  Result<ParallelWorkloadReport> report =
      ParallelWorkloadRunner(&run->engine).Run(run->queries, opts);
  if (!report.ok()) {
    std::fprintf(stderr, "error: %s\n", report.status().ToString().c_str());
    return 1;
  }
  const ParallelWorkloadReport& r = report.value();
  const QueryStats& aggregate = r.summary.aggregate;

  std::printf("profile: %zu queries, %s, %s index, variant=%s\n",
              run->queries.size(), run->AlgoName(), run->engine.IndexName(),
              VariantName(run->shape.variant));
  std::printf("latency (measured): %s mean=%.3fms\n",
              r.latency.SummaryString().c_str(), r.latency.mean_ms());
  std::printf("modelled I/O (%.3f ms/read): mean=%.3fms, %.1f reads/query\n",
              opts.io_unit_cost_ms, r.summary.io_ms.mean,
              r.summary.mean_page_reads);

  // Phase breakdown of the measured time: traced self-times and the
  // untraced remainder.
  auto row = [&](const char* name, double ms) {
    std::printf("  %-18s %12.3f ms %6.1f%%\n", name, ms,
                aggregate.cpu_ms > 0.0 ? 100.0 * ms / aggregate.cpu_ms : 0.0);
  };
  std::printf("phase breakdown (self time over the whole workload):\n");
  for (size_t i = 0; i < kNumQueryPhases; ++i) {
    row(QueryPhaseName(static_cast<QueryPhase>(i)), aggregate.phase_ms[i]);
  }
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
  std::optional<QueryRun> run = PrepareRun(args);
  if (!run) return 1;

  const std::string out_path = args.Get("trace-out");
  const bool slow_mode = args.Has("slow-ms");
  SlowQueryLog slow_log(args.Double("slow-ms"));

  AdminScope admin;
  if (!StartAdmin(args, &run->engine, slow_mode ? &slow_log : nullptr,
                  &admin)) {
    return 1;
  }

  Tracer::Global().Start();
  Result<ParallelWorkloadReport> report =
      ParallelWorkloadRunner(&run->engine)
          .Run(run->queries,
               BatchOptions(*run, args, args.Uint("threads"),
                            slow_mode ? &slow_log : nullptr));
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
  if (args.Bool("external")) {
    // External build: stream the dataset straight into the .stpqx file in
    // bounded memory; the dataset is never materialized.
    const std::string data_path = args.Get("data");
    if (data_path.empty()) {
      std::fprintf(stderr, "error: --data FILE is required\n");
      return 1;
    }
    const EngineOptions engine_opts = MakeEngineOptions(args);
    ExternalBuildOptions opts;
    opts.params.index_kind = engine_opts.index_kind;
    opts.params.page_size_bytes = engine_opts.storage.page_size;
    opts.params.fill = engine_opts.fill;
    opts.params.signature_bits = engine_opts.signature_bits;
    opts.params.signature_hashes = engine_opts.signature_hashes;
    opts.memory_budget_bytes = uint64_t{args.Uint("memory-budget")} << 20;
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
  if (args.Bool("verify")) {
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
      {"generate",
       "synthesize a dataset and write it as a .stpq file",
       {{"out", FlagKind::kString, "FILE", nullptr,
         "output dataset path (required)"},
        {"kind", FlagKind::kChoice, "synthetic|real", "synthetic",
         "dataset generator"},
        {"scale", FlagKind::kDouble, "S", "0.1",
         "dataset scale factor (1.0 = 100K objects)"},
        {"seed", FlagKind::kUint, "N", "42", "RNG seed"}},
       &Generate},
      {"info",
       "summarize a .stpq dataset",
       {{"data", FlagKind::kString, "FILE", nullptr,
         "dataset path (required)"}},
       &Info},
      {"build",
       "build all indexes over a dataset and persist them as a .stpqx file",
       Join({{{"data", FlagKind::kString, "FILE", nullptr,
               "dataset to index (required)"},
              {"index", FlagKind::kString, "FILE", nullptr,
               "output index file path (required)"}},
             kBuildFlags,
             {{"external", FlagKind::kBool, nullptr, nullptr,
               "stream-build on disk in bounded memory (external merge "
               "sort; byte-identical output)"},
              {"memory-budget", FlagKind::kUint, "MB", "256",
               "external sort memory ceiling"},
              {"temp-dir", FlagKind::kString, "DIR", nullptr,
               "where external sort runs spill (default: next to the output "
               "index)"}}}),
       &BuildIndex},
      {"load",
       "print the superblock + segment catalog of a .stpqx file",
       {{"index", FlagKind::kString, "FILE", nullptr,
         "index file path (required)"},
        {"verify", FlagKind::kBool, nullptr, nullptr,
         "also open the index with Engine::Open: segment checksums, node "
         "slot headers and tree metadata (nodes are not decoded)"}},
       &LoadInfo},
      {"query",
       "run one query and print the top-k",
       Join({kEngineFlags, kQueryFlags,
             {{"keywords", FlagKind::kString, "\"a,b;c\"", nullptr,
               "per-set keyword lists (required)"},
              {"explain", FlagKind::kBool, nullptr, nullptr,
               "print per-set contributions for each result"}}}),
       &RunQuery},
      {"bench",
       "run a generated query batch on one thread",
       Join({kEngineFlags, kQueryFlags, BatchFlags("50"), kAdminFlags,
             {kSlowLogFlag}}),
       &Bench},
      {"workload",
       "parallel throughput sweep over thread counts",
       Join({kEngineFlags, kQueryFlags, BatchFlags("200"),
             {{"threads", FlagKind::kString, "N[,N...]", "1",
               "thread counts to sweep"},
              kMetricsFlag, kTraceOutFlag},
             kAdminFlags, {kSlowLogFlag}}),
       &Workload},
      {"profile",
       "one-thread run with phase breakdown + latency histogram",
       Join({kEngineFlags, kQueryFlags, BatchFlags("100"),
             {kMetricsFlag, kTraceOutFlag}, kAdminFlags, {kSlowLogFlag}}),
       &Profile},
      {"trace",
       "run with the tracer armed and export Chrome trace JSON",
       Join({kEngineFlags, kQueryFlags, BatchFlags("100"),
             {{"threads", FlagKind::kUint, "N", "1", "worker threads"},
              {"trace-out", FlagKind::kString, "FILE", "trace.json",
               "output path"},
              {"slow-ms", FlagKind::kDouble, "T", nullptr,
               "capture only queries at or above T ms"}},
             kAdminFlags}),
       &Trace},
      {"validate",
       "run the deep structural validators over every index",
       kEngineFlags,
       &Validate},
  };
  return kCommands;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string command = argv[1];
  for (const CommandSpec& c : Commands()) {
    if (command != c.name) continue;
    for (int i = 2; i < argc; ++i) {
      if (std::string(argv[i]) == "--help") {
        std::printf("usage: stpq_cli %s [flags]\n%s\n", c.name, c.summary);
        PrintFlagHelp(c.flags);
        return 0;
      }
    }
    std::map<std::string, std::string> given;
    std::string error;
    if (!Parse(c.flags, argc, argv, &given, &error)) {
      std::fprintf(stderr, "stpq_cli %s: %s (see 'stpq_cli %s --help')\n",
                   c.name, error.c_str(), c.name);
      return 2;
    }
    return c.run(Args(&c.flags, std::move(given)));
  }
  return Usage();
}

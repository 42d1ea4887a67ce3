// Per-query event tracing (DESIGN.md §14).
//
// Every worker thread owns one fixed-capacity SPSC ring of 32-byte POD
// trace events.  Emission is wait-free and allocation-free after the
// thread's first event (which registers the ring): one relaxed flag load
// when the tracer is idle, plus a bounds check and a store when it is
// recording.  When a ring fills, new events are *dropped and counted* —
// recording never blocks and never reallocates, so the alloc_test and
// golden-I/O guarantees of §13 hold with tracing active.
//
// Span events (query, component-score search, combination round, retrieval
// batch, Voronoi construction) are emitted as begin/end pairs by the RAII
// TraceSpan, the same object that attributes the phase's self-time to
// QueryStats::phase_ms from the same two clock reads; instant events record
// individual node visits (tree, level, prune/descend verdicts), buffer-pool
// hits/misses/evictions, and search heap high-water marks.  Each event
// carries the per-query trace id assigned by Engine::Execute's kQuery span,
// so one ring can hold interleaved queries and the exporter
// (obs/trace_export.h) can still attribute every event.
//
// Defining STPQ_DISABLE_TRACING compiles every emission point away (the
// macros expand to nothing and TraceSpan never emits); phase accounting and
// the TraversalProfile counters in QueryStats are *not* part of tracing and
// stay on in every build.
#ifndef STPQ_OBS_TRACE_H_
#define STPQ_OBS_TRACE_H_

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <vector>

#include "util/metrics.h"
#include "util/thread_annotations.h"

namespace stpq {

/// What a trace event describes.  The first five and kBuildPhase are span
/// types (begin/end pairs); the rest are instants.
enum class TraceEventType : uint8_t {
  kQuery = 0,          ///< one Engine::Execute call
  kComponentScore,     ///< one tau_i(p) search / batch search
  kCombinationRound,   ///< one CombinationIterator::Next call
  kRetrievalBatch,     ///< one data-object retrieval traversal
  kVoronoiCell,        ///< one Voronoi cell construction
  kNodeVisit,          ///< one index-node expansion (instant)
  kPoolHit,            ///< buffer-pool hit (instant)
  kPoolMiss,           ///< buffer-pool miss = simulated read (instant)
  kPoolEvict,          ///< buffer-pool eviction (instant)
  kHeapHighWater,      ///< search-heap high-water mark (instant)
  kBuildPhase,         ///< one external bulk-load phase (span)
  kAdminRequest,       ///< one admin-server HTTP request (span)
};

inline constexpr size_t kNumTraceEventTypes = 12;

/// Stable lowercase name ("query", "node_visit", ...), used as the Chrome
/// trace event name.
const char* TraceEventTypeName(TraceEventType type);

/// Span phase of an event.
enum class TraceMark : uint8_t {
  kBegin = 0,
  kEnd,
  kInstant,
};

/// `tree` value of a kNodeVisit event addressing the object R-tree (other
/// values are feature-set ordinals).
inline constexpr uint8_t kTraceObjectTree = 0xff;

/// One ring slot.  Arg semantics depend on `type`:
///   kQuery:          arg_c = trace id
///   kComponentScore: arg_c = feature set ordinal
///   kNodeVisit:      arg_a = tree (kTraceObjectTree or set ordinal),
///                    arg_b = node level (0 = leaf),
///                    arg_c = (pruned << 16) | descended (each capped),
///                    arg_d = node id
///   kPool*:          arg_d = page id;
///                    kPoolMiss: arg_a = storage backend tag
///                    (static_cast<uint8_t>(StorageBackend), 0 = simulated)
///   kHeapHighWater:  arg_d = max heap size observed by the span
struct TraceEvent {
  uint64_t ts_ns = 0;    ///< steady-clock nanos since the tracer epoch
  uint32_t trace_id = 0; ///< per-query id (0 = outside any query)
  TraceEventType type = TraceEventType::kQuery;
  TraceMark mark = TraceMark::kInstant;
  uint8_t arg_a = 0;
  uint8_t arg_b = 0;
  uint32_t arg_c = 0;
  uint64_t arg_d = 0;
};

static_assert(sizeof(TraceEvent) == 32, "TraceEvent must stay one cache "
                                        "half-line: fix the field packing");

/// Single-producer single-consumer ring of trace events.  The producer is
/// the owning thread (TryEmit); consumers (Collect, slow-query capture)
/// serialize against each other on an internal mutex the producer never
/// touches.
class TraceRing {
 public:
  /// `capacity` is rounded up to a power of two; allocation happens here
  /// and never again.
  TraceRing(uint32_t thread_ordinal, size_t capacity);

  /// Appends `e`; returns false (and counts a drop) when full.  Producer
  /// thread only.  Never allocates.
  bool TryEmit(const TraceEvent& e);

  /// Consumes every pending event.  Events are appended to `out` (may be
  /// nullptr to discard); when `keep_all` is false only events whose
  /// trace id equals `filter_trace_id` are kept.
  void Drain(bool keep_all, uint32_t filter_trace_id,
             std::vector<TraceEvent>* out) STPQ_EXCLUDES(consume_mu_);

  /// Drops recorded since the last TakeDropped call.
  uint64_t TakeDropped() {
    return dropped_.exchange(0, std::memory_order_relaxed);
  }

  uint32_t thread_ordinal() const { return thread_ordinal_; }

 private:
  const uint32_t thread_ordinal_;
  size_t mask_;
  std::vector<TraceEvent> buf_;
  /// Serializes concurrent consumers (Collect vs. slow-query capture);
  /// the ring state itself is the SPSC atomic head_/tail_ pair, which the
  /// lock-free producer also touches, so no member can be GUARDED_BY it.
  // stpq-lint: allow(mutex-guard) consumer-ordering lock over atomics
  Mutex consume_mu_;
  alignas(64) std::atomic<uint64_t> head_{0};  ///< next slot to write
  alignas(64) std::atomic<uint64_t> tail_{0};  ///< next slot to read
  std::atomic<uint64_t> dropped_{0};
};

/// Events drained from one ring, tagged with the owning thread's ordinal.
struct TraceThreadEvents {
  uint32_t thread_ordinal = 0;
  std::vector<TraceEvent> events;
  uint64_t dropped = 0;
};

/// Everything collected from the tracer at one point in time.
struct TraceCollection {
  std::vector<TraceThreadEvents> threads;
  uint64_t dropped = 0;  ///< sum over threads

  size_t TotalEvents() const {
    size_t n = 0;
    for (const TraceThreadEvents& t : threads) n += t.events.size();
    return n;
  }
  bool Empty() const { return TotalEvents() == 0; }
};

/// The process-wide tracer.  Start() arms recording; rings register
/// lazily on each thread's first emission and live for the process
/// lifetime (reused if the same thread traces again).
class Tracer {
 public:
  static constexpr size_t kDefaultRingCapacity = size_t{1} << 16;

  static Tracer& Global();

  /// Arms recording.  `ring_capacity` applies to rings created after this
  /// call; existing rings keep their size.
  void Start(size_t ring_capacity = kDefaultRingCapacity) STPQ_EXCLUDES(mu_);

  /// Disarms recording; already-recorded events stay collectable.
  void Stop();

  /// Whether emission points should record.  One relaxed atomic load.
  static bool Active() {
    return active_.load(std::memory_order_relaxed);
  }

  /// Allocates a fresh nonzero per-query trace id.
  uint32_t NextTraceId() {
    uint32_t id = next_trace_id_.fetch_add(1, std::memory_order_relaxed);
    return id == 0 ? next_trace_id_.fetch_add(1, std::memory_order_relaxed)
                   : id;
  }

  /// Drains every ring into a collection (consumes the events).
  TraceCollection Collect() STPQ_EXCLUDES(mu_);

  /// Discards all pending events and drop counts (tests / re-arming).
  void Discard() STPQ_EXCLUDES(mu_);

  /// Records one event on the calling thread's ring.  No-op when the
  /// tracer is idle.  The first call on a thread allocates its ring.
  static void Emit(TraceEventType type, TraceMark mark, uint8_t arg_a,
                   uint8_t arg_b, uint32_t arg_c, uint64_t arg_d);

  /// Emit with a timestamp the caller already read (NowNs), so a span's
  /// events and its phase accounting share one clock read per edge.
  static void EmitAt(uint64_t ts_ns, TraceEventType type, TraceMark mark,
                     uint8_t arg_a, uint8_t arg_b, uint32_t arg_c,
                     uint64_t arg_d);

  /// Consumes the calling thread's pending events, keeping those with
  /// `trace_id` (slow-query capture).  Nothing happens if the thread has
  /// never emitted.
  static void DrainCurrentThread(uint32_t trace_id,
                                 std::vector<TraceEvent>* out);

  /// The trace id stamped on events emitted by this thread.
  static uint32_t CurrentTraceId() { return tls_trace_id_; }
  static void SetCurrentTraceId(uint32_t id) { tls_trace_id_ = id; }

  /// Ordinal of the calling thread's ring (0 before the first emission).
  static uint32_t CurrentThreadOrdinal() {
    return tls_ring_ != nullptr ? tls_ring_->thread_ordinal() : 0;
  }

  /// Nanoseconds since the tracer epoch (its first use in the process).
  /// Inline: every span edge reads it.
  static uint64_t NowNs() {
    static const std::chrono::steady_clock::time_point epoch =
        std::chrono::steady_clock::now();
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch)
            .count());
  }

 private:
  Tracer() = default;

  TraceRing* RingForThisThread() STPQ_EXCLUDES(mu_);

  Mutex mu_;
  std::vector<std::unique_ptr<TraceRing>> rings_ STPQ_GUARDED_BY(mu_);
  size_t ring_capacity_ STPQ_GUARDED_BY(mu_) = kDefaultRingCapacity;
  std::atomic<uint32_t> next_trace_id_{1};

  static std::atomic<bool> active_;
  static thread_local TraceRing* tls_ring_;
  static thread_local uint32_t tls_trace_id_;
};

/// Whether emission points are compiled in (STPQ_DISABLE_TRACING clears
/// it).  Phase accounting does not depend on it.
#if defined(STPQ_DISABLE_TRACING)
inline constexpr bool kTracingCompiledIn = false;
#else
inline constexpr bool kTracingCompiledIn = true;
#endif

/// The phase each span type's self-time is attributed to.  Span types not
/// listed (kQuery, kBuildPhase, kAdminRequest) have no phase.
struct SpanPhase {
  TraceEventType type;
  QueryPhase phase;
};
inline constexpr SpanPhase kSpanPhases[] = {
    {TraceEventType::kComponentScore, QueryPhase::kComponentScore},
    {TraceEventType::kCombinationRound, QueryPhase::kCombination},
    {TraceEventType::kRetrievalBatch, QueryPhase::kObjectRetrieval},
    {TraceEventType::kVoronoiCell, QueryPhase::kVoronoi},
};

/// Index into QueryStats::phase_ms for span type `type`, or
/// kNumQueryPhases when the type has no phase.
constexpr size_t SpanPhaseIndex(TraceEventType type) {
  for (const SpanPhase& entry : kSpanPhases) {
    if (entry.type == type) return static_cast<size_t>(entry.phase);
  }
  return kNumQueryPhases;
}

/// The one RAII span of every algorithm boundary.  It reads the clock once
/// at begin and once at end, and from those two reads both accounts its
/// time in a QueryStats and stamps its begin/end trace events (emitted only
/// while the tracer is armed).
///
/// A span with stats and a phase (SpanPhaseIndex) adds its *self time* —
/// elapsed minus the time of spans nested in it — to that phase's
/// `phase_ms` entry, so entries never double-count and sum to at most the
/// query's total.  A span with stats but no phase is the query span: it
/// writes its whole elapsed time to `cpu_ms` and, when kQuery is traced,
/// stamps a fresh trace id on the thread for its duration.  Spans with
/// stats must close in LIFO order on their thread (automatic with block
/// scope); one may nest under a span writing to a different QueryStats
/// (e.g. a cursor drained inside another query), and the parent still
/// excludes the nested time from its self-time.
///
/// A span without stats (external-build phases, admin requests) only
/// emits events and costs one branch when the tracer is idle; it takes no
/// part in self-time accounting.
class TraceSpan {
 public:
  TraceSpan(QueryStats& stats, TraceEventType type, uint32_t arg_c = 0,
            uint64_t arg_d = 0)
      : stats_(&stats),
        parent_(current_),
        begin_ns_(Tracer::NowNs()),
        phase_(static_cast<uint8_t>(SpanPhaseIndex(type))),
        type_(type) {
    current_ = this;
    Begin(arg_c, arg_d);
  }

  explicit TraceSpan(TraceEventType type, uint32_t arg_c = 0,
                     uint64_t arg_d = 0)
      : type_(type) {
    if (kTracingCompiledIn && Tracer::Active()) {
      begin_ns_ = Tracer::NowNs();
      Begin(arg_c, arg_d);
    }
  }

  ~TraceSpan() { End(); }

  /// Closes the span before scope exit (the destructor then does nothing):
  /// Engine::Execute needs cpu_ms and the kQuery end event before the
  /// slow-query log drains the ring.  Must be the innermost open span.
  void End() {
    if (stats_ == nullptr && !armed_) return;
    const uint64_t end_ns = Tracer::NowNs();
    const uint64_t length = end_ns - begin_ns_;
    if (stats_ != nullptr) {
      current_ = parent_;
      if (parent_ != nullptr) parent_->child_ns_ += length;
      if (phase_ < kNumQueryPhases) {
        stats_->phase_ms[phase_] +=
            NsToMs(length - std::min(length, child_ns_));
      } else {
        stats_->cpu_ms = NsToMs(length);
      }
      stats_ = nullptr;
    }
    if (armed_) {
      armed_ = false;
      if (high_water_ > 0) {
        Tracer::EmitAt(end_ns, TraceEventType::kHeapHighWater,
                       TraceMark::kInstant, 0, 0, 0, high_water_);
      }
      Tracer::EmitAt(end_ns, type_, TraceMark::kEnd, 0, 0, trace_id_, 0);
      if (trace_id_ != 0) Tracer::SetCurrentTraceId(prev_trace_id_);
    }
  }

  /// Tracks a search heap's high-water mark; one kHeapHighWater instant
  /// reports it at span end.  One branch when the tracer is idle.
  void ObserveHeap(size_t size) {
    if (armed_ && size > high_water_) high_water_ = size;
  }

  /// The query span's trace id (0 for other spans or an idle tracer).
  uint32_t trace_id() const { return trace_id_; }

  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  static double NsToMs(uint64_t ns) { return static_cast<double>(ns) * 1e-6; }

  void Begin(uint32_t arg_c, uint64_t arg_d) {
    if (!kTracingCompiledIn || !Tracer::Active()) return;
    armed_ = true;
    if (type_ == TraceEventType::kQuery) {
      trace_id_ = Tracer::Global().NextTraceId();
      prev_trace_id_ = Tracer::CurrentTraceId();
      Tracer::SetCurrentTraceId(trace_id_);
      arg_c = trace_id_;
    }
    Tracer::EmitAt(begin_ns_, type_, TraceMark::kBegin, 0, 0, arg_c, arg_d);
  }

  /// Innermost open span with stats on this thread (nullptr outside any).
  static inline thread_local TraceSpan* current_ = nullptr;

  QueryStats* stats_ = nullptr;  ///< nullptr once closed or when stats-less
  TraceSpan* parent_ = nullptr;
  uint64_t begin_ns_ = 0;
  uint64_t child_ns_ = 0;  ///< elapsed time of spans nested in this one
  size_t high_water_ = 0;
  uint32_t trace_id_ = 0;
  uint32_t prev_trace_id_ = 0;
  uint8_t phase_ = kNumQueryPhases;
  TraceEventType type_;
  bool armed_ = false;  ///< emitting: tracer armed at begin, not yet ended
};

/// kNodeVisit `tree` value for feature set `ordinal` (clamped below the
/// object-tree sentinel; real ordinals are bounded by kMaxFeatureSets).
inline uint8_t TraceTreeForSet(uint32_t ordinal) {
  return static_cast<uint8_t>(
      ordinal < kTraceObjectTree ? ordinal : kTraceObjectTree - 1);
}

/// Records one node expansion in the query's traversal profile and, when
/// the tracer is recording, as a kNodeVisit instant.  `tree` is
/// kTraceObjectTree or a feature-set ordinal; `pruned`/`descended` count
/// the verdicts over the node's child entries.
inline void RecordNodeVisit(QueryStats& stats, uint8_t tree, unsigned level,
                            uint64_t node_id, uint32_t pruned,
                            uint32_t descended) {
  TreeTraversalCounts& counts = tree == kTraceObjectTree
                                    ? stats.traversal.object_tree
                                    : stats.traversal.FeatureTree(tree);
  counts.RecordVisit(level, pruned, descended);
  if (kTracingCompiledIn && Tracer::Active()) {
    const uint32_t verdicts =
        (std::min<uint32_t>(pruned, 0xffff) << 16) |
        std::min<uint32_t>(descended, 0xffff);
    Tracer::Emit(TraceEventType::kNodeVisit, TraceMark::kInstant, tree,
                 static_cast<uint8_t>(level < 0xff ? level : 0xff), verdicts,
                 node_id);
  }
}

/// One captured slow query: its trace id, latency, final stats, and the
/// events its executing thread recorded for it (empty when the tracer was
/// idle).
struct SlowQueryRecord {
  uint32_t trace_id = 0;
  uint32_t thread_ordinal = 0;  ///< ring the events came from
  double elapsed_ms = 0.0;
  QueryStats stats;
  std::vector<TraceEvent> events;
};

/// Thread-safe bounded retention of the most recent queries at or above a
/// latency threshold.  Engine::Execute offers every completed query; the
/// offer additionally drains the executing thread's ring (keeping only the
/// offered query's events), which doubles as per-query ring hygiene during
/// long captures.
class SlowQueryLog {
 public:
  explicit SlowQueryLog(double threshold_ms, size_t max_records = 32)
      : threshold_ms_(threshold_ms), max_records_(max_records) {}

  /// Called on the thread that executed the query, after completion.
  void Offer(uint32_t trace_id, double elapsed_ms, const QueryStats& stats)
      STPQ_EXCLUDES(mu_);

  /// Copies the retained records, most recent last.
  std::vector<SlowQueryRecord> Snapshot() const STPQ_EXCLUDES(mu_);

  size_t size() const STPQ_EXCLUDES(mu_);
  double threshold_ms() const { return threshold_ms_; }

 private:
  const double threshold_ms_;
  const size_t max_records_;
  mutable Mutex mu_;
  std::deque<SlowQueryRecord> records_ STPQ_GUARDED_BY(mu_);
};

}  // namespace stpq

// Emission macro.  Expands to nothing under STPQ_DISABLE_TRACING.
#if defined(STPQ_DISABLE_TRACING)

#define STPQ_TRACE_INSTANT(type, arg_a, arg_b, arg_c, arg_d) \
  do {                                                       \
  } while (false)

#else

/// Records one instant event when the tracer is recording.
#define STPQ_TRACE_INSTANT(type, arg_a, arg_b, arg_c, arg_d)               \
  do {                                                                     \
    if (::stpq::Tracer::Active()) {                                        \
      ::stpq::Tracer::Emit(type, ::stpq::TraceMark::kInstant, arg_a,       \
                           arg_b, arg_c, arg_d);                           \
    }                                                                      \
  } while (false)

#endif  // STPQ_DISABLE_TRACING

#endif  // STPQ_OBS_TRACE_H_

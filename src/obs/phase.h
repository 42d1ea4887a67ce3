// Phase tracing: attributes query wall-time to the named phases of
// QueryPhase (util/metrics.h) with zero heap allocation on the hot path.
//
// A PhaseTimer is a stack-only RAII span.  Timers nest: each one keeps a
// pointer to the timer it preempted through a thread-local "current" slot,
// and on destruction attributes its *self time* (elapsed minus time spent
// in nested timers) to its phase.  Self-time attribution means the
// phase_ms entries of a QueryStats never double-count and sum to at most
// the query's total CPU time; the remainder (driver loops, result
// assembly) is reported as "other" by QueryStats::UntracedMillis().
//
// Cost: two steady_clock reads and a handful of pointer writes per span.
// Spans are placed at algorithmic boundaries (one per component-score
// search, per combination emitted, per retrieval batch), not per heap
// operation, so tracing adds <5% to query execution (DESIGN.md §12 quotes
// the measurement).
#ifndef STPQ_OBS_PHASE_H_
#define STPQ_OBS_PHASE_H_

#include <chrono>

#include "util/metrics.h"

namespace stpq {

/// RAII span attributing self-time to `stats.phase_ms[phase]`.
///
/// Timers must be destroyed in LIFO order on the thread that created them
/// (automatic with block scope).  A timer may nest under a timer writing
/// to a *different* QueryStats (e.g. a cursor drained inside another
/// query's execution): each writes to its own stats, and the parent still
/// excludes the nested span's time from its self-time.
class PhaseTimer {
 public:
  PhaseTimer(QueryStats& stats, QueryPhase phase)
      : stats_(stats), phase_(phase), parent_(current_), start_(Now()) {
    current_ = this;
  }

  ~PhaseTimer() {
    const double elapsed = MillisSince(start_);
    stats_.phase_ms[static_cast<size_t>(phase_)] +=
        elapsed > child_ms_ ? elapsed - child_ms_ : 0.0;
    if (parent_ != nullptr) parent_->child_ms_ += elapsed;
    current_ = parent_;
  }

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

 private:
  using Clock = std::chrono::steady_clock;

  static Clock::time_point Now() { return Clock::now(); }
  static double MillisSince(Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
  }

  /// Innermost live timer on this thread (nullptr outside any span).
  static thread_local PhaseTimer* current_;

  QueryStats& stats_;
  QueryPhase phase_;
  PhaseTimer* parent_;
  double child_ms_ = 0.0;  ///< time consumed by timers nested in this one
  Clock::time_point start_;
};

}  // namespace stpq

// Opens a phase span for the rest of the enclosing block.
#define STPQ_TRACE_PHASE_CAT2(a, b) a##b
#define STPQ_TRACE_PHASE_CAT(a, b) STPQ_TRACE_PHASE_CAT2(a, b)
#define STPQ_TRACE_PHASE(stats, phase)                          \
  ::stpq::PhaseTimer STPQ_TRACE_PHASE_CAT(stpq_phase_timer_,    \
                                          __LINE__)(stats, phase)

#endif  // STPQ_OBS_PHASE_H_

// The benchmark's workloads and the run that measures one of them.
//
// A run generates its inputs from the seed, sets the engine up several
// times (setup_s is the median), runs an untimed warm-up, then a timed
// closed loop of `clients` threads that each send their next query only
// after the previous one returned.  Latency is the wall time the harness
// measures around each Engine::Execute call; page reads appear only as a
// count.  Each client runs a fixed reference unit (common.h) after every
// query, and the end-to-end times are reported at the nominal host's
// speed: each window of the loop is scaled by its own units' mean time,
// and each set-up by the units run right before and after it.  A shared
// host's speed changes from minute to minute, and a time measured next to
// the units moves with them.  The times as measured are printed too.  A
// traced run replaces the end-to-end report with per-layer
// numbers taken from a second, traced closed loop.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Inputs of one run.
struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Scratch directory for dataset and index files; must exist.
  std::string work_dir;
  /// Where a traced run writes its spans (Chrome trace JSON); may be empty.
  std::string trace_out;
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a run prints as its last line.
struct RunReport {
  bool correct = false;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
};

/// Runs one workload, printing the input record, every metric with its
/// unit and every check to stdout.  Returns false (with `error` set) when
/// the run could not be carried out at all; a run whose answers fail a
/// check still returns true with report->correct == false.
bool RunWorkload(const RunConfig& config, RunReport* report,
                 std::string* error);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_

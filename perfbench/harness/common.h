// Clocks, process probes, file probes and order statistics shared by the
// benchmark harness.  Nothing here calls into the stpq library.
#ifndef PERFBENCH_COMMON_H_
#define PERFBENCH_COMMON_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double, std::milli>(end - begin).count();
}

/// CPU time consumed by the calling thread (CLOCK_THREAD_CPUTIME_ID).
double ThreadCpuMs();

/// What one reference unit took on the calling thread.
struct ReferenceTime {
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
};

/// Allocates and fills the reference units' buffers: a 64 MiB source
/// and an 8 MiB target for each of `slots` slots.  They stay resident
/// from here on.  Call once, before the first unit.
void PrepareReferenceUnits(size_t slots);

/// Runs one reference unit on `slot` (one thread at a time per slot): the
/// same work on every call and in every version of the library, which it
/// does not call.  A unit runs 15,000 steps of floating-point and integer
/// arithmetic with a branch on a random bit, then copies 128 pages of
/// 4 KiB from random places in the source into the slot's target.  Its
/// time follows the speed the host gives the calling thread at that
/// moment: its share of the CPU, the clock rate, the core's execution
/// units a sibling hyperthread leaves it, and the shared cache and memory
/// bandwidth other tenants leave it, which the program's CPU work and
/// page fetches depend on too.
ReferenceTime RunReferenceUnit(size_t slot);

/// Memory the reference buffers hold, in MiB.
double ReferenceBufferMb();

/// The time of one reference unit on the nominal host.  End-to-end times
/// are reported at that speed: a time measured next to reference units
/// that took r ms on average is scaled by kNominalReferenceMs / r.
constexpr double kNominalReferenceMs = 0.2;

/// Peak resident set size of this process so far, in MiB.
double PeakRssMb();

/// Nearest-rank percentile (q in [0, 1]) of `values`; 0 when empty.
double Percentile(std::vector<double> values, double q);

inline double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

/// splitmix64 of (seed, stream): independent sub-seeds from one seed.
uint64_t DeriveSeed(uint64_t seed, uint64_t stream);

/// Size of `path` in bytes; 0 when it cannot be stat'ed.
uint64_t FileBytes(const std::string& path);

/// Compares two files byte for byte.  Returns "" when identical, else a
/// description of the first difference.
std::string CompareFiles(const std::string& a, const std::string& b);

/// Asks the kernel to drop `path` from the page cache
/// (posix_fadvise(DONTNEED)).  Returns "" on success, else the error.
std::string DropFromPageCache(const std::string& path);

/// Share of `path`'s pages resident in the page cache (mincore), in
/// [0, 1]; negative when it cannot be measured.
double ResidentFraction(const std::string& path);

}  // namespace perfbench

#endif  // PERFBENCH_COMMON_H_

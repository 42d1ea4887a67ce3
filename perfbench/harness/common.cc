#include "common.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

namespace perfbench {
namespace {

/// The reference unit's work (see RunReferenceUnit).
constexpr size_t kReferencePageBytes = 4096;
constexpr uint32_t kReferenceSteps = 15'000;
constexpr size_t kReferencePages = 128;
constexpr size_t kReferenceSourceBytes = size_t{64} << 20;
constexpr size_t kReferenceTargetBytes = size_t{8} << 20;

struct ReferenceTarget {
  std::vector<char> bytes = std::vector<char>(kReferenceTargetBytes, 1);
  uint64_t next = 0;  ///< pages copied so far; picks the next source page
};

struct ReferenceBuffers {
  std::vector<char> source;
  std::vector<ReferenceTarget> targets;
};

ReferenceBuffers& Reference() {
  static ReferenceBuffers buffers;
  return buffers;
}

/// Written after each unit so the compiler keeps its work before the
/// closing clock read.
volatile uint64_t reference_sink = 0;

}  // namespace

double ThreadCpuMs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) * 1e-6;
}

void PrepareReferenceUnits(size_t slots) {
  ReferenceBuffers& r = Reference();
  r.source.assign(kReferenceSourceBytes, 1);
  r.targets.resize(slots);
}

ReferenceTime RunReferenceUnit(size_t slot) {
  const std::vector<char>& source = Reference().source;
  ReferenceTarget& target = Reference().targets[slot];
  constexpr size_t kSourcePages = kReferenceSourceBytes / kReferencePageBytes;
  constexpr size_t kTargetPages = kReferenceTargetBytes / kReferencePageBytes;
  const double cpu_begin = ThreadCpuMs();
  const Clock::time_point begin = Clock::now();
  // Arithmetic: a random number stream feeding two floating-point
  // recurrences and a branch on a random bit.
  uint64_t x = 1;
  double a = 1.0, b = 1.0, taken = 0.0, not_taken = 0.0;
  for (uint32_t k = 0; k < kReferenceSteps; ++k) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    const double f = static_cast<double>(x >> 40);
    a = a * 0.99991 + f * 1e-9;
    b = b * 1.00007 - f * 2e-9;
    if ((x >> 33) & 1) {
      taken += f * 1e-7;
    } else {
      not_taken -= 0.5;
    }
  }
  // Memory: page copies through the shared cache and memory.
  for (size_t i = 0; i < kReferencePages; ++i, ++target.next) {
    const size_t from = DeriveSeed(target.next, 0) % kSourcePages;
    const size_t to = target.next % kTargetPages;
    std::memcpy(&target.bytes[to * kReferencePageBytes],
                &source[from * kReferencePageBytes], kReferencePageBytes);
  }
  reference_sink = static_cast<uint64_t>(a + b + taken + not_taken);
  const Clock::time_point end = Clock::now();
  return {MsBetween(begin, end), ThreadCpuMs() - cpu_begin};
}

double ReferenceBufferMb() {
  const ReferenceBuffers& r = Reference();
  const size_t bytes =
      r.source.size() + r.targets.size() * kReferenceTargetBytes;
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  const size_t index = rank == 0 ? 0 : rank - 1;
  std::nth_element(values.begin(),
                   values.begin() + static_cast<std::ptrdiff_t>(index),
                   values.end());
  return values[index];
}

uint64_t DeriveSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + (stream + 1) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t FileBytes(const std::string& path) {
  struct stat st {};
  if (stat(path.c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

std::string CompareFiles(const std::string& a, const std::string& b) {
  std::ifstream fa(a, std::ios::binary);
  std::ifstream fb(b, std::ios::binary);
  if (!fa || !fb) return "cannot open " + (fa ? b : a);
  constexpr size_t kChunk = size_t{1} << 16;
  std::vector<char> ba(kChunk);
  std::vector<char> bb(kChunk);
  uint64_t offset = 0;
  while (true) {
    fa.read(ba.data(), kChunk);
    fb.read(bb.data(), kChunk);
    const std::streamsize na = fa.gcount();
    const std::streamsize nb = fb.gcount();
    const size_t n = static_cast<size_t>(std::min(na, nb));
    if (std::memcmp(ba.data(), bb.data(), n) != 0) {
      size_t i = 0;
      while (ba[i] == bb[i]) ++i;
      return "files differ at byte " + std::to_string(offset + i);
    }
    if (na != nb) {
      return "file sizes differ (" + std::to_string(FileBytes(a)) + " vs " +
             std::to_string(FileBytes(b)) + " bytes)";
    }
    if (na == 0) return "";
    offset += n;
  }
}

std::string DropFromPageCache(const std::string& path) {
  const int fd = open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return "open " + path + ": " + std::strerror(errno);
  // The index was fsync'ed by its writer, so its pages are clean and
  // DONTNEED can evict them.
  const int rc = posix_fadvise(fd, 0, 0, POSIX_FADV_DONTNEED);
  close(fd);
  if (rc != 0) return std::string("posix_fadvise: ") + std::strerror(rc);
  return "";
}

double ResidentFraction(const std::string& path) {
  const int fd = open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return -1.0;
  const uint64_t bytes = FileBytes(path);
  if (bytes == 0) {
    close(fd);
    return -1.0;
  }
  void* map = mmap(nullptr, bytes, PROT_READ, MAP_SHARED, fd, 0);
  close(fd);
  if (map == MAP_FAILED) return -1.0;
  const uint64_t page = static_cast<uint64_t>(sysconf(_SC_PAGESIZE));
  const uint64_t pages = (bytes + page - 1) / page;
  std::vector<unsigned char> vec(pages);
  double fraction = -1.0;
  if (mincore(map, bytes, vec.data()) == 0) {
    uint64_t resident = 0;
    for (unsigned char v : vec) resident += v & 1u;
    fraction = static_cast<double>(resident) / static_cast<double>(pages);
  }
  munmap(map, bytes);
  return fraction;
}

}  // namespace perfbench

// stpq_perfbench: the stpq benchmark harness.
//
//   stpq_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                  --work-dir DIR [--trace-out FILE]
//   stpq_perfbench --self-test
//
// Prints the run's input record, every metric with its unit and every
// check, then, as the last line, one JSON object with the keys correct,
// attempted, failed and metrics.  Exits 1 when a check fails and 2 when
// the run cannot be carried out.  perfbench/run.py builds and drives it.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "checks.h"
#include "workload.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "error: %s\nusage: stpq_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --work-dir DIR [--trace-out FILE]\n"
               "       stpq_perfbench --self-test\n",
               why);
  return 2;
}

void PrintJson(const perfbench::RunReport& report) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              report.correct ? "true" : "false", report.attempted,
              report.failed);
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig config;
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--self-test") {
      const int failures = perfbench::RunSelfTest();
      std::printf("self-test: %s\n", failures == 0 ? "ok" : "FAILED");
      return failures == 0 ? 0 : 1;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      config.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      config.seed = std::strtoull(value, &end, 10);
      have_seed = end != value && *end == '\0';
    } else if (flag == "--seconds") {
      config.seconds = std::strtod(value, &end);
      if (end == value || *end != '\0' || !(config.seconds > 0)) {
        return Usage("--seconds must be a positive number");
      }
    } else if (flag == "--trace") {
      if (std::strcmp(value, "0") != 0 && std::strcmp(value, "1") != 0) {
        return Usage("--trace must be 0 or 1");
      }
      config.trace = value[0] == '1';
    } else if (flag == "--work-dir") {
      config.work_dir = value;
    } else if (flag == "--trace-out") {
      config.trace_out = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_workload || !have_seed || config.work_dir.empty()) {
    return Usage("--workload, --seed and --work-dir are required");
  }

  perfbench::RunReport report;
  std::string error;
  if (!perfbench::RunWorkload(config, &report, &error)) {
    std::fprintf(stderr, "error: %s\n", error.c_str());
    return 2;
  }
  std::fflush(stdout);
  PrintJson(report);
  return report.correct ? 0 : 1;
}

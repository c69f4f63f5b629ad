// Benchmark entry point: runs one workload and prints every metric by name with
// its unit. The last line of stdout is the result object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// preceded by a human-readable table and an environment stamp line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <path>]

#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "workloads.h"

namespace {

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

unsigned AffinityCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  const int n = CPU_COUNT(&set);
  return n > 0 ? static_cast<unsigned>(n) : 1;
}

bool OptimizedBuild() {
#if PERFBENCH_SANITIZED || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__) || !defined(NDEBUG)
  return false;
#else
  const std::string type = PERFBENCH_BUILD_TYPE;
  return type == "Release" || type == "RelWithDebInfo";
#endif
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --workload <cold_batch|zipf_stream> "
               "--seed <n> --seconds <s> --trace <0|1> [--spans-out <path>]\n",
               argv0);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions options;
  options.threads = AffinityCpus();
  bool have_workload = false;
  bool have_seed = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      options.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, nullptr, 10);
      have_seed = true;
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value);
    } else if (flag == "--trace") {
      options.trace = std::atoi(value) != 0;
    } else if (flag == "--spans-out") {
      options.spans_out = value;
    } else {
      return Usage(argv[0]);
    }
  }
  if (argc % 2 != 1 || !have_workload || !have_seed ||
      !perfbench::IsWorkload(options.workload) || options.seconds < 2) {
    return Usage(argv[0]);
  }
  if (!OptimizedBuild()) {
    std::fprintf(stderr,
                 "perfbench: refusing to report from a %s%s build; configure "
                 "with -DCMAKE_BUILD_TYPE=Release\n",
                 PERFBENCH_BUILD_TYPE,
                 PERFBENCH_SANITIZED ? " sanitizer" : "");
    return 3;
  }

  const perfbench::RunReport report = perfbench::RunWorkload(options);

  for (const perfbench::Metric& m : report.metrics) {
    std::printf("%-36s %14.4f %-6s (n=%llu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
  for (const std::string& f : report.failures) {
    std::printf("FAILED CHECK: %s\n", f.c_str());
  }

  std::string stamp = "{\"env\": {\"nproc\": " +
                      std::to_string(options.threads) +
                      ", \"hardware_threads\": " +
                      std::to_string(std::thread::hardware_concurrency()) +
                      ", \"build_type\": " +
                      JsonString(PERFBENCH_BUILD_TYPE) +
                      ", \"compiler\": " + JsonString(PERFBENCH_COMPILER) +
                      "}, \"workload\": " + JsonString(options.workload) +
                      ", \"seed\": " + std::to_string(options.seed) +
                      ", \"seconds\": " + JsonNumber(options.seconds) +
                      ", \"trace\": " + (options.trace ? "1" : "0") +
                      ", \"params\": {";
  for (size_t i = 0; i < report.params.size(); ++i) {
    stamp += (i ? ", " : "") + JsonString(report.params[i].first) + ": " +
             JsonString(report.params[i].second);
  }
  stamp += "}, \"samples\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    stamp += (i ? ", " : "") + JsonString(report.metrics[i].name) + ": " +
             std::to_string(report.metrics[i].samples);
  }
  stamp += "}, \"failures\": [";
  for (size_t i = 0; i < report.failures.size(); ++i) {
    stamp += (i ? ", " : "") + JsonString(report.failures[i]);
  }
  stamp += "]}";
  std::printf("%s\n", stamp.c_str());

  std::string result = std::string("{\"correct\": ") +
                       (report.correct ? "true" : "false") +
                       ", \"attempted\": " + std::to_string(report.attempted) +
                       ", \"failed\": " + std::to_string(report.failed) +
                       ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const perfbench::Metric& m = report.metrics[i];
    result += (i ? ", " : "") + JsonString(m.name) +
              ": {\"value\": " + JsonNumber(m.value) +
              ", \"unit\": " + JsonString(m.unit) + "}";
  }
  result += "}}";
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return report.correct ? 0 : 1;
}

// The repository's end-to-end benchmark. Usage:
//   perfbench --workload <aqp_read|join_read|drift_update> --seed <n>
//             --seconds <s> --trace <0|1> --out-dir <dir> --tmp-dir <dir>
// (perfbench/run.py builds it and supplies the two directories.)
//
// Prints a stamp (host, thread budget, corpus, flush policy), one line per
// round, every metric by name with its unit, and as the last line one JSON
// object: {"correct", "attempted", "failed", "metrics"}. --trace 0 reports
// the end-to-end metrics, --trace 1 the per-layer ones. Exits 0 only when
// every correctness check passed.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include "common/thread_pool.h"
#include "corpus.h"
#include "nn/kernels.h"
#include "workloads.h"

namespace {

// Busy threads at the worst moment (drift_update's stream): one estimate
// client, one writer, the update workers. DDUP_THREADS=1 makes the
// bootstrap pool and the chunked loss loops run on their calling thread, so
// they add none.
constexpr int kClients = 1;
constexpr int kWriters = 1;
constexpr int kPoolThreads = 1;
constexpr int kThreadBudget = kClients + kWriters + perfbench::kUpdateWorkers;

int UsableCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

std::string CpuModel() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <aqp_read|"
               "join_read|drift_update> --seed <n> --seconds <s> --trace "
               "<0|1> --out-dir <dir> --tmp-dir <dir>\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    char* end = nullptr;
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), &end, 10);
      have_seed = end != nullptr && *end == '\0' && !value.empty();
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value.c_str(), &end);
      if (end == nullptr || *end != '\0') options.seconds = 0.0;
    } else if (flag == "--trace") {
      have_trace = value == "0" || value == "1";
      options.trace = value == "1";
    } else if (flag == "--out-dir") {
      options.out_dir = value;
    } else if (flag == "--tmp-dir") {
      options.tmp_dir = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  bool known = false;
  for (const std::string& w : perfbench::WorkloadNames()) {
    known = known || w == options.workload;
  }
  if (!known) return Usage("unknown or missing --workload");
  if (!have_seed || !have_trace || !(options.seconds > 0.0) ||
      options.out_dir.empty() || options.tmp_dir.empty()) {
    return Usage("missing or malformed argument");
  }

  // The thread budget: stamped, set in this process before any pool
  // exists, and enforced.
  setenv("DDUP_THREADS", std::to_string(kPoolThreads).c_str(), 1);
  const int cpus = UsableCpus();
  if (ddup::DefaultThreadCount() != kPoolThreads) {
    std::fprintf(stderr, "perfbench: DDUP_THREADS did not take effect\n");
    return 3;
  }
  if (cpus < kThreadBudget) {
    std::fprintf(stderr,
                 "perfbench: refusing to run: %d usable CPUs is below the "
                 "thread budget of %d busy threads\n",
                 cpus, kThreadBudget);
    return 3;
  }

  std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("# host: nproc=%d cpu=\"%s\" gemm_kernel=%s\n", cpus,
              CpuModel().c_str(), ddup::nn::GemmKernelName());
  std::printf("# thread budget: %d client + %d writer + %d update workers "
              "(block admission, backlog bound %lld per table) = %d busy "
              "threads <= nproc %d; DDUP_THREADS=%d (bootstrap pool on its "
              "caller)\n",
              kClients, kWriters, perfbench::kUpdateWorkers,
              static_cast<long long>(perfbench::kMaxBacklogBatches),
              kThreadBudget, cpus, kPoolThreads);
  std::fflush(stdout);

  const perfbench::Outcome outcome = perfbench::RunWorkload(options);

  for (const std::string& f : outcome.failures) {
    std::printf("# FAILED: %s\n", f.c_str());
  }
  const bool correct = outcome.failed == 0;
  std::string json = "{\"correct\": ";
  json += correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(outcome.attempted);
  json += ", \"failed\": " + std::to_string(outcome.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const perfbench::Metric& m = outcome.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", m.value);
    json += (i ? ", \"" : "\"") + m.name + "\": {\"value\": " + value +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return correct ? 0 : 1;
}

#ifndef DDUP_PERFBENCH_WORKLOADS_H_
#define DDUP_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Options {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  // Where traces go (the build directory) and the per-run temporary
  // directory every restart-phase checkpoint is written into.
  std::string out_dir;
  std::string tmp_dir;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Outcome {
  // End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<std::string> failures;
};

// Runs one workload end to end: repeated set-up, the timed phase, the
// labelled stream, q-error and detection scoring, Save -> Load restarts, and
// the correctness gate over all of it. Human-readable lines go to stdout.
Outcome RunWorkload(const Options& options);

}  // namespace perfbench

#endif  // DDUP_PERFBENCH_WORKLOADS_H_

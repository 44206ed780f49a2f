#ifndef DDUP_PERFBENCH_TRACE_H_
#define DDUP_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// One layer call as seen from the benchmark: its name, the request or
// micro-batch it belongs to (all spans of one request share `id`), the
// span that caused it, and its interval.
//
// Three kinds of children hang under a root:
//   - timed calls inside the root's interval;
//   - replays: a layer's public entry point re-run on the same inputs right
//     after the request (the model's estimator interface, QueryRouter::Plan,
//     an empty-batch Estimate), attributing the root's time to that layer;
//   - report phases: the engine's per-batch InsertionReport durations laid
//     end to end from the root's start.
// A root's self time — its duration minus its children's — is the residual
// no layer accounts for.
struct Span {
  const char* name = "";
  int64_t id = 0;
  int parent = -1;  // index in the same SpanLog; -1 for a root
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t duration_ns() const { return end_ns - start_ns; }
};

// One recording thread's spans, held in memory (preallocated up to a fixed
// capacity) and written out when the benchmark ends. A full log refuses
// further spans — callers stop tracing at that point rather than let
// recording allocate inside a timed loop.
class SpanLog {
 public:
  SpanLog(std::string thread, size_t capacity);

  bool full() const { return spans_.size() >= capacity_; }
  // Index of the new span; -1 when full.
  int Add(const char* name, int64_t id, int parent, int64_t start_ns,
          int64_t end_ns);
  const std::string& thread() const { return thread_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::string thread_;
  size_t capacity_;
  std::vector<Span> spans_;
};

// Per-span self time: duration minus the summed durations of its children.
std::vector<int64_t> SelfTimes(const SpanLog& log);

// Writes every log as JSON lines (one span per line). False on I/O failure.
bool WriteTrace(const std::string& path,
                const std::vector<const SpanLog*>& logs);

}  // namespace perfbench

#endif  // DDUP_PERFBENCH_TRACE_H_

#include "trace.h"

#include <cstdio>
#include <utility>

namespace perfbench {

SpanLog::SpanLog(std::string thread, size_t capacity)
    : thread_(std::move(thread)), capacity_(capacity) {
  spans_.reserve(capacity);
}

int SpanLog::Add(const char* name, int64_t id, int parent, int64_t start_ns,
                 int64_t end_ns) {
  if (full()) return -1;
  spans_.push_back({name, id, parent, start_ns, end_ns});
  return static_cast<int>(spans_.size()) - 1;
}

std::vector<int64_t> SelfTimes(const SpanLog& log) {
  const std::vector<Span>& spans = log.spans();
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) self[i] = spans[i].duration_ns();
  for (const Span& s : spans) {
    if (s.parent >= 0) self[static_cast<size_t>(s.parent)] -= s.duration_ns();
  }
  return self;
}

bool WriteTrace(const std::string& path,
                const std::vector<const SpanLog*>& logs) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanLog* log : logs) {
    const std::vector<int64_t> self = SelfTimes(*log);
    for (size_t i = 0; i < log->spans().size(); ++i) {
      const Span& s = log->spans()[i];
      std::fprintf(f,
                   "{\"thread\":\"%s\",\"index\":%zu,\"id\":%lld,"
                   "\"name\":\"%s\",\"parent\":%d,\"start_ns\":%lld,"
                   "\"end_ns\":%lld,\"self_ns\":%lld}\n",
                   log->thread().c_str(), i, static_cast<long long>(s.id),
                   s.name, s.parent, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns),
                   static_cast<long long>(self[i]));
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

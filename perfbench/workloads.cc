#include "workloads.h"

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/engine.h"
#include "api/model_factory.h"
#include "api/router.h"
#include "common/rng.h"
#include "core/interfaces.h"
#include "corpus.h"
#include "histogram.h"
#include "io/checkpoint.h"
#include "io/codec.h"
#include "nn/kernels.h"
#include "nn/matrix.h"
#include "nn/pool.h"
#include "trace.h"
#include "workload/metrics.h"

namespace perfbench {

namespace {

using ddup::api::Engine;
using ddup::api::EstimateRequest;
using ddup::core::InsertionReport;
using ddup::storage::Table;

// Untraced runs repeat set-up + timed phase + stream + restarts on fresh
// engines and report medians over the rounds: five rounds on the read
// workloads, three on the costlier drift_update. Traced runs make one
// untraced and one traced round (the difference is the tracing overhead).
constexpr int kReadRounds = 5;
constexpr int kDriftRounds = 3;
constexpr int kRestartCycles = 9;
constexpr auto kMonitorPeriod = std::chrono::microseconds(200);
constexpr size_t kSpanCapacity = 200000;  // per recording thread
constexpr double kContendedSeconds = 0.5;
constexpr double kGemmSeconds = 0.2;
constexpr double kWarmSeconds = 0.05;
// A read workload's timed phase is spread over this many engine instances,
// each read by a fresh client thread: the set-up engine, then a
// Save -> Load restart of it before each further segment. The same model
// reads a few percent faster or slower from one engine instance and client
// thread to the next, in discrete steps (heap placement of the weights and
// scratch is the likely cause), so sampling many instances per run
// steadies the medians.
constexpr int kReadSegments = 4;

double NsToMs(int64_t ns) { return static_cast<double>(ns) / 1e6; }
double NsToUs(double ns) { return ns / 1e3; }

double Mean(const std::vector<double>& v) {
  double sum = 0.0;
  for (double x : v) sum += x;
  return v.empty() ? 0.0 : sum / static_cast<double>(v.size());
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Nearest-rank percentile, q in (0, 1]; 0 for an empty list.
double Percentile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  auto rank =
      static_cast<int64_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<int64_t>(rank, 1, static_cast<int64_t>(v.size()));
  return v[static_cast<size_t>(rank - 1)];
}

bool BitIdentical(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

// Counts operations and checks. Every engine call the benchmark makes and
// every correctness check is one attempted operation; a non-OK Status or a
// failed check is one failed operation and is recorded by name.
class Gate {
 public:
  bool Check(bool ok, const std::string& what) {
    ++attempted_;
    if (!ok) {
      ++failed_;
      if (failures_.size() < 32) failures_.push_back(what);
    }
    return ok;
  }
  bool Ok(const ddup::Status& status, const std::string& what) {
    return Check(status.ok(), what + ": " + status.ToString());
  }
  // Bulk accounting for a timed loop.
  void Count(int64_t attempted, int64_t failed, const std::string& what) {
    attempted_ += attempted;
    failed_ += failed;
    if (failed > 0 && failures_.size() < 32) {
      failures_.push_back(what + ": " + std::to_string(failed) + " of " +
                          std::to_string(attempted) + " failed");
    }
  }
  int64_t attempted() const { return attempted_; }
  int64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  int64_t attempted_ = 0;
  int64_t failed_ = 0;
  std::vector<std::string> failures_;
};

EstimateRequest::Kind KindOf(const TableSpec& t) {
  return t.kind == "mdn" ? EstimateRequest::Kind::kAqp
                         : EstimateRequest::Kind::kCardinality;
}

const TableSpec* FindSpec(const Corpus& c, const std::string& name) {
  for (const TableSpec& t : c.tables) {
    if (t.name == name) return &t;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Probe sets: the correctness and q-error queries.
// ---------------------------------------------------------------------------

struct ProbeAnswers {
  std::vector<double> single;  // every model table's probes, corpus order
  std::vector<double> join;    // join_read's join probes
};

void CheckFinite(const std::vector<double>& answers, const std::string& what,
                 Gate& gate) {
  bool finite = true;
  for (double a : answers) finite = finite && std::isfinite(a);
  gate.Check(finite, what + ": non-finite answer");
}

ProbeAnswers EngineProbe(const Engine& engine, const Corpus& c, Gate& gate) {
  ProbeAnswers out;
  for (const TableSpec& t : c.tables) {
    if (t.kind.empty()) continue;
    EstimateRequest req;
    req.kind = KindOf(t);
    req.table = t.name;
    req.queries.queries = t.probes;
    auto resp = engine.Estimate(req);
    if (!gate.Ok(resp.status(), "probe Estimate on " + t.name)) {
      out.single.insert(out.single.end(), t.probes.size(), NAN);
      continue;
    }
    CheckFinite(resp.value().answers, "probe on " + t.name, gate);
    const auto& a = resp.value().answers;
    out.single.insert(out.single.end(), a.begin(), a.end());
  }
  if (!c.join_probes.empty()) {
    EstimateRequest req;
    req.kind = EstimateRequest::Kind::kCardinality;
    req.joins = c.join_probes;
    auto resp = engine.Estimate(req);
    if (gate.Ok(resp.status(), "join probe Estimate")) {
      CheckFinite(resp.value().answers, "join probe", gate);
      out.join = resp.value().answers;
    }
  }
  return out;
}

// The same single-table probes run on each model's own estimator interface.
std::vector<double> ModelProbe(Engine& engine, const Corpus& c, Gate& gate) {
  std::vector<double> out;
  for (const TableSpec& t : c.tables) {
    if (t.kind.empty()) continue;
    const ddup::core::UpdatableModel* model = engine.model(t.name);
    std::vector<double> answers;
    ddup::Status st = ddup::Status::FailedPrecondition("no estimator");
    if (const auto* aqp = dynamic_cast<const ddup::core::AqpEstimator*>(model);
        aqp != nullptr && t.kind == "mdn") {
      st = aqp->TryEstimateAqpBatch(t.probes, t.base, &answers);
    } else if (const auto* card =
                   dynamic_cast<const ddup::core::CardinalityEstimator*>(model);
               card != nullptr && t.kind == "darn") {
      st = card->TryEstimateCardinalityBatch(t.probes, &answers);
    }
    if (!gate.Ok(st, "probe on the model interface of " + t.name)) {
      answers.assign(t.probes.size(), NAN);
    }
    out.insert(out.end(), answers.begin(), answers.end());
  }
  return out;
}

// Q-errors of the served answers against the exact ones: join probes on
// join_read, every model table's probes elsewhere. `final_state` scores
// against base + stream, else against the base alone.
std::vector<double> QErrors(const Corpus& c, const ProbeAnswers& a,
                            bool final_state) {
  std::vector<double> q;
  if (!c.join_probes.empty()) {
    for (size_t i = 0; i < a.join.size() && i < c.join_truth.size(); ++i) {
      if (c.join_truth[i] > 0.0) {
        q.push_back(ddup::workload::QError(a.join[i], c.join_truth[i]));
      }
    }
    return q;
  }
  size_t offset = 0;
  for (const TableSpec& t : c.tables) {
    if (t.kind.empty()) continue;
    const std::vector<double>& truth =
        final_state ? t.truth_final : t.truth_base;
    for (size_t i = 0; i < truth.size() && offset + i < a.single.size(); ++i) {
      if (std::isfinite(truth[i])) {
        q.push_back(ddup::workload::QError(a.single[offset + i], truth[i]));
      }
    }
    offset += t.probes.size();
  }
  return q;
}

// ---------------------------------------------------------------------------
// Closed-loop reads.
// ---------------------------------------------------------------------------

// A client segment — one closed loop of reads — yields one p99 if it ran
// at least this many requests (ten beyond its p99).
constexpr int64_t kMinSegmentRequests = 1000;

struct ReadStats {
  std::unique_ptr<Histogram> latency = std::make_unique<Histogram>();
  std::vector<double> segment_p99_ns;
  int64_t requests = 0;
  int64_t queries = 0;
  int64_t errors = 0;
  int64_t nonfinite = 0;
  int64_t elapsed_ns = 0;
  uint64_t heap_allocs = 0;  // the client thread's MatrixPool heap allocations

  double qps() const {
    return elapsed_ns > 0 ? static_cast<double>(queries) * 1e9 /
                                static_cast<double>(elapsed_ns)
                          : 0.0;
  }
  // Folds in a later segment of the same client, or (latency only) a
  // concurrent client.
  void Merge(const ReadStats& o) {
    latency->Merge(*o.latency);
    segment_p99_ns.insert(segment_p99_ns.end(), o.segment_p99_ns.begin(),
                          o.segment_p99_ns.end());
    requests += o.requests;
    queries += o.queries;
    errors += o.errors;
    nonfinite += o.nonfinite;
    elapsed_ns += o.elapsed_ns;
    heap_allocs += o.heap_allocs;
  }
};

// Traced read requests: after each Engine::Estimate the benchmark re-runs
// the request's work on each layer's public entry point, as child spans of
// the request (see trace.h).
class Replayer {
 public:
  Replayer(Engine* engine, const Corpus* corpus)
      : engine_(engine), corpus_(corpus), router_(engine) {}

  void Replay(const EstimateRequest& req, int64_t id, int root,
              SpanLog* log) {
    std::string table = req.table;
    std::vector<ddup::workload::Query> model_batch;
    if (!req.joins.empty()) {
      // The router folds every join query's fact subquery into one batch.
      table = "fact";
      for (const ddup::workload::JoinQuery& jq : req.joins.queries) {
        const int64_t t0 = NowNs();
        auto plan = router_.Plan(jq);
        const int64_t t1 = NowNs();
        log->Add("api.QueryRouter::Plan", id, root, t0, t1);
        if (!plan.ok()) continue;
        for (const auto& sq : plan.value().subqueries) {
          if (sq.table == table) model_batch.push_back(sq.query);
        }
      }
    } else {
      model_batch = req.queries.queries;
    }
    const TableSpec* spec = FindSpec(*corpus_, table);
    const ddup::core::UpdatableModel* model = engine_->model(table);
    std::vector<double> out;
    if (req.kind == EstimateRequest::Kind::kAqp) {
      const auto* aqp = dynamic_cast<const ddup::core::AqpEstimator*>(model);
      const int64_t t0 = NowNs();
      if (aqp != nullptr) {
        (void)aqp->TryEstimateAqpBatch(model_batch, spec->base, &out);
      }
      log->Add("models.TryEstimateAqpBatch", id, root, t0, NowNs());
    } else {
      const auto* card =
          dynamic_cast<const ddup::core::CardinalityEstimator*>(model);
      const int64_t t0 = NowNs();
      if (card != nullptr) {
        (void)card->TryEstimateCardinalityBatch(model_batch, &out);
      }
      log->Add("models.TryEstimateCardinalityBatch", id, root, t0, NowNs());
    }
    // The engine's per-request dispatch with no model work: an empty batch
    // on the same table.
    EstimateRequest empty;
    empty.kind = req.kind;
    empty.table = table;
    const int64_t t0 = NowNs();
    (void)engine_->Estimate(empty);
    log->Add("api.Engine::Estimate(empty)", id, root, t0, NowNs());
    model_queries_ += static_cast<int64_t>(model_batch.size());
    ++model_calls_;
  }

  int64_t model_queries() const { return model_queries_; }
  int64_t model_calls() const { return model_calls_; }

 private:
  Engine* engine_;
  const Corpus* corpus_;
  ddup::api::QueryRouter router_;
  int64_t model_queries_ = 0;
  int64_t model_calls_ = 0;
};

// One closed-loop client: the next request goes out when the previous one
// returns. Runs until `deadline_ns` or `*stop`. A full span log ends a
// traced read phase (one with replays); a traced stream reader keeps reading
// and stops recording.
void ReadLoop(const Engine& engine, const std::vector<EstimateRequest>& reads,
              int64_t deadline_ns, const std::atomic<bool>* stop,
              SpanLog* log, Replayer* replayer, ReadStats* stats) {
  const ddup::nn::MatrixPool::Counters before =
      ddup::nn::MatrixPool::Local().counters();
  size_t next = 0;
  const int64_t start = NowNs();
  int64_t last = start;
  for (;;) {
    const EstimateRequest& req = reads[next];
    next = next + 1 == reads.size() ? 0 : next + 1;
    const int64_t t0 = NowNs();
    auto resp = engine.Estimate(req);
    const int64_t t1 = NowNs();
    stats->latency->Record(t1 - t0);
    ++stats->requests;
    if (!resp.ok()) {
      ++stats->errors;
    } else {
      for (double a : resp.value().answers) {
        if (!std::isfinite(a)) ++stats->nonfinite;
      }
      stats->queries += static_cast<int64_t>(resp.value().answers.size());
    }
    last = t1;
    if (log != nullptr) {
      // The root's index in the log is the request's id: unique across the
      // segments and threads that share a log one after another.
      const auto id = static_cast<int64_t>(log->spans().size());
      const int root = log->Add("api.Engine::Estimate", id, -1, t0, t1);
      if (replayer != nullptr && root >= 0) {
        replayer->Replay(req, id, root, log);
      }
      if (log->full()) {
        if (replayer != nullptr) break;
        log = nullptr;
      }
    }
    if (t1 >= deadline_ns ||
        (stop != nullptr && stop->load(std::memory_order_relaxed))) {
      break;
    }
  }
  stats->elapsed_ns = last - start;
  if (stats->requests >= kMinSegmentRequests) {
    stats->segment_p99_ns.push_back(stats->latency->Quantile(0.99));
  }
  stats->heap_allocs = ddup::nn::MatrixPool::Local().counters().heap_allocs -
                       before.heap_allocs;
}

// ---------------------------------------------------------------------------
// The labelled stream: one writer, a freshness monitor, optionally a reader.
// ---------------------------------------------------------------------------

struct StreamStats {
  int64_t rows = 0;
  int64_t elapsed_ns = 0;  // first Ingest issued -> last Flush returned
  int64_t ingest_calls = 0;
  int64_t stall_ns = 0;    // writer time inside Ingest
  int64_t flush_ns = 0;
  std::vector<std::vector<InsertionReport>> reports;  // per corpus table
  // Per table and batch k: when the Ingest completing batch k returned, and
  // when the table's publish count first showed it.
  std::vector<std::vector<int64_t>> complete_ns;
  std::vector<std::vector<int64_t>> visible_ns;
  std::vector<double> freshness_ms;
  // Summed over the monitor's samples that found rows buffered.
  double buffered_bytes = 0.0;
  double buffered_rows = 0.0;
  int64_t sheds = 0;
  int64_t publishes = 0;
  ReadStats reader;

  double rows_per_s() const {
    return elapsed_ns > 0 ? static_cast<double>(rows) * 1e9 /
                                static_cast<double>(elapsed_ns)
                          : 0.0;
  }
};

// Stops and joins helper threads on every path out of a scope.
class ThreadGroup {
 public:
  explicit ThreadGroup(std::atomic<bool>* stop) : stop_(stop) {}
  ThreadGroup(const ThreadGroup&) = delete;
  ThreadGroup& operator=(const ThreadGroup&) = delete;
  ~ThreadGroup() { JoinAll(); }
  template <typename Fn>
  void Start(Fn fn) {
    threads_.emplace_back(std::move(fn));
  }
  void JoinAll() {
    stop_->store(true);
    for (std::thread& t : threads_) {
      if (t.joinable()) t.join();
    }
  }

 private:
  std::atomic<bool>* stop_;
  std::vector<std::thread> threads_;
};

StreamStats RunStream(Engine& engine, const Corpus& c, const Requests& r,
                      bool with_reader, SpanLog* writer_log,
                      SpanLog* reader_log, Gate& gate) {
  StreamStats s;
  const size_t n = c.tables.size();
  s.reports.resize(n);
  s.complete_ns.resize(n);
  s.visible_ns.resize(n);
  std::vector<int64_t> base_publishes(n, 0);
  for (size_t t = 0; t < n; ++t) {
    s.complete_ns[t].assign(c.tables[t].batches.size(), 0);
    s.visible_ns[t].assign(c.tables[t].batches.size(), 0);
    auto rep = engine.Report(c.tables[t].name);
    if (gate.Ok(rep.status(), "Report " + c.tables[t].name)) {
      base_publishes[t] = rep.value().snapshot_publishes;
    }
  }

  std::atomic<bool> stop{false};
  std::atomic<bool> monitor_done{false};
  std::atomic<int64_t> monitor_deadline{INT64_MAX};
  ThreadGroup threads(&stop);
  // Freshness monitor: mostly asleep, it polls each table's publish count
  // with a sub-millisecond period and stamps when batch k became visible.
  threads.Start([&] {
    std::vector<size_t> seen(n, 0);
    for (;;) {
      bool all_seen = true;
      for (size_t t = 0; t < n; ++t) {
        if (seen[t] == s.visible_ns[t].size()) continue;
        auto rep = engine.Report(c.tables[t].name);
        const int64_t now = NowNs();
        if (!rep.ok()) continue;
        const int64_t shown =
            rep.value().snapshot_publishes - base_publishes[t];
        while (seen[t] < s.visible_ns[t].size() &&
               static_cast<int64_t>(seen[t]) < shown) {
          s.visible_ns[t][seen[t]++] = now;
        }
        if (rep.value().buffered_rows > 0) {
          s.buffered_bytes += static_cast<double>(rep.value().buffered_bytes);
          s.buffered_rows += static_cast<double>(rep.value().buffered_rows);
        }
        all_seen = all_seen && seen[t] == s.visible_ns[t].size();
      }
      if (all_seen || NowNs() > monitor_deadline.load()) break;
      std::this_thread::sleep_for(kMonitorPeriod);
    }
    monitor_done.store(true);
  });
  if (with_reader) {
    threads.Start([&] {
      ReadLoop(engine, r.reads, INT64_MAX, &stop, reader_log, nullptr,
               &s.reader);
    });
  }

  // The writer: one Ingest call at a time, as fast as block admission lets
  // it, always to the table with the fewest rows sent so far — the table
  // streams advance at equal row rates whatever the seed-drawn call sizes.
  std::vector<size_t> next(n, 0);
  std::vector<int64_t> rows_in(n, 0);
  std::vector<size_t> completed(n, 0);
  const int64_t first = NowNs();
  for (;;) {
    size_t t = n;
    for (size_t u = 0; u < n; ++u) {
      if (next[u] < r.ingest_calls[u].size() &&
          (t == n || rows_in[u] < rows_in[t])) {
        t = u;
      }
    }
    if (t == n) break;
    const Table& call = r.ingest_calls[t][next[t]++];
    const int64_t t0 = NowNs();
    auto res = engine.Ingest(c.tables[t].name, call);
    const int64_t t1 = NowNs();
    gate.Ok(res.status(), "Ingest " + c.tables[t].name);
    if (writer_log != nullptr) {
      writer_log->Add("api.Engine::Ingest", s.ingest_calls, -1, t0, t1);
    }
    ++s.ingest_calls;
    s.stall_ns += t1 - t0;
    s.rows += call.num_rows();
    rows_in[t] += call.num_rows();
    while (completed[t] < s.complete_ns[t].size() &&
           static_cast<int64_t>(completed[t] + 1) * c.batch_rows <=
               rows_in[t]) {
      s.complete_ns[t][completed[t]++] = t1;
    }
  }
  const int64_t flush_start = NowNs();
  for (size_t t = 0; t < n; ++t) {
    if (c.tables[t].batches.empty()) continue;
    const int64_t t0 = NowNs();
    auto res = engine.Flush(c.tables[t].name);
    if (writer_log != nullptr) {
      writer_log->Add("api.Engine::Flush", static_cast<int64_t>(t), -1, t0,
                      NowNs());
    }
    if (gate.Ok(res.status(), "Flush " + c.tables[t].name)) {
      s.reports[t] = res.value().reports;
    }
  }
  const int64_t end = NowNs();
  s.elapsed_ns = end - first;
  s.flush_ns = end - flush_start;
  stop.store(true);  // the reader's phase ends with the stream
  // Every publish has happened once the flushes returned; give the monitor
  // a bounded grace period to observe the last ones, then join everything.
  monitor_deadline.store(end + 2'000'000'000LL);
  while (!monitor_done.load()) std::this_thread::sleep_for(kMonitorPeriod);
  threads.JoinAll();

  for (size_t t = 0; t < n; ++t) {
    const TableSpec& spec = c.tables[t];
    if (spec.batches.empty()) continue;
    gate.Check(s.reports[t].size() == spec.batches.size(),
               spec.name + ": " + std::to_string(s.reports[t].size()) +
                   " reports for " + std::to_string(spec.batches.size()) +
                   " ingested batches");
    auto rep = engine.Report(spec.name);
    if (gate.Ok(rep.status(), "Report " + spec.name)) {
      s.sheds += rep.value().sheds;
      s.publishes += rep.value().snapshot_publishes;
      gate.Check(rep.value().sheds == 0, spec.name + ": admission shed");
    }
    for (size_t k = 0; k < spec.batches.size(); ++k) {
      const bool shown = s.visible_ns[t][k] > 0;
      gate.Check(shown, spec.name + ": batch " + std::to_string(k) +
                            " never became visible");
      if (shown) {
        s.freshness_ms.push_back(
            NsToMs(s.visible_ns[t][k] - s.complete_ns[t][k]));
      }
    }
  }
  if (with_reader) {
    gate.Count(s.reader.requests, s.reader.errors, "stream reader estimates");
    gate.Check(s.reader.nonfinite == 0, "stream reader: non-finite answers");
  }
  return s;
}

struct DetectionScore {
  int64_t clean = 0;
  int64_t drifted = 0;
  int64_t false_alarms = 0;
  int64_t misses = 0;
  int64_t flagged = 0;
  int64_t distills = 0;
  int64_t distills_on_drift = 0;

  // Rule-of-succession estimates, (k + 1) / (n + 2): the share of labelled
  // batches the detector got wrong, pulled slightly toward 1/2 so a perfect
  // corpus reads small rather than 0.
  double fpr() const {
    return static_cast<double>(false_alarms + 1) /
           static_cast<double>(clean + 2);
  }
  double fnr() const {
    return static_cast<double>(misses + 1) / static_cast<double>(drifted + 2);
  }
};

DetectionScore ScoreDetection(const Corpus& c, const StreamStats& s) {
  DetectionScore d;
  for (size_t t = 0; t < c.tables.size(); ++t) {
    const TableSpec& spec = c.tables[t];
    for (size_t k = 0; k < s.reports[t].size() && k < spec.drifted.size();
         ++k) {
      const InsertionReport& rep = s.reports[t][k];
      const bool label = spec.drifted[k];
      const bool ood = rep.test.is_ood;
      d.flagged += ood ? 1 : 0;
      if (label) {
        ++d.drifted;
        d.misses += ood ? 0 : 1;
      } else {
        ++d.clean;
        d.false_alarms += ood ? 1 : 0;
      }
      if (rep.action == ddup::core::UpdateAction::kDistill) {
        ++d.distills;
        d.distills_on_drift += label ? 1 : 0;
      }
    }
  }
  return d;
}

// ---------------------------------------------------------------------------
// Restarts and the I/O layer.
// ---------------------------------------------------------------------------

struct RestartStats {
  std::vector<double> save_s;
  std::vector<double> load_s;
  int64_t ckpt_bytes = 0;
  int64_t rows_absorbed = 0;
  std::vector<std::string> paths;  // every checkpoint written, in order
  // Digest of every model and controller section of the first checkpoint.
  uint64_t content_digest = 0;
};

// FNV-1a over the names and decoded payloads of a checkpoint's model and
// controller sections. The engine manifest section is left out: it persists
// the tables' cumulative detect/update wall-clock seconds, so its bytes (and
// the file size, a few bytes either way under compression) differ between
// otherwise identical runs.
uint64_t ContentDigest(const std::string& path, Gate& gate) {
  uint64_t h = 1469598103934665603ULL;
  auto mix = [&h](const std::string& bytes) {
    for (unsigned char ch : bytes) {
      h ^= ch;
      h *= 1099511628211ULL;
    }
  };
  auto reader = ddup::io::CheckpointReader::FromFile(path);
  if (!gate.Ok(reader.status(), "CheckpointReader::FromFile")) return 0;
  for (const auto& info : reader.value().Sections()) {
    if (info.name == "engine") continue;
    auto payload = reader.value().Section(info.name);
    if (!gate.Ok(payload.status(), "Section " + info.name)) return 0;
    mix(info.name);
    mix(payload.value());
  }
  return h;
}

// One restart: Save `engine` to `path` (a fresh path in the per-run
// temporary directory, never an existing file; no fsync anywhere), shut it
// down, Load the checkpoint into a new engine. Null if a step failed.
std::unique_ptr<Engine> Restart(std::unique_ptr<Engine> engine,
                                const std::string& path, Gate& gate,
                                double* save_s = nullptr,
                                double* load_s = nullptr) {
  if (!gate.Check(!std::filesystem::exists(path),
                  "checkpoint path already exists: " + path)) {
    return nullptr;
  }
  int64_t t0 = NowNs();
  ddup::Status saved = engine->Save(path);
  int64_t t1 = NowNs();
  if (!gate.Ok(saved, "Save")) return nullptr;
  if (save_s != nullptr) *save_s = static_cast<double>(t1 - t0) / 1e9;
  engine.reset();
  t0 = NowNs();
  auto loaded = Engine::Load(path, MakeEngineConfig());
  t1 = NowNs();
  if (!gate.Ok(loaded.status(), "Load")) return nullptr;
  if (load_s != nullptr) *load_s = static_cast<double>(t1 - t0) / 1e9;
  return std::move(loaded).value();
}

// Repeated restarts: Save the serving engine to a fresh path in the per-run
// temporary directory (never over an existing file; no fsync anywhere),
// shut it down, Load the checkpoint into a new engine. Every loaded engine
// must answer the probes bit-identically to the first one and save the same
// model and controller bytes; it is the engine saved in the next cycle.
RestartStats RunRestarts(std::unique_ptr<Engine> engine, const Corpus& c,
                         const ProbeAnswers& expected, const Options& options,
                         int round, Gate& gate) {
  RestartStats rs;
  for (const TableSpec& t : c.tables) {
    auto rep = engine->Report(t.name);
    if (gate.Ok(rep.status(), "Report " + t.name)) {
      rs.rows_absorbed += rep.value().rows;
    }
  }
  for (int cycle = 0; cycle < kRestartCycles; ++cycle) {
    const std::string path = options.tmp_dir + "/round" +
                             std::to_string(round) + "-cycle" +
                             std::to_string(cycle) + ".ckpt";
    double save_s = 0.0;
    double load_s = 0.0;
    engine = Restart(std::move(engine), path, gate, &save_s, &load_s);
    if (std::filesystem::exists(path)) rs.paths.push_back(path);
    if (engine == nullptr) break;
    rs.save_s.push_back(save_s);
    rs.load_s.push_back(load_s);
    const uint64_t digest = ContentDigest(path, gate);
    if (cycle == 0) {
      std::error_code ec;
      const auto bytes = std::filesystem::file_size(path, ec);
      rs.ckpt_bytes = ec ? 0 : static_cast<int64_t>(bytes);
      rs.content_digest = digest;
    }
    gate.Check(digest == rs.content_digest,
               "model/controller checkpoint bytes changed across Save -> "
               "Load (cycle " + std::to_string(cycle) + ")");
    ProbeAnswers after = EngineProbe(*engine, c, gate);
    gate.Check(BitIdentical(after.single, expected.single) &&
                   BitIdentical(after.join, expected.join),
               "probe answers differ after Load (cycle " +
                   std::to_string(cycle) + ")");
  }
  return rs;
}

struct IoStats {
  double encode_ms = 0.0;
  double decode_ms = 0.0;
  double compress_ratio = 0.0;
  int64_t model_bytes = 0;  // uncompressed model sections
};

IoStats MeasureCheckpoint(const std::string& path, Gate& gate) {
  IoStats io;
  const int64_t t0 = NowNs();
  auto reader = ddup::io::CheckpointReader::FromFile(path);
  if (!gate.Ok(reader.status(), "CheckpointReader::FromFile")) return io;
  std::vector<std::string> payloads;
  for (const auto& info : reader.value().Sections()) {
    auto payload = reader.value().Section(info.name);
    if (gate.Ok(payload.status(), "Section " + info.name)) {
      payloads.push_back(std::move(payload).value());
    }
  }
  const int64_t t1 = NowNs();
  io.decode_ms = NsToMs(t1 - t0);
  double stored = 0.0;
  double uncompressed = 0.0;
  for (const auto& info : reader.value().Sections()) {
    stored += static_cast<double>(info.stored_bytes);
    uncompressed += static_cast<double>(info.uncompressed_bytes);
    if (info.name.rfind("model:", 0) == 0) {
      io.model_bytes += static_cast<int64_t>(info.uncompressed_bytes);
    }
  }
  io.compress_ratio = stored > 0.0 ? uncompressed / stored : 0.0;
  const ddup::io::Codec* codec =
      ddup::io::FindCodecByName(ddup::io::kDefaultCheckpointCodec);
  if (gate.Check(codec != nullptr, "default codec registered")) {
    std::string out;
    const int64_t t2 = NowNs();
    for (const std::string& p : payloads) codec->Compress(p, &out);
    io.encode_ms = NsToMs(NowNs() - t2);
  }
  return io;
}

double GemmGflops() {
  ddup::Rng rng(12345);
  const int n = 256;
  ddup::nn::Matrix a = ddup::nn::Matrix::Randn(rng, n, n);
  ddup::nn::Matrix b = ddup::nn::Matrix::Randn(rng, n, n);
  ddup::nn::Matrix out(n, n);
  ddup::nn::GemmInto(a, b, /*accumulate=*/false, &out);  // warm-up
  int reps = 0;
  const int64_t t0 = NowNs();
  int64_t t1 = t0;
  do {
    ddup::nn::GemmInto(a, b, /*accumulate=*/false, &out);
    ++reps;
    t1 = NowNs();
  } while (static_cast<double>(t1 - t0) < kGemmSeconds * 1e9);
  return 2.0 * n * n * n * reps / static_cast<double>(t1 - t0);
}

// ---------------------------------------------------------------------------
// One round: fresh engine, set-up, timed phase, stream, scoring, restarts.
// ---------------------------------------------------------------------------

// Peak resident set size (VmHWM) in MB since the last ResetPeakRss.
double PeakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

// Restarts VmHWM at the current RSS (Linux clear_refs, value 5), so each
// round's peak is its own; false if the kernel refuses.
bool ResetPeakRss() {
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.flush();
  return static_cast<bool>(clear_refs);
}

struct RoundResult {
  double setup_s = 0.0;
  // VmHWM from the round's start through its timed phase (the read phase,
  // or drift_update's stream); the read workloads' maintenance stream and
  // every round's restarts come after it.
  double peak_rss_mb = 0.0;
  bool peak_rss_reset = false;
  // The timed phase's client (the stream reader on drift_update).
  ReadStats reads;
  StreamStats stream;
  DetectionScore detection;
  std::vector<double> qerrors;
  ProbeAnswers after_setup;
  ProbeAnswers after_stream;
  RestartStats restarts;
  // Traced rounds only.
  std::vector<std::unique_ptr<SpanLog>> logs;
  int64_t model_queries = 0;  // replayed on the models' batch interfaces
  int64_t model_calls = 0;
  double contended_p50_us = 0.0;
  std::vector<double> publish_ms;
  IoStats io;
};

void SetUp(Engine& engine, const Corpus& c, Gate& gate) {
  for (const TableSpec& t : c.tables) {
    ddup::api::TableOptions options;
    options.micro_batch_rows = c.batch_rows;
    gate.Ok(engine.CreateTable(t.name, t.base, options),
            "CreateTable " + t.name);
    if (!t.kind.empty()) {
      gate.Ok(engine.AttachModel(t.name, t.model), "AttachModel " + t.name);
    }
  }
}

// Untimed closed-loop reads until caches and the thread's matrix pool are
// warm.
void Warm(const Engine& engine, const Requests& r) {
  const int64_t until = NowNs() + static_cast<int64_t>(kWarmSeconds * 1e9);
  for (size_t i = 0; NowNs() < until; i = (i + 1) % r.reads.size()) {
    (void)engine.Estimate(r.reads[i]);
  }
}

SpanLog* NewLog(RoundResult& rr, const char* thread, bool traced) {
  if (!traced) return nullptr;
  rr.logs.push_back(std::make_unique<SpanLog>(thread, kSpanCapacity));
  return rr.logs.back().get();
}

// Micro-batch spans: each root covers [the Ingest completing the batch
// returned, its snapshot publish became visible]; the engine's report
// phases and the measured publish cost are laid end to end from its start.
void RecordBatchSpans(const Corpus& c, const StreamStats& stream,
                      const std::map<std::string, double>& publish_ms,
                      SpanLog* log) {
  int64_t id = 0;
  for (size_t t = 0; t < c.tables.size(); ++t) {
    for (size_t k = 0; k < stream.reports[t].size(); ++k) {
      const InsertionReport& rep = stream.reports[t][k];
      const int64_t start = stream.complete_ns[t][k];
      const int root = log->Add("ddup.micro_batch", id, -1, start,
                                stream.visible_ns[t][k]);
      if (root < 0) return;
      int64_t at = start;
      auto phase = [&](const char* name, double seconds) {
        const auto ns = static_cast<int64_t>(seconds * 1e9);
        log->Add(name, id, root, at, at + ns);
        at += ns;
      };
      phase("serving.queue", rep.queue_seconds);
      phase("core.detect", rep.detect_seconds);
      const char* update = "core.keep_stale";
      if (rep.action == ddup::core::UpdateAction::kDistill) {
        update = "core.distill";
      } else if (rep.action == ddup::core::UpdateAction::kFineTune) {
        update = "core.finetune";
      }
      phase(update, rep.update_seconds);
      phase("core.refresh", rep.offline_refresh_seconds);
      phase("api.publish", publish_ms.at(c.tables[t].name) / 1e3);
      ++id;
    }
  }
}

RoundResult RunRound(const Corpus& c, const Requests& r,
                     const Options& options, int round, bool traced,
                     double read_seconds, Gate& gate) {
  RoundResult rr;
  const bool reads_timed = !c.score_after_stream;
  // Earlier rounds' engines are gone; neither their pages nor the free heap
  // they left behind may count here. Where the kernel refuses the reset,
  // the peak stays the process-wide one.
  malloc_trim(0);
  rr.peak_rss_reset = ResetPeakRss();
  int64_t t0 = NowNs();
  auto engine = std::make_unique<Engine>(MakeEngineConfig());
  SetUp(*engine, c, gate);
  rr.setup_s = static_cast<double>(NowNs() - t0) / 1e9;

  rr.after_setup = EngineProbe(*engine, c, gate);
  gate.Check(BitIdentical(rr.after_setup.single, ModelProbe(*engine, c, gate)),
             "probe answers: engine differs from the model interface after "
             "set-up");

  SpanLog* client_log = NewLog(rr, "client", traced);
  if (reads_timed) {
    for (int segment = 0; segment < kReadSegments && engine != nullptr;
         ++segment) {
      // A traced read phase ends when its span log is full.
      if (client_log != nullptr && client_log->full()) break;
      if (segment > 0) {
        const std::string path = options.tmp_dir + "/round" +
                                 std::to_string(round) + "-segment" +
                                 std::to_string(segment) + ".ckpt";
        engine = Restart(std::move(engine), path, gate);
        std::error_code ec;
        std::filesystem::remove(path, ec);
        if (engine == nullptr) break;
      }
      // Each segment's client is a fresh thread, so its matrix-pool scratch
      // is placed anew too.
      Replayer replayer(engine.get(), &c);
      ReadStats segment_reads;
      std::thread client([&] {
        Warm(*engine, r);
        const int64_t deadline =
            NowNs() + static_cast<int64_t>(read_seconds / kReadSegments * 1e9);
        ReadLoop(*engine, r.reads, deadline, nullptr, client_log,
                 traced ? &replayer : nullptr, &segment_reads);
      });
      client.join();
      rr.reads.Merge(segment_reads);
      rr.model_queries += replayer.model_queries();
      rr.model_calls += replayer.model_calls();
    }
    if (engine == nullptr) return rr;
    rr.peak_rss_mb = PeakRssMb();
    gate.Count(rr.reads.requests, rr.reads.errors, "timed estimates");
    gate.Check(rr.reads.nonfinite == 0, "timed estimates: non-finite answers");
    // q-error is taken right after the timed phase on the read workloads;
    // nothing updated, so the probes still answer as after set-up.
    const ProbeAnswers after_reads = EngineProbe(*engine, c, gate);
    gate.Check(BitIdentical(after_reads.single, rr.after_setup.single) &&
                   BitIdentical(after_reads.join, rr.after_setup.join),
               "probe answers changed across the timed phase's restarts");
    rr.qerrors = QErrors(c, after_reads, false);
  }

  if (traced) {
    // Advisory: two clients on one table.
    std::vector<EstimateRequest> one_table;
    for (const EstimateRequest& req : r.reads) {
      if (req.table == r.reads.front().table) one_table.push_back(req);
    }
    ReadStats a;
    ReadStats b;
    std::atomic<bool> never{false};
    const int64_t deadline =
        NowNs() + static_cast<int64_t>(kContendedSeconds * 1e9);
    std::thread second([&] {
      ReadLoop(*engine, one_table, deadline, &never, nullptr, nullptr, &b);
    });
    ReadLoop(*engine, one_table, deadline, &never, nullptr, nullptr, &a);
    second.join();
    a.Merge(b);
    gate.Count(a.requests, a.errors, "contended estimates");
    rr.contended_p50_us = NsToUs(a.latency->Quantile(0.5));
  }

  SpanLog* writer_log = NewLog(rr, "writer", traced);
  SpanLog* reader_log =
      c.score_after_stream ? NewLog(rr, "stream-reader", traced) : nullptr;
  rr.stream = RunStream(*engine, c, r, /*with_reader=*/c.score_after_stream,
                        writer_log, reader_log, gate);
  if (c.score_after_stream) {
    rr.reads = std::move(rr.stream.reader);
    rr.peak_rss_mb = PeakRssMb();
  }
  rr.detection = ScoreDetection(c, rr.stream);

  rr.after_stream = EngineProbe(*engine, c, gate);
  gate.Check(BitIdentical(rr.after_stream.single, ModelProbe(*engine, c, gate)),
             "probe answers: engine differs from the model interface after "
             "the stream");
  if (c.score_after_stream) rr.qerrors = QErrors(c, rr.after_stream, true);

  if (traced) {
    // Snapshot publish cost per table: api::CloneModel of the flushed model.
    std::map<std::string, double> publish_ms_by_table;
    for (const TableSpec& t : c.tables) {
      if (t.kind.empty()) continue;
      std::vector<double> per_table;
      for (int rep = 0; rep < 3; ++rep) {
        const int64_t s = NowNs();
        auto copy = ddup::api::CloneModel(t.kind, *engine->model(t.name));
        per_table.push_back(NsToMs(NowNs() - s));
        gate.Ok(copy.status(), "CloneModel " + t.name);
      }
      rr.publish_ms.insert(rr.publish_ms.end(), per_table.begin(),
                           per_table.end());
      publish_ms_by_table[t.name] = Median(per_table);
    }
    RecordBatchSpans(c, rr.stream, publish_ms_by_table,
                     NewLog(rr, "micro-batches", true));
  }

  rr.restarts =
      RunRestarts(std::move(engine), c, rr.after_stream, options, round, gate);
  if (!rr.restarts.paths.empty()) {
    rr.io = MeasureCheckpoint(rr.restarts.paths.front(), gate);
  }
  for (const std::string& path : rr.restarts.paths) {
    std::error_code ec;
    std::filesystem::remove(path, ec);
  }
  return rr;
}


// Span-derived per-request and per-batch attribution of a traced round.
struct Attribution {
  std::vector<double> api_self_us;  // Estimate minus model and plan replays
  std::vector<double> plan_us;
  std::vector<double> model_us;
  // Shares of the summed root durations, by child span name, plus the
  // residual (summed root self time).
  std::map<std::string, double> read_share;
  std::map<std::string, double> batch_share;
};

std::map<std::string, double> Shares(const SpanLog& log,
                                     const char* root_name) {
  std::map<std::string, double> share;
  const std::vector<int64_t> self = SelfTimes(log);
  double total = 0.0;
  double residual = 0.0;
  for (size_t i = 0; i < log.spans().size(); ++i) {
    const Span& s = log.spans()[i];
    if (s.parent < 0 && std::strcmp(s.name, root_name) == 0) {
      total += static_cast<double>(s.duration_ns());
      residual += static_cast<double>(self[i]);
    } else if (s.parent >= 0) {
      share[s.name] += static_cast<double>(s.duration_ns());
    }
  }
  if (total <= 0.0) return {};
  for (auto& [name, ns] : share) ns /= total;
  share["residual"] = residual / total;
  return share;
}

Attribution Attribute(const RoundResult& rr) {
  Attribution a;
  for (const auto& log : rr.logs) {
    if (log->thread() == "client") {
      const std::vector<Span>& spans = log->spans();
      for (size_t i = 0; i < spans.size();) {
        const Span& root = spans[i];
        double plan = 0.0;
        double model = 0.0;
        size_t j = i + 1;
        for (; j < spans.size() && spans[j].parent == static_cast<int>(i);
             ++j) {
          const std::string name = spans[j].name;
          if (name == "api.QueryRouter::Plan") plan += spans[j].duration_ns();
          if (name.rfind("models.", 0) == 0) model += spans[j].duration_ns();
        }
        a.plan_us.push_back(NsToUs(plan));
        a.model_us.push_back(NsToUs(model));
        a.api_self_us.push_back(
            NsToUs(static_cast<double>(root.duration_ns()) - plan - model));
        i = j;
      }
      a.read_share = Shares(*log, "api.Engine::Estimate");
    }
    if (log->thread() == "micro-batches") {
      a.batch_share = Shares(*log, "ddup.micro_batch");
    }
  }
  return a;
}

// Per-batch phase times out of the engine's InsertionReports.
struct ReportPhases {
  std::vector<double> detect_ms;
  std::vector<double> distill_ms;
  std::vector<double> finetune_ms;
  std::vector<double> refresh_ms;
  std::vector<double> queue_ms;
  std::vector<double> backlog;
};

ReportPhases Phases(const StreamStats& s) {
  ReportPhases p;
  for (const auto& per_table : s.reports) {
    for (const InsertionReport& r : per_table) {
      p.detect_ms.push_back(r.detect_seconds * 1e3);
      if (r.action == ddup::core::UpdateAction::kDistill) {
        p.distill_ms.push_back(r.update_seconds * 1e3);
      }
      if (r.action == ddup::core::UpdateAction::kFineTune) {
        p.finetune_ms.push_back(r.update_seconds * 1e3);
      }
      p.refresh_ms.push_back(r.offline_refresh_seconds * 1e3);
      p.queue_ms.push_back(r.queue_seconds * 1e3);
      p.backlog.push_back(static_cast<double>(r.backlog_batches));
    }
  }
  return p;
}

void Print(const Metric& m, const std::string& note) {
  std::printf("  %-34s %14.6g %-10s %s\n", m.name.c_str(), m.value,
              m.unit.c_str(), note.c_str());
}

// The end-to-end metrics of an untraced run.
std::vector<Metric> EndToEndMetrics(const Corpus& corpus,
                                    const std::vector<RoundResult>& results) {
  std::vector<Metric> m;
  const bool reads_timed = !corpus.score_after_stream;
  const RoundResult& first = results.front();
  // Rates, set-up time and memory are medians over rounds; the median
  // latency and freshness pool every round's samples. Tail latency is the
  // mean of the client segments' p99s: interference from outside the
  // process slows some segments' tails and not others, and the mean moves
  // smoothly with that share where a median or a pooled p99 jumps between
  // the two.
  std::vector<double> setup, rss, qps, rows_per_s, freshness, save, load,
      p99;
  Histogram latency;
  for (const RoundResult& rr : results) {
    setup.push_back(rr.setup_s);
    rss.push_back(rr.peak_rss_mb);
    qps.push_back(rr.reads.qps());
    latency.Merge(*rr.reads.latency);
    for (double ns : rr.reads.segment_p99_ns) p99.push_back(NsToUs(ns));
    rows_per_s.push_back(rr.stream.rows_per_s());
    freshness.insert(freshness.end(), rr.stream.freshness_ms.begin(),
                     rr.stream.freshness_ms.end());
    save.insert(save.end(), rr.restarts.save_s.begin(),
                rr.restarts.save_s.end());
    load.insert(load.end(), rr.restarts.load_s.begin(),
                rr.restarts.load_s.end());
  }
  const char* reader = reads_timed ? "timed read phase" : "stream reader";
  auto add = [&](const char* name, double value, const char* unit,
                 const std::string& note) {
    m.push_back({name, value, unit});
    Print(m.back(), note);
  };
  const std::string per_round =
      "median of " + std::to_string(results.size()) + " rounds";
  add("setup_s", Median(setup), "s",
      "CreateTable+AttachModel for every table, " + per_round);
  bool reset = true;
  for (const RoundResult& rr : results) reset = reset && rr.peak_rss_reset;
  add("peak_rss_mb", Median(rss), "MB",
      reset ? "VmHWM over set-up and the timed phase, " + per_round
            : "VmHWM of the process (the per-round reset was refused)");
  add("estimate_qps", Median(qps), "queries/s",
      std::string(reader) + ", 1 closed-loop client, " + per_round);
  const std::string pooled =
      std::to_string(latency.count()) + " requests pooled over " +
      std::to_string(results.size()) + " rounds";
  add("estimate_p50_us", NsToUs(latency.Quantile(0.5)), "us", pooled);
  // Segments too short for a p99 of their own (a run far shorter than the
  // default) fall back to the p99 pooled over every request.
  add("estimate_p99_us",
      p99.empty() ? NsToUs(latency.Quantile(0.99)) : Mean(p99), "us",
      p99.empty() ? "pooled over every request (segments too short)"
                  : "mean of " + std::to_string(p99.size()) +
                        " client segments' p99s, each over >= " +
                        std::to_string(kMinSegmentRequests) + " requests");
  add("qerror_p50", Percentile(first.qerrors, 0.5), "ratio",
      std::to_string(first.qerrors.size()) + " fixed probe queries");
  add("qerror_p95", Percentile(first.qerrors, 0.95), "ratio",
      reads_timed ? "scored after the timed phase"
                  : "scored after the final flush");
  add("ingest_rows_per_s", Median(rows_per_s), "rows/s",
      std::to_string(corpus.stream_rows()) +
          " stream rows, first Ingest to last Flush, " + per_round);
  add("freshness_p90_ms", Percentile(freshness, 0.9), "ms",
      "Ingest return to snapshot publish seen, " +
          std::to_string(freshness.size()) +
          " micro-batches pooled over the rounds");
  add("detect_fpr", first.detection.fpr(), "fraction",
      "(false alarms+1)/(clean+2): " +
          std::to_string(first.detection.false_alarms) + " of " +
          std::to_string(first.detection.clean) + " clean batches flagged");
  add("detect_fnr", first.detection.fnr(), "fraction",
      "(misses+1)/(drifted+2): " + std::to_string(first.detection.misses) +
          " of " + std::to_string(first.detection.drifted) +
          " drifted batches passed");
  add("save_s", Median(save), "s",
      "median of " + std::to_string(save.size()) + " Engine::Save calls");
  add("load_s", Median(load), "s",
      "median of " + std::to_string(load.size()) + " Engine::Load calls");
  add("ckpt_bytes_per_row",
      first.restarts.rows_absorbed > 0
          ? static_cast<double>(first.restarts.ckpt_bytes) /
                static_cast<double>(first.restarts.rows_absorbed)
          : 0.0,
      "bytes/row",
      std::to_string(first.restarts.ckpt_bytes) + " bytes over " +
          std::to_string(first.restarts.rows_absorbed) + " rows");
  return m;
}

// The per-layer metrics of a traced run (round 0 untraced, round 1 traced),
// and the trace itself, written to the output directory.
std::vector<Metric> PerLayerMetrics(const Corpus& corpus,
                                    const std::vector<RoundResult>& results,
                                    const Options& options, Gate& gate) {
  std::vector<Metric> m;
  const bool reads_timed = !corpus.score_after_stream;
  const RoundResult& untraced = results.front();
  const RoundResult& traced = results.back();
  const Attribution a = Attribute(traced);
  const StreamStats& s = traced.stream;
  const ReportPhases phases = Phases(s);
  const DetectionScore& d = traced.detection;
  int64_t spans = 0;
  for (const auto& log : traced.logs) {
    spans += static_cast<int64_t>(log->spans().size());
  }
  auto share = [](const std::map<std::string, double>& shares,
                  const char* name) {
    auto it = shares.find(name);
    return it == shares.end() ? 0.0 : it->second;
  };
  auto add = [&](const char* name, double value, const char* unit) {
    m.push_back({name, value, unit});
    Print(m.back(), "");
  };
  auto p50 = [](const std::vector<double>& v) { return Percentile(v, 0.5); };
  // Replays run on read workloads only: on drift_update the live model is
  // being trained, so the layer split of a read is not measured there.
  add("api.estimate_self_us_p50", reads_timed ? p50(a.api_self_us) : 0.0,
      "us");
  add("api.contended_estimate_us_p50", traced.contended_p50_us, "us");
  add("api.router_plan_us_p50", reads_timed ? p50(a.plan_us) : 0.0, "us");
  add("api.ingest_calls", static_cast<double>(s.ingest_calls), "count");
  add("api.ingest_stall_s", static_cast<double>(s.stall_ns) / 1e9, "s");
  add("api.publish_ms_p50", p50(traced.publish_ms), "ms");
  add("api.snapshot_publishes", static_cast<double>(s.publishes), "count");
  add("api.flush_ms", NsToMs(s.flush_ns), "ms");
  add("models.estimate_us_p50", reads_timed ? p50(a.model_us) : 0.0, "us");
  add("models.queries_per_call",
      traced.model_calls > 0 ? static_cast<double>(traced.model_queries) /
                                   static_cast<double>(traced.model_calls)
                             : 0.0,
      "count");
  add("nn.gemm256_gflops", GemmGflops(), "GFLOP/s");
  add("nn.pool_heap_allocs_per_request",
      static_cast<double>(untraced.reads.heap_allocs) /
          static_cast<double>(std::max<int64_t>(1, untraced.reads.requests)),
      "count");
  add("core.detect_ms_p50", p50(phases.detect_ms), "ms");
  add("core.distill_ms_p50", p50(phases.distill_ms), "ms");
  add("core.finetune_ms_p50", p50(phases.finetune_ms), "ms");
  add("core.refresh_ms_p50", p50(phases.refresh_ms), "ms");
  add("core.batches", static_cast<double>(d.clean + d.drifted), "count");
  add("core.ood_batches", static_cast<double>(d.flagged), "count");
  add("core.false_alarms", static_cast<double>(d.false_alarms), "count");
  add("core.missed_drifts", static_cast<double>(d.misses), "count");
  add("core.distill_precision",
      d.distills > 0 ? static_cast<double>(d.distills_on_drift) /
                           static_cast<double>(d.distills)
                     : 0.0,
      "fraction");
  add("serving.queue_ms_p50", p50(phases.queue_ms), "ms");
  add("serving.backlog_p50", p50(phases.backlog), "count");
  add("serving.sheds", static_cast<double>(s.sheds), "count");
  add("storage.buffered_bytes_per_row",
      s.buffered_rows > 0.0 ? s.buffered_bytes / s.buffered_rows : 0.0,
      "bytes/row");
  add("io.encode_ms", traced.io.encode_ms, "ms");
  add("io.decode_ms", traced.io.decode_ms, "ms");
  add("io.compress_ratio", traced.io.compress_ratio, "ratio");
  const auto& read = a.read_share;
  add("trace.read_models_share",
      share(read, "models.TryEstimateAqpBatch") +
          share(read, "models.TryEstimateCardinalityBatch"),
      "fraction");
  add("trace.read_plan_share", share(read, "api.QueryRouter::Plan"),
      "fraction");
  add("trace.read_dispatch_share", share(read, "api.Engine::Estimate(empty)"),
      "fraction");
  add("trace.read_residual_share", share(read, "residual"), "fraction");
  const auto& batch = a.batch_share;
  add("trace.batch_queue_share", share(batch, "serving.queue"), "fraction");
  add("trace.batch_detect_share", share(batch, "core.detect"), "fraction");
  add("trace.batch_update_share",
      share(batch, "core.distill") + share(batch, "core.finetune") +
          share(batch, "core.keep_stale"),
      "fraction");
  add("trace.batch_refresh_share", share(batch, "core.refresh"), "fraction");
  add("trace.batch_publish_share", share(batch, "api.publish"), "fraction");
  add("trace.batch_residual_share", share(batch, "residual"), "fraction");
  add("trace.overhead_estimate_p50_us",
      NsToUs(traced.reads.latency->Quantile(0.5) -
             untraced.reads.latency->Quantile(0.5)),
      "us");
  add("trace.overhead_ingest_rows_per_s",
      untraced.stream.rows_per_s() - traced.stream.rows_per_s(), "rows/s");
  add("trace.spans", static_cast<double>(spans), "count");

  std::vector<const SpanLog*> logs;
  for (const auto& log : traced.logs) logs.push_back(log.get());
  const std::string path = options.out_dir + "/trace_" + options.workload +
                           "_seed" + std::to_string(options.seed) + ".jsonl";
  gate.Check(WriteTrace(path, logs), "writing " + path);
  std::printf("# %lld spans written to %s\n", static_cast<long long>(spans),
              path.c_str());
  return m;
}

}  // namespace

Outcome RunWorkload(const Options& options) {
  Outcome outcome;
  Gate gate;
  const Corpus corpus = MakeCorpus(options.workload);
  const Requests requests = MakeRequests(corpus, options.seed);

  std::printf("# corpus: %zu tables, %lld stream rows in %lld micro-batches "
              "of %lld rows (",
              corpus.tables.size(),
              static_cast<long long>(corpus.stream_rows()),
              static_cast<long long>(corpus.stream_batches()),
              static_cast<long long>(corpus.batch_rows));
  for (const TableSpec& t : corpus.tables) {
    std::printf(" %s[%s%s%s]", t.name.c_str(),
                t.kind.empty() ? "no model" : t.kind.c_str(),
                t.stream_shape.empty() ? "" : ", ",
                t.stream_shape.c_str());
  }
  std::printf(" ); %zu seed-drawn read requests of %lld queries\n",
              requests.reads.size(),
              static_cast<long long>(requests.queries_per_request));
  std::printf(
      "# checkpoint flush policy: every Save goes to a fresh path in a "
      "per-run temporary directory (temp file + rename, never over an "
      "existing file); the engine issues no fsync and the benchmark adds "
      "none, so save_s/load_s are page-cache figures\n");
  std::fflush(stdout);

  const bool reads_timed = !corpus.score_after_stream;
  const int rounds =
      options.trace ? 2 : (reads_timed ? kReadRounds : kDriftRounds);
  const double read_seconds = options.seconds / rounds;
  std::vector<RoundResult> results;
  for (int round = 0; round < rounds; ++round) {
    const bool traced = options.trace && round == rounds - 1;
    results.push_back(RunRound(corpus, requests, options, round, traced,
                               read_seconds, gate));
    const RoundResult& rr = results.back();
    const RoundResult& first = results.front();
    std::printf("# round %d%s: setup %.3f s, peak rss %.1f MB, %lld "
                "requests, p50 %.3f us, p99 %.3f us, ingest %.1f rows/s, "
                "freshness p90 %.1f ms, save %.2f ms, load %.2f ms\n",
                round, traced ? " (traced)" : "", rr.setup_s, rr.peak_rss_mb,
                static_cast<long long>(rr.reads.requests),
                NsToUs(rr.reads.latency->Quantile(0.5)),
                NsToUs(rr.reads.latency->Quantile(0.99)),
                rr.stream.rows_per_s(), Percentile(rr.stream.freshness_ms, 0.9),
                Median(rr.restarts.save_s) * 1e3,
                Median(rr.restarts.load_s) * 1e3);
    std::fflush(stdout);
    // Same seed, same corpus: every round must reproduce round 0 exactly,
    // traced or not.
    if (round > 0) {
      gate.Check(
          BitIdentical(rr.after_setup.single, first.after_setup.single) &&
              BitIdentical(rr.after_setup.join, first.after_setup.join),
          "probe answers after set-up differ between rounds");
      gate.Check(
          BitIdentical(rr.after_stream.single, first.after_stream.single) &&
              BitIdentical(rr.after_stream.join, first.after_stream.join),
          "probe answers after the stream differ between rounds");
      gate.Check(BitIdentical(rr.qerrors, first.qerrors),
                 "q-errors differ between rounds");
      gate.Check(rr.detection.false_alarms == first.detection.false_alarms &&
                     rr.detection.misses == first.detection.misses &&
                     rr.detection.distills == first.detection.distills,
                 "detection decisions differ between rounds");
      gate.Check(rr.restarts.content_digest == first.restarts.content_digest,
                 "model/controller checkpoint bytes differ between rounds");
    }
  }

  const int64_t model_bytes = results.front().io.model_bytes;
  char l2[64] = "unknown";
  if (std::FILE* f =
          std::fopen("/sys/devices/system/cpu/cpu0/cache/index2/size", "r")) {
    if (std::fgets(l2, sizeof(l2), f) == nullptr) std::strcpy(l2, "unknown");
    l2[std::strcspn(l2, "\n")] = '\0';
    std::fclose(f);
  }
  std::printf("# serving models: %.1f KiB of model state (uncompressed "
              "checkpoint sections) against an L2 of %s per core\n",
              static_cast<double>(model_bytes) / 1024.0, l2);

  outcome.metrics = options.trace
                        ? PerLayerMetrics(corpus, results, options, gate)
                        : EndToEndMetrics(corpus, results);

  outcome.attempted = gate.attempted();
  outcome.failed = gate.failed();
  outcome.failures = gate.failures();
  return outcome;
}

}  // namespace perfbench

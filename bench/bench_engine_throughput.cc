// Engine concurrency baseline: N tables x M client threads of mixed
// Ingest/Estimate traffic, once against the async engine (background DDUp
// update workers, snapshot serving) and once against the synchronous
// engine (updates inline in Ingest). Reports ingest latency percentiles
// and estimate QPS — split into estimates served while the target table
// had an update in flight vs idle — so the serving-while-updating claim
// of DESIGN.md §11 is a measured number, and the next perf PR has a
// concurrency baseline to beat.
//
// Backpressure is engine-side (DESIGN.md §15): async runs bound the
// per-table backlog (EngineConfig::max_backlog_batches) under the "shed"
// admission policy, so an over-eager client gets a typed
// [admission:shed] RESOURCE_EXHAUSTED refusal instead of growing the
// queue without bound. Clients here just Ingest and count the sheds —
// the PR 5 pattern of polling TableReport::backlog_batches before every
// ingest is gone (that field is advisory now).
//
// Environment knobs (defaults in parentheses):
//   DDUP_BENCH_TABLES  (4)   tables, one model each
//   DDUP_BENCH_CLIENTS (4)   client threads
//   DDUP_BENCH_SECONDS (6)   measured wall time per engine mode
//   DDUP_BENCH_WORKERS (2)   background update workers in async mode
//   DDUP_ROWS          (4000 via BenchParams) base rows per table
//   DDUP_EPOCH_SCALE / DDUP_BOOTSTRAP / DDUP_SEED — as in every bench
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "bench/harness.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/stopwatch.h"
#include "serving/admission.h"
#include "workload/query.h"

namespace {

using ddup::Rng;
using ddup::api::Engine;
using ddup::api::EngineConfig;
using ddup::api::EstimateRequest;
using ddup::api::ModelSpec;
using ddup::api::TableServingState;

int64_t EnvInt(const char* name, int64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  int64_t parsed = std::atoll(v);
  return parsed > 0 ? parsed : fallback;
}

ddup::storage::Table MakeConditional(double m0, double m1, int64_t n,
                                     uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> codes;
  std::vector<double> y;
  for (int64_t i = 0; i < n; ++i) {
    int k = rng.Bernoulli(0.5) ? 1 : 0;
    codes.push_back(static_cast<int32_t>(k));
    y.push_back(std::clamp(rng.Normal(k == 0 ? m0 : m1, 3.0), 0.0, 100.0));
  }
  ddup::storage::Table t("cond");
  t.AddColumn(ddup::storage::Column::Categorical("x", codes, {"k0", "k1"}));
  t.AddColumn(ddup::storage::Column::Numeric("y", y));
  return t;
}

ddup::workload::Query AqpRangeQuery(double lo, double hi) {
  ddup::workload::Query q;
  ddup::workload::Predicate eq;
  eq.column = 0;
  eq.op = ddup::workload::CompareOp::kEq;
  eq.value = 0.0;
  ddup::workload::Predicate ge;
  ge.column = 1;
  ge.op = ddup::workload::CompareOp::kGe;
  ge.value = lo;
  ddup::workload::Predicate le;
  le.column = 1;
  le.op = ddup::workload::CompareOp::kLe;
  le.value = hi;
  q.predicates = {eq, ge, le};
  return q;
}

struct ClientStats {
  std::vector<double> ingest_ms;
  std::vector<double> estimate_ms;
  int64_t estimates_total = 0;
  int64_t estimates_during_update = 0;
  int64_t rows_ingested = 0;
  int64_t ingests_shed = 0;  // typed [admission:shed] refusals observed
  int64_t errors = 0;
};

struct ModeResult {
  double seconds = 0.0;
  ClientStats merged;
  int64_t updates_completed = 0;
  int64_t snapshot_publishes = 0;
  double queue_seconds = 0.0;
  int64_t rows_total = 0;
  int64_t sheds_reported = 0;  // engine-side counter, cross-checks merged
};

// The engine configuration every mode derives from. Async modes move
// backpressure engine-side: a bounded per-table backlog under the "shed"
// policy refuses ingests once 2 batches per worker are already queued —
// the same watermark the retired caller-side Report poll used.
EngineConfig MakeEngineConfig(const ddup::bench::BenchParams& params,
                              int update_workers) {
  EngineConfig config;
  config.micro_batch_rows = std::clamp<int64_t>(params.rows / 8, 32, 512);
  config.update_workers = update_workers;
  if (update_workers > 0) {
    config.max_backlog_batches = 2 * update_workers;
    config.admission_policy = "shed";
  }
  config.controller.detector.bootstrap_iterations =
      params.bootstrap_iterations;
  config.controller.policy.distill.epochs = params.ScaledEpochs(4);
  config.controller.policy.finetune_epochs = params.ScaledEpochs(2);
  config.controller.seed = params.seed;
  return config;
}

// One engine end to end: build N tables, run M clients for `seconds`,
// flush, aggregate. `serialize_clients` models the synchronous engine's
// single-threaded contract: estimates read the live model that Ingest
// trains in place, so multi-client callers must serialize per-table access
// themselves — which is precisely the contention the async engine's
// snapshot serving removes.
ModeResult RunTraffic(Engine& engine, const ddup::bench::BenchParams& params,
                      const EngineConfig& config, int64_t tables,
                      int64_t clients, double seconds,
                      bool serialize_clients) {
  ModelSpec spec{"mdn",
                 {{"num_components", "6"},
                  {"hidden_width", "32"},
                  {"epochs", std::to_string(params.ScaledEpochs(6))},
                  {"seed", std::to_string(params.seed)}}};
  std::vector<std::string> names;
  for (int64_t t = 0; t < tables; ++t) {
    names.push_back("t" + std::to_string(t));
    ddup::storage::Table base = MakeConditional(
        25, 75, params.rows, params.seed + static_cast<uint64_t>(t));
    DDUP_CHECK(engine.CreateTable(names.back(), base).ok());
    ddup::Status st = engine.AttachModel(names.back(), spec);
    DDUP_CHECK_MSG(st.ok(), st.ToString());
  }

  const int64_t chunk_rows = std::max<int64_t>(16, config.micro_batch_rows / 2);
  std::vector<ClientStats> stats(static_cast<size_t>(clients));
  std::vector<std::mutex> sync_locks(
      serialize_clients ? static_cast<size_t>(tables) : 0);
  auto sync_guard = [&](size_t table_index) {
    return sync_locks.empty()
               ? std::unique_lock<std::mutex>()
               : std::unique_lock<std::mutex>(sync_locks[table_index]);
  };
  std::atomic<bool> stop{false};
  ddup::Stopwatch wall;
  std::vector<std::thread> workers;
  for (int64_t c = 0; c < clients; ++c) {
    workers.emplace_back([&, c] {
      ClientStats& mine = stats[static_cast<size_t>(c)];
      Rng rng(params.seed + 1000 + static_cast<uint64_t>(c));
      int64_t op = 0;
      while (!stop.load(std::memory_order_acquire)) {
        size_t table_index = static_cast<size_t>((c + op) % tables);
        const std::string& table = names[table_index];
        if (op % 8 == 0) {
          // Mostly-IND chunk into this client's rotating table. No
          // caller-side throttle: the engine's admission policy bounds the
          // backlog, and an over-limit ingest comes back as a typed shed
          // the client counts and retries later (next rotation).
          ddup::storage::Table chunk = MakeConditional(
              25, 75, chunk_rows,
              params.seed + 5000 + static_cast<uint64_t>(c * 1000 + op));
          ddup::Stopwatch timer;
          auto guard = sync_guard(table_index);
          auto result = engine.Ingest(table, chunk);
          mine.ingest_ms.push_back(timer.ElapsedMillis());
          if (result.ok()) {
            mine.rows_ingested += chunk.num_rows();
          } else if (ddup::serving::IsAdmissionShed(result.status())) {
            mine.ingests_shed += 1;
          } else {
            mine.errors += 1;
          }
        } else {
          bool updating = false;
          auto report = engine.Report(table);
          if (report.ok()) {
            updating =
                report.value().state != TableServingState::kServing;
          }
          double lo = rng.Uniform(0.0, 40.0);
          EstimateRequest request;
          request.kind = EstimateRequest::Kind::kAqp;
          request.table = table;
          request.queries.Add(AqpRangeQuery(lo, lo + 40.0));
          ddup::Stopwatch timer;
          {
            auto guard = sync_guard(table_index);
            auto est = engine.Estimate(request);
            mine.estimate_ms.push_back(timer.ElapsedMillis());
            if (est.ok() && est.value().answers.size() == 1 &&
                std::isfinite(est.value().answers[0])) {
              mine.estimates_total += 1;
              if (updating) mine.estimates_during_update += 1;
            } else {
              mine.errors += 1;
            }
          }
        }
        ++op;
      }
    });
  }
  while (wall.ElapsedSeconds() < seconds) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  stop.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  double measured = wall.ElapsedSeconds();
  auto sweep = engine.FlushAll();
  DDUP_CHECK_MSG(sweep.ok(), sweep.status().ToString());

  ModeResult out;
  out.seconds = measured;
  for (const auto& s : stats) {
    out.merged.ingest_ms.insert(out.merged.ingest_ms.end(),
                                s.ingest_ms.begin(), s.ingest_ms.end());
    out.merged.estimate_ms.insert(out.merged.estimate_ms.end(),
                                  s.estimate_ms.begin(),
                                  s.estimate_ms.end());
    out.merged.estimates_total += s.estimates_total;
    out.merged.estimates_during_update += s.estimates_during_update;
    out.merged.rows_ingested += s.rows_ingested;
    out.merged.ingests_shed += s.ingests_shed;
    out.merged.errors += s.errors;
  }
  for (const auto& name : names) {
    auto report = engine.Report(name);
    DDUP_CHECK(report.ok());
    out.updates_completed += report.value().insertions;
    out.snapshot_publishes += report.value().snapshot_publishes;
    out.queue_seconds += report.value().queue_seconds;
    out.rows_total += report.value().rows;
    out.sheds_reported += report.value().sheds;
  }
  return out;
}

ModeResult RunEngineMode(const ddup::bench::BenchParams& params,
                         int update_workers, int64_t tables, int64_t clients,
                         double seconds) {
  EngineConfig config = MakeEngineConfig(params, update_workers);
  Engine engine(config);
  return RunTraffic(engine, params, config, tables, clients, seconds,
                    /*serialize_clients=*/update_workers == 0);
}

double Pct(std::vector<double> v, double p) {
  return v.empty() ? 0.0 : ddup::Percentile(std::move(v), p);
}

double EstimateQps(const ModeResult& r) {
  return r.seconds > 0
             ? static_cast<double>(r.merged.estimates_total) / r.seconds
             : 0.0;
}

void PrintMode(const char* label, const ModeResult& r) {
  std::printf("%-8s ingest n=%-6zu p50=%7.3f p99=%8.3f max=%9.3f ms\n", label,
              r.merged.ingest_ms.size(), Pct(r.merged.ingest_ms, 50),
              Pct(r.merged.ingest_ms, 99),
              r.merged.ingest_ms.empty()
                  ? 0.0
                  : *std::max_element(r.merged.ingest_ms.begin(),
                                      r.merged.ingest_ms.end()));
  std::printf(
      "         estimate n=%-6zu p50=%7.3f p99=%8.3f ms  qps=%8.1f "
      "(during update: n=%lld)\n",
      r.merged.estimate_ms.size(), Pct(r.merged.estimate_ms, 50),
      Pct(r.merged.estimate_ms, 99), EstimateQps(r),
      static_cast<long long>(r.merged.estimates_during_update));
  std::printf(
      "         updates=%lld publishes=%lld queue_wait=%.3fs rows=%lld "
      "shed=%lld errors=%lld\n",
      static_cast<long long>(r.updates_completed),
      static_cast<long long>(r.snapshot_publishes), r.queue_seconds,
      static_cast<long long>(r.rows_total),
      static_cast<long long>(r.merged.ingests_shed),
      static_cast<long long>(r.merged.errors));
  if (r.merged.ingests_shed != r.sheds_reported) {
    std::printf("         WARNING client sheds %lld != engine sheds %lld\n",
                static_cast<long long>(r.merged.ingests_shed),
                static_cast<long long>(r.sheds_reported));
  }
}

}  // namespace

int main() {
  ddup::bench::BenchParams params = ddup::bench::BenchParams::FromEnv();
  const int64_t tables = EnvInt("DDUP_BENCH_TABLES", 4);
  const int64_t clients = EnvInt("DDUP_BENCH_CLIENTS", 4);
  const double seconds =
      static_cast<double>(EnvInt("DDUP_BENCH_SECONDS", 6));
  const int workers = static_cast<int>(EnvInt("DDUP_BENCH_WORKERS", 2));

  std::printf(
      "==============================================================\n");
  std::printf("Engine throughput — mixed Ingest/Estimate under live updates\n");
  std::printf("tables=%lld clients=%lld update_workers=%d seconds=%.0f "
              "rows=%lld epoch_scale=%.2f bootstrap=%d\n",
              static_cast<long long>(tables), static_cast<long long>(clients),
              workers, seconds, static_cast<long long>(params.rows),
              params.epoch_scale, params.bootstrap_iterations);
  std::printf(
      "==============================================================\n");

  std::printf(
      "-- async: background update workers, snapshot serving --------\n");
  ModeResult async_result =
      RunEngineMode(params, workers, tables, clients, seconds);
  PrintMode("async", async_result);

  std::printf(
      "-- sync: updates inline in Ingest (pre-concurrency engine) ---\n");
  ModeResult sync_result = RunEngineMode(params, 0, tables, clients, seconds);
  PrintMode("sync", sync_result);

  bool served_while_updating = async_result.merged.estimates_during_update > 0;
  std::printf(
      "async served %lld estimates while an update was in flight (%s); "
      "ingest p99 %0.3f ms vs sync %0.3f ms\n",
      static_cast<long long>(async_result.merged.estimates_during_update),
      served_while_updating ? "nonzero: serving continues during updates"
                            : "none observed at this scale",
      async_result.merged.ingest_ms.empty()
          ? 0.0
          : ddup::Percentile(async_result.merged.ingest_ms, 99),
      sync_result.merged.ingest_ms.empty()
          ? 0.0
          : ddup::Percentile(sync_result.merged.ingest_ms, 99));
  if (async_result.merged.errors + sync_result.merged.errors > 0) {
    std::printf("bench_engine_throughput: FAILED (client errors)\n");
    return 1;
  }
  std::printf("bench_engine_throughput: OK\n");
  return 0;
}

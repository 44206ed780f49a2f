// Estimate-path throughput of the models' batch overrides (DESIGN.md §13):
// QPS of the scalar call per query ("scalar") vs one TryEstimate*Batch call
// per batch ("batch"), across batch sizes x reader threads, on the DARN
// cardinality path (the GEMM-heavy one: MADE active-set GEMMs over every
// query's progressive-sample paths) and the MDN AQP path (per-category
// mixture reuse). Every cell reports the MatrixPool counter deltas so the
// zero-alloc claim of the batch path is a printed number, and the JSON
// header carries the kernel variant and its 256x256 GFLOP/s so throughput
// is comparable across hosts.
//
// The reader-thread axis exercises the lock-free serving contract: all
// threads estimate against one immutable model with no shared mutable
// state, so cells should scale with available cores (on a 1-core host the
// multi-thread rows simply document the absence of a lock, not a speedup).
//
// Environment knobs (defaults in parentheses):
//   DDUP_BENCH_ESTIMATES (1536) target estimates per cell (rounded up to
//                               a whole number of batches per thread)
//   DDUP_BENCH_MAX_THREADS (4)  reader-thread axis: 1,2,..,max (powers of 2)
//   DDUP_ROWS / DDUP_QUERIES / DDUP_EPOCH_SCALE / DDUP_SEED — as in every
//   bench (BenchParams).
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "bench/harness.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "models/darn.h"
#include "models/mdn.h"
#include "nn/pool.h"
#include "workload/query.h"

namespace {

using ddup::Rng;
using ddup::Status;
using ddup::bench::BenchJsonEmitter;
using ddup::bench::BenchParams;
using ddup::bench::DatasetBundle;
using ddup::bench::JsonObject;
using ddup::bench::KernelStats;

int64_t EnvInt(const char* name, int64_t fallback) {
  const char* v = std::getenv(name);
  if (v == nullptr) return fallback;
  int64_t parsed = std::atoll(v);
  return parsed > 0 ? parsed : fallback;
}

// One measured cell: `threads` readers each run `batches_per_thread`
// batches of size `batch_size` through `run_batch` (signature: thread
// index, batch index -> void). Returns wall seconds across the whole cell.
double TimeCell(int threads, int batches_per_thread,
                const std::function<void(int, int)>& run_batch) {
  std::atomic<bool> go{false};
  std::vector<std::thread> workers;
  ddup::Stopwatch sw;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (int b = 0; b < batches_per_thread; ++b) run_batch(t, b);
    });
  }
  sw.Restart();
  go.store(true, std::memory_order_release);
  for (auto& w : workers) w.join();
  return sw.ElapsedSeconds();
}

struct Mode {
  std::string name;
  // Estimate queries[first..first+count) into out[0..count).
  std::function<void(const std::vector<ddup::workload::Query>&, size_t first,
                     size_t count, std::vector<double>*)>
      run;
};

struct CellResult {
  double qps = 0.0;
  ddup::nn::MatrixPool::Counters pool{};
};

CellResult RunCell(const Mode& mode,
                   const std::vector<ddup::workload::Query>& queries,
                   int batch_size, int threads, int64_t target_estimates) {
  const int batches_per_thread = static_cast<int>(
      std::max<int64_t>(1, (target_estimates + static_cast<int64_t>(threads) *
                                                   batch_size - 1) /
                               (static_cast<int64_t>(threads) * batch_size)));
  // Warm the pool (and any lazily-built per-model caches) outside the timer,
  // once per participating thread count.
  {
    std::vector<double> out;
    mode.run(queries, 0, static_cast<size_t>(batch_size), &out);
  }
  ddup::nn::MatrixPool::Counters before =
      ddup::nn::MatrixPool::AggregateCounters();
  double seconds =
      TimeCell(threads, batches_per_thread, [&](int t, int b) {
        std::vector<double> out;
        // Rotate the window so cells do not all hammer the same prefix.
        size_t first = (static_cast<size_t>(t) * 131 +
                        static_cast<size_t>(b) * batch_size) %
                       queries.size();
        mode.run(queries, first, static_cast<size_t>(batch_size), &out);
      });
  ddup::nn::MatrixPool::Counters after =
      ddup::nn::MatrixPool::AggregateCounters();
  CellResult r;
  int64_t total = static_cast<int64_t>(batches_per_thread) * threads *
                  batch_size;
  r.qps = total / seconds;
  r.pool.acquires = after.acquires - before.acquires;
  r.pool.reuses = after.reuses - before.reuses;
  r.pool.heap_allocs = after.heap_allocs - before.heap_allocs;
  r.pool.releases = after.releases - before.releases;
  return r;
}

// Copies the [first, first+count) window (wrapping) into a fresh batch.
std::vector<ddup::workload::Query> Window(
    const std::vector<ddup::workload::Query>& queries, size_t first,
    size_t count) {
  std::vector<ddup::workload::Query> batch;
  for (size_t i = 0; i < count; ++i)
    batch.push_back(queries[(first + i) % queries.size()]);
  return batch;
}

void MustOk(const Status& s) {
  if (!s.ok()) {
    std::fprintf(stderr, "estimate failed: %s\n", s.ToString().c_str());
    std::abort();
  }
}

// The two ways to run a window of queries: one scalar call per query, or
// one call of the model's batch override.
template <typename ScalarFn, typename BatchFn>
std::vector<Mode> BuildModes(ScalarFn scalar, BatchFn batch_call) {
  std::vector<Mode> modes;
  modes.push_back(
      {"scalar", [scalar](const std::vector<ddup::workload::Query>& qs,
                          size_t first, size_t count,
                          std::vector<double>* out) {
         out->resize(count);
         for (size_t i = 0; i < count; ++i) {
           auto r = scalar(qs[(first + i) % qs.size()]);
           if (!r.ok()) MustOk(r.status());
           (*out)[i] = r.value();
         }
       }});
  modes.push_back(
      {"batch", [batch_call](const std::vector<ddup::workload::Query>& qs,
                             size_t first, size_t count,
                             std::vector<double>* out) {
         MustOk(batch_call(Window(qs, first, count), out));
       }});
  return modes;
}

void RunGrid(BenchJsonEmitter& json, const std::string& model,
             const std::string& task, const std::vector<Mode>& modes,
             const std::vector<ddup::workload::Query>& queries,
             const std::vector<int>& batch_sizes,
             const std::vector<int>& thread_counts, int64_t target_estimates,
             double* out_speedup_b32_t1) {
  std::printf("\n[%s %s] %zu queries, %lld estimates/cell\n", model.c_str(),
              task.c_str(), queries.size(),
              static_cast<long long>(target_estimates));
  std::printf("%-11s %6s %8s | %12s %10s %11s\n", "mode", "batch", "threads",
              "qps", "heapallocs", "pool-reuse");
  double scalar_b32_t1 = 0.0;
  for (const Mode& mode : modes) {
    for (int batch_size : batch_sizes) {
      for (int threads : thread_counts) {
        CellResult r =
            RunCell(mode, queries, batch_size, threads, target_estimates);
        double reuse = r.pool.acquires > 0
                           ? 100.0 * r.pool.reuses / r.pool.acquires
                           : 0.0;
        std::printf("%-11s %6d %8d | %12.0f %10lld %10.1f%%\n",
                    mode.name.c_str(), batch_size, threads, r.qps,
                    static_cast<long long>(r.pool.heap_allocs), reuse);
        if (mode.name == "scalar" && batch_size == 32 && threads == 1)
          scalar_b32_t1 = r.qps;
        if (mode.name == "batch" && batch_size == 32 && threads == 1 &&
            out_speedup_b32_t1 != nullptr && scalar_b32_t1 > 0.0)
          *out_speedup_b32_t1 = r.qps / scalar_b32_t1;
        json.AddRow(JsonObject()
                        .Set("model", model)
                        .Set("task", task)
                        .Set("mode", mode.name)
                        .Set("batch_size", batch_size)
                        .Set("threads", threads)
                        .Set("qps", r.qps)
                        .Set("pool_acquires",
                             static_cast<int64_t>(r.pool.acquires))
                        .Set("pool_reuses",
                             static_cast<int64_t>(r.pool.reuses))
                        .Set("pool_heap_allocs",
                             static_cast<int64_t>(r.pool.heap_allocs))
                        .Set("pool_releases",
                             static_cast<int64_t>(r.pool.releases)));
      }
    }
  }
}

void Run() {
  BenchParams params = BenchParams::FromEnv();
  ddup::bench::PrintBanner(
      "estimate_batch",
      "estimate QPS: scalar calls vs the model's batch override", params);
  const int64_t target_estimates = EnvInt("DDUP_BENCH_ESTIMATES", 1536);
  const int max_threads =
      static_cast<int>(EnvInt("DDUP_BENCH_MAX_THREADS", 4));
  std::vector<int> thread_counts;
  for (int t = 1; t <= max_threads; t *= 2) thread_counts.push_back(t);
  const std::vector<int> batch_sizes = {1, 8, 32, 128};

  KernelStats ks = ddup::bench::MeasureKernelStats();
  std::printf("kernel=%s gemm256=%.2f GFLOP/s\n", ks.kernel,
              ks.gemm256_gflops);

  DatasetBundle bundle = ddup::bench::MakeBundle("census", params);
  BenchJsonEmitter json("estimate_batch", params);
  json.SetParam("kernel", std::string(ks.kernel));
  json.SetParam("gemm256_gflops", ks.gemm256_gflops);
  json.SetParam("estimates_per_cell", target_estimates);

  // DARN cardinality: the GEMM-heavy path.
  double darn_speedup = 0.0;
  {
    ddup::models::Darn darn(bundle.base, ddup::bench::DarnConfigFor(params));
    Rng qrng(params.seed + 61);
    auto queries = ddup::bench::NaruCountQueries(bundle, params, qrng);
    const ddup::core::CardinalityEstimator& card = darn;
    auto modes = BuildModes(
        [&card](const ddup::workload::Query& q) {
          return card.TryEstimateCardinality(q);
        },
        [&card](const std::vector<ddup::workload::Query>& batch,
                std::vector<double>* out) {
          return card.TryEstimateCardinalityBatch(batch, out);
        });
    RunGrid(json, "darn", "cardinality", modes, queries, batch_sizes,
            thread_counts, target_estimates, &darn_speedup);
  }

  // MDN AQP: cheap per query; the batched win is per-category mixture reuse.
  {
    ddup::models::Mdn mdn(bundle.base, bundle.aqp.categorical,
                          bundle.aqp.numeric,
                          ddup::bench::MdnConfigFor(params));
    Rng qrng(params.seed + 62);
    auto queries = ddup::bench::AqpCountQueries(bundle, params, qrng);
    const ddup::core::AqpEstimator& aqp = mdn;
    const ddup::storage::Table& schema = bundle.base;
    auto modes = BuildModes(
        [&aqp, &schema](const ddup::workload::Query& q) {
          return aqp.TryEstimateAqp(q, schema);
        },
        [&aqp, &schema](const std::vector<ddup::workload::Query>& batch,
                        std::vector<double>* out) {
          return aqp.TryEstimateAqpBatch(batch, schema, out);
        });
    RunGrid(json, "mdn", "aqp_count", modes, queries, batch_sizes,
            thread_counts, target_estimates, nullptr);
  }

  json.SetParam("darn_batch_speedup_b32_t1", darn_speedup);
  json.Write();
  std::printf("\nDARN batch/scalar speedup @ batch=32, 1 thread: %.2fx\n",
              darn_speedup);
  std::printf(
      "shape check: batch qps grows with batch size and holds "
      "heapallocs at 0 once warm; scalar flat across batch sizes.\n");
}

}  // namespace

int main() {
  Run();
  return 0;
}

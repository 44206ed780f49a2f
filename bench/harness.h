#ifndef DDUP_BENCH_HARNESS_H_
#define DDUP_BENCH_HARNESS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/controller.h"
#include "datagen/datasets.h"
#include "datagen/star_schema.h"
#include "models/darn.h"
#include "models/mdn.h"
#include "models/tvae.h"
#include "storage/table.h"
#include "workload/generator.h"
#include "workload/metrics.h"

// Shared scaffolding for the paper-reproduction benchmarks: dataset bundles
// (base + 20% IND/OOD update samples, §5.1), bench-sized model configs, and
// the five-approach protocol (M0 / DDUp / baseline / stale / retrain) used
// by Tables 5, 6, 8 and Figures 5-9.
namespace ddup::bench {

// The paper's "baseline" update fine-tunes on the new data with a reduced
// learning rate — but one still large enough to move the weights; that is
// precisely what triggers catastrophic forgetting. We keep it at 2x the
// (conservative) distillation learning rate.
inline constexpr double kBaselineLrMultiplier = 2.0;

// Environment overrides: DDUP_ROWS, DDUP_QUERIES, DDUP_EPOCH_SCALE (float
// multiplier), DDUP_BOOTSTRAP, DDUP_SEED. DDUP_THREADS sizes the shared
// ThreadPool::Global() (read by the pool itself); results are bit-identical
// for any value.
//
// DDUP_CHECKPOINT_DIR points at a warm-start cache directory: the trained
// base model M0 of each (model kind, dataset, config) combination is saved
// there on first use and reloaded on every later use, skipping bootstrap
// training entirely. Because a checkpoint restores weights, metadata AND the
// RNG stream, warm-started runs produce bit-identical tables to cold runs —
// the cache only removes wall time. Delete the directory (or change any
// config knob; the file name is keyed on a config hash) to retrain.
struct BenchParams {
  int64_t rows = 4000;
  int num_queries = 200;
  double epoch_scale = 1.0;
  int bootstrap_iterations = 300;
  uint64_t seed = 42;

  static BenchParams FromEnv();
  int ScaledEpochs(int epochs) const;
};

// Kernel-layer throughput, measured once per process on the same GemmInto
// path the models run on (256x256, the ISSUE/ROADMAP reference shape).
struct KernelStats {
  const char* kernel = "";      // compiled micro-kernel variant
  double gemm256_gflops = 0.0;  // sustained GFLOP/s at 256x256
};
KernelStats MeasureKernelStats();

// One-line MatrixPool counter delta since the last call (or process start):
// total acquires, free-list reuse rate, and heap allocations. Printed by
// RunApproaches after the update phases so every harness bench reports the
// allocation behavior of the run it just timed.
void PrintPoolCounters(const char* label);

// A dataset plus the paper's update samples: "IND" is a 20% random sample of
// a straight copy; "OOD" is a 20% sample of the independently-sorted
// (joint-permuted) copy (§5.1).
struct DatasetBundle {
  std::string name;
  storage::Table base;
  storage::Table ind_batch;
  storage::Table ood_batch;
  datagen::AqpColumns aqp;
};

DatasetBundle MakeBundle(const std::string& dataset, const BenchParams& params);
// The union base + batch (the post-insertion table). Schema-checked: a
// mismatched batch fails as StatusOr (TryUnion) or aborts with the detailed
// mismatch message (Union, for bench code where the schemas are static).
StatusOr<storage::Table> TryUnion(const storage::Table& base,
                                  const storage::Table& batch);
storage::Table Union(const storage::Table& base, const storage::Table& batch);

// Bench-sized model configurations.
models::MdnConfig MdnConfigFor(const BenchParams& params);
models::DarnConfig DarnConfigFor(const BenchParams& params);
models::TvaeConfig TvaeConfigFor(const BenchParams& params);
core::DistillConfig DistillConfigFor(const BenchParams& params);
core::ControllerConfig ControllerConfigFor(const BenchParams& params);

// Query workloads (generated at time 0 against the base table; §5.1.2).
std::vector<workload::Query> AqpCountQueries(const DatasetBundle& bundle,
                                             const BenchParams& params,
                                             Rng& rng);
std::vector<workload::Query> NaruCountQueries(const DatasetBundle& bundle,
                                              const BenchParams& params,
                                              Rng& rng);

// Per-model estimate vectors for a query set.
std::vector<double> EstimateAll(const models::Mdn& model,
                                const std::vector<workload::Query>& queries,
                                const storage::Table& schema);
std::vector<double> EstimateAll(const models::Darn& model,
                                const std::vector<workload::Query>& queries);

// Q-errors of estimates against truths.
std::vector<double> QErrors(const std::vector<double>& estimates,
                            const std::vector<double>& truths);
// Relative errors (%) of estimates against truths.
std::vector<double> RelErrors(const std::vector<double>& estimates,
                              const std::vector<double>& truths);

// ---------------------------------------------------------------------------
// Five-approach protocol (Tables 5/6/8): given a bundle and an update batch,
// produce the post-update models for every approach. The same seeds make the
// base model identical across approaches. One templated path serves every
// model family: instances are built through the api::ModelFactory registry
// (with bench-sized options derived from BenchParams), so a kind registered
// with the factory is automatically benchable.
// ---------------------------------------------------------------------------
template <typename ModelT>
struct Approaches {
  std::unique_ptr<ModelT> m0;        // untouched base model
  std::unique_ptr<ModelT> ddup;      // distillation update
  std::unique_ptr<ModelT> baseline;  // plain fine-tune on new data
  std::unique_ptr<ModelT> stale;     // do nothing
  std::unique_ptr<ModelT> retrain;   // retrain on base+batch
  double ddup_seconds = 0.0;
  double baseline_seconds = 0.0;
  double retrain_seconds = 0.0;
};

// Explicitly instantiated in harness.cc for models::Mdn / Darn / Tvae.
template <typename ModelT>
Approaches<ModelT> RunApproaches(const DatasetBundle& bundle,
                                 const storage::Table& batch,
                                 const BenchParams& params);

extern template Approaches<models::Mdn> RunApproaches<models::Mdn>(
    const DatasetBundle&, const storage::Table&, const BenchParams&);
extern template Approaches<models::Darn> RunApproaches<models::Darn>(
    const DatasetBundle&, const storage::Table&, const BenchParams&);
extern template Approaches<models::Tvae> RunApproaches<models::Tvae>(
    const DatasetBundle&, const storage::Table&, const BenchParams&);

// HandleInsertion for bench streams whose batches are valid by
// construction: aborts with the Status message instead of returning it.
core::InsertionReport MustInsert(core::DdupController& controller,
                                 const storage::Table& batch);

// Output helpers.
void PrintBanner(const std::string& artifact, const std::string& description,
                 const BenchParams& params);
std::string FormatRow(const std::string& label,
                      const workload::ErrorSummary& summary);

// ---------------------------------------------------------------------------
// Machine-readable results: BENCH_<artifact>.json. The emitter collects one
// flat JSON object per result row and writes
//   { "artifact": ..., "params": {...}, "results": [ {...}, ... ] }
// to $DDUP_BENCH_JSON_DIR/BENCH_<artifact>.json (directory created if
// missing; falls back to the working directory when the variable is unset).
// Output is deliberately timestamp- and timing-free where the bench wants
// bit-identical files: doubles render via %.17g (round-trip exact), keys
// keep insertion order, and nothing else is interpolated — a fixed seed
// reproduces the file byte for byte.
// ---------------------------------------------------------------------------
class JsonObject {
 public:
  // Set is last-writer-wins: re-setting an existing key overwrites its value
  // in place (keeping the key's original position) instead of emitting a
  // duplicate member, so benches can override a stamped header field via
  // SetParam without producing JSON that strict parsers reject.
  JsonObject& Set(const std::string& key, const std::string& value);
  JsonObject& Set(const std::string& key, const char* value);
  JsonObject& Set(const std::string& key, double value);
  JsonObject& Set(const std::string& key, int64_t value);
  JsonObject& Set(const std::string& key, int value);
  JsonObject& Set(const std::string& key, bool value);

  // "{"k1":v1,...}" in insertion order.
  std::string Render() const;

 private:
  JsonObject& SetEncoded(const std::string& key, std::string encoded);

  std::vector<std::pair<std::string, std::string>> fields_;  // key -> encoded
};

class BenchJsonEmitter {
 public:
  // The constructor stamps the BenchParams plus the host context every
  // consumer needs to compare numbers across machines: logical core count
  // (std::thread::hardware_concurrency) and the CPU model string from
  // /proc/cpuinfo ("unknown" where unavailable).
  BenchJsonEmitter(std::string artifact, const BenchParams& params);
  // Adds a bench-specific header field under "params" (kernel variant,
  // per-cell workload size, headline speedup...) before Write().
  template <typename T>
  BenchJsonEmitter& SetParam(const std::string& key, T value) {
    params_.Set(key, value);
    return *this;
  }
  void AddRow(JsonObject row);
  // Writes the file and prints its path; returns the path ("" on failure).
  std::string Write() const;

 private:
  std::string artifact_;
  JsonObject params_;
  std::vector<JsonObject> rows_;
};

}  // namespace ddup::bench

#endif  // DDUP_BENCH_HARNESS_H_

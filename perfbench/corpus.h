#ifndef DDUP_PERFBENCH_CORPUS_H_
#define DDUP_PERFBENCH_CORPUS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "api/engine.h"
#include "storage/table.h"
#include "workload/join_query.h"
#include "workload/query.h"

namespace perfbench {

// One table of a workload's corpus.
struct TableSpec {
  std::string name;
  // Model kind ("mdn" serves AQP, "darn" serves cardinality), or "" for a
  // table registered without a model (the join dimensions, which enter the
  // join combiner through their exact stats only).
  std::string kind;
  ddup::api::ModelSpec model;
  ddup::storage::Table base;
  // Labelled insertion stream, one engine micro-batch per entry, with the
  // ground-truth drift label of each. Empty for model-less tables.
  std::string stream_shape;
  std::vector<ddup::storage::Table> batches;
  std::vector<bool> drifted;
  // Probe set: fixed single-table queries (AQP for mdn, COUNT for darn)
  // with exact answers over the base and over base + whole stream.
  std::vector<ddup::workload::Query> probes;
  std::vector<double> truth_base;
  std::vector<double> truth_final;
};

// The fixed corpus of one workload: tables, model specs, labelled streams
// and probe sets. It never depends on --seed. The paper's quality outputs
// (q-error, detection FPR/FNR) are properties of the data; a corpus redrawn
// per seed moves them by more than any useful bound (a 2-sigma drift test
// raises a handful of false alarms per corpus, one either way is a large
// share). The seed draws what clients control instead — the timed request
// streams and the ingest call sizes (Requests below) — much as a TPC
// benchmark fixes the database at a scale factor and randomizes query
// parameters per stream.
struct Corpus {
  std::string workload;
  int64_t batch_rows = 0;
  std::vector<TableSpec> tables;
  // join_read: the 3-table chain and the join probe set with exact join
  // counts over the base fact table.
  std::vector<ddup::workload::JoinEdge> join_edges;
  ddup::workload::JoinQueryBatch join_probes;
  std::vector<double> join_truth;
  // True when q-error is scored after the stream (drift_update); the read
  // workloads score right after their timed read phase, before the
  // maintenance stream.
  bool score_after_stream = false;

  int64_t stream_rows() const;
  int64_t stream_batches() const;
};

// Names of the workloads, in BENCHMARK.json order.
std::vector<std::string> WorkloadNames();
// CHECK-fails on an unknown name (validated by the caller first).
Corpus MakeCorpus(const std::string& workload);

// What the seed draws: the timed read requests (cycled by the client) and
// each table's stream cut into Ingest calls of seed-drawn sizes. Requests are
// built before any timing starts, so the timed loops never allocate inputs.
struct Requests {
  std::vector<ddup::api::EstimateRequest> reads;
  // Queries per read request: 1 for single AQP reads, B for join batches.
  int64_t queries_per_request = 1;
  // Per corpus table: the stream as consecutive Ingest payloads.
  std::vector<std::vector<ddup::storage::Table>> ingest_calls;
};
Requests MakeRequests(const Corpus& corpus, uint64_t seed);

// Engine configuration shared by every workload: asynchronous DDUp updates
// on kUpdateWorkers background workers, block admission with a per-table
// backlog bound, default estimate engine, codec and accumulator.
inline constexpr int kUpdateWorkers = 2;
inline constexpr int64_t kMaxBacklogBatches = 2;
ddup::api::EngineConfig MakeEngineConfig();

}  // namespace perfbench

#endif  // DDUP_PERFBENCH_CORPUS_H_

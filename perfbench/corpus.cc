#include "corpus.h"

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/status.h"
#include "datagen/datasets.h"
#include "datagen/scenarios.h"
#include "datagen/star_schema.h"
#include "storage/transforms.h"
#include "workload/executor.h"
#include "workload/generator.h"

namespace perfbench {

namespace {

using ddup::Rng;
using ddup::storage::Table;
using ddup::workload::AggFunc;
using ddup::workload::Query;

// Every corpus draw derives from this constant, never from --seed.
constexpr uint64_t kCorpusSeed = 20230601;
constexpr int64_t kBaseRows = 4000;
constexpr int64_t kBatchRows = 250;
// drift_update stream length per table, and the drift onset.
constexpr int kDriftBatches = 24;
constexpr int kDriftOnset = 8;
// Read workloads' maintenance stream per table: clean, then drifted.
constexpr int kMaintenanceClean = 8;
constexpr int kMaintenanceDrifted = 8;
constexpr int kProbesPerTable = 96;
constexpr int kJoinBatch = 8;  // B: join queries per join_read request
// Seed-drawn request pools, cycled by the clients. Large enough that the
// pool's mean cost per request hardly moves between seeds.
constexpr int kAqpRequestsPerTable = 1024;
constexpr int kJoinRequests = 4096;

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t x =
      seed ^ (salt + 0x9E3779B97F4A7C15ULL + (seed << 6) + (seed >> 2));
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdULL;
  x ^= x >> 33;
  return x;
}

ddup::api::ModelSpec MdnSpec(const ddup::datagen::AqpColumns& aqp,
                             uint64_t seed) {
  return {"mdn",
          {{"categorical", aqp.categorical},
           {"numeric", aqp.numeric},
           {"num_components", "8"},
           {"hidden_width", "48"},
           {"epochs", "20"},
           {"learning_rate", "0.005"},
           {"seed", std::to_string(seed)}}};
}

ddup::api::ModelSpec DarnSpec(uint64_t seed) {
  return {"darn",
          {{"hidden_width", "64"},
           {"max_bins", "64"},
           {"epochs", "16"},
           {"learning_rate", "0.005"},
           {"progressive_samples", "32"},
           {"seed", std::to_string(seed)}}};
}

// DBEst++ template queries over (categorical, numeric), cycling through
// COUNT, SUM and AVG.
std::vector<Query> AqpQueries(const Table& base,
                              const ddup::datagen::AqpColumns& aqp, int n,
                              Rng& rng) {
  std::vector<Query> out;
  const AggFunc aggs[] = {AggFunc::kCount, AggFunc::kSum, AggFunc::kAvg};
  for (int i = 0; i < n; ++i) {
    ddup::workload::AqpWorkloadConfig config;
    config.categorical_column = aqp.categorical;
    config.numeric_column = aqp.numeric;
    config.agg = aggs[i % 3];
    std::vector<Query> one =
        ddup::workload::GenerateNonEmptyAqpQueries(base, config, 1, rng);
    out.push_back(std::move(one[0]));
  }
  return out;
}

std::vector<Query> CountQueries(const Table& base, int n, Rng& rng) {
  ddup::workload::NaruWorkloadConfig config;
  config.min_filters = 1;
  config.max_filters = std::min(3, base.num_columns());
  return ddup::workload::GenerateNonEmptyNaruQueries(base, config, n, rng);
}

Table Concat(const Table& base, const std::vector<Table>& batches) {
  Table all = base;
  for (const Table& b : batches) all.Append(b);
  return all;
}

void AttachProbes(TableSpec* t, std::vector<Query> probes) {
  t->probes = std::move(probes);
  t->truth_base = ddup::workload::ExecuteAll(t->base, t->probes);
  t->truth_final =
      ddup::workload::ExecuteAll(Concat(t->base, t->batches), t->probes);
}

// The read workloads' maintenance stream: clean batches sampled from the
// base, then batches of the paper's OOD transform (every column sorted
// independently: marginals kept, joint destroyed).
void AttachMaintenanceStream(TableSpec* t, Rng& rng) {
  const double fraction = static_cast<double>(kBatchRows) /
                          static_cast<double>(t->base.num_rows());
  t->stream_shape = "maintenance(" + std::to_string(kMaintenanceClean) +
                    " clean, " + std::to_string(kMaintenanceDrifted) + " ood)";
  for (int i = 0; i < kMaintenanceClean + kMaintenanceDrifted; ++i) {
    const bool drifted = i >= kMaintenanceClean;
    Table batch =
        drifted ? ddup::storage::OutOfDistributionSample(t->base, rng, fraction)
                : ddup::storage::InDistributionSample(t->base, rng, fraction);
    DDUP_CHECK(batch.num_rows() == kBatchRows);
    t->batches.push_back(std::move(batch));
    t->drifted.push_back(drifted);
  }
}

Corpus AqpReadCorpus() {
  Corpus c;
  Rng rng(Mix(kCorpusSeed, 1));
  for (const std::string& dataset : ddup::datagen::DatasetNames()) {
    const uint64_t i = c.tables.size();
    TableSpec t;
    t.name = "aqp_" + dataset;
    t.kind = "mdn";
    const ddup::datagen::AqpColumns aqp = ddup::datagen::AqpColumnsFor(dataset);
    t.base = ddup::datagen::MakeDataset(dataset, kBaseRows,
                                        Mix(kCorpusSeed, 20 + i));
    t.model = MdnSpec(aqp, kCorpusSeed + i);
    AttachMaintenanceStream(&t, rng);
    AttachProbes(&t, AqpQueries(t.base, aqp, kProbesPerTable, rng));
    c.tables.push_back(std::move(t));
  }
  return c;
}

Corpus JoinReadCorpus() {
  Corpus c;
  Rng rng(Mix(kCorpusSeed, 2));
  ddup::datagen::StarDataset star =
      ddup::datagen::ImdbLike(kBaseRows, Mix(kCorpusSeed, 3));
  TableSpec fact;
  fact.name = "fact";
  fact.kind = "darn";
  fact.base = star.fact;
  fact.model = DarnSpec(kCorpusSeed + 7);
  AttachMaintenanceStream(&fact, rng);
  std::vector<Query> fact_queries =
      CountQueries(fact.base, kProbesPerTable, rng);
  AttachProbes(&fact, fact_queries);
  c.tables.push_back(std::move(fact));

  // The chain's join steps become router edges: step i joins some already
  // joined table's `first` column with dims[i]'s `second` column.
  std::vector<std::string> dim_names;
  for (size_t i = 0; i < star.dims.size(); ++i) {
    TableSpec dim;
    dim.name = "dim" + std::to_string(i);
    dim.base = star.dims[i];
    dim_names.push_back(dim.name);
    c.tables.push_back(std::move(dim));
  }
  for (size_t i = 0; i < star.join_keys.size(); ++i) {
    ddup::workload::JoinEdge edge;
    edge.left_table = "fact";
    for (size_t d = 0; d < i; ++d) {
      if (star.dims[d].ColumnIndex(star.join_keys[i].first) >= 0) {
        edge.left_table = dim_names[d];
      }
    }
    edge.left_column = star.join_keys[i].first;
    edge.right_table = dim_names[i];
    edge.right_column = star.join_keys[i].second;
    c.join_edges.push_back(edge);
  }

  // Join probes: the fact probes lifted onto the chain, scored against the
  // exact join (fact columns keep their names through the hash join).
  const Table joined = star.JoinWithFact(star.fact);
  std::vector<Query> remapped = fact_queries;
  for (size_t i = 0; i < fact_queries.size(); ++i) {
    ddup::workload::JoinQuery jq;
    jq.joins = c.join_edges;
    for (ddup::workload::Predicate& p : remapped[i].predicates) {
      jq.predicates.push_back({"fact", p});
      p.column = joined.ColumnIndex(star.fact.column(p.column).name());
    }
    c.join_probes.Add(std::move(jq));
  }
  c.join_truth = ddup::workload::ExecuteAll(joined, remapped);
  return c;
}

Corpus DriftUpdateCorpus() {
  Corpus c;
  c.score_after_stream = true;
  Rng rng(Mix(kCorpusSeed, 4));
  // Tables alternate MDN (AQP) and DARN (cardinality) in taxonomy order, so
  // both served families train under labelled drift.
  const std::vector<std::string> datasets = {"census", "forest", "dmv",
                                             "tpcds",  "census", "forest"};
  const std::vector<std::string> scenarios = ddup::datagen::ScenarioNames();
  DDUP_CHECK(scenarios.size() == datasets.size());
  for (size_t i = 0; i < scenarios.size(); ++i) {
    ddup::datagen::ScenarioConfig config;
    config.scenario = scenarios[i];
    config.dataset = datasets[i];
    config.base_rows = kBaseRows;
    config.batch_rows = kBatchRows;
    config.num_batches = kDriftBatches;
    config.onset_batch = kDriftOnset;
    config.seed = Mix(kCorpusSeed, 10 + i);
    ddup::datagen::DriftStream stream = ddup::datagen::MakeScenario(config);

    TableSpec t;
    t.name = scenarios[i];
    t.kind = i % 2 == 0 ? "mdn" : "darn";
    t.base = std::move(stream.base);
    t.batches = std::move(stream.batches);
    t.drifted = std::move(stream.drifted);
    t.stream_shape = scenarios[i] + "/" + datasets[i];
    const ddup::datagen::AqpColumns aqp =
        ddup::datagen::AqpColumnsFor(datasets[i]);
    if (t.kind == "mdn") {
      t.model = MdnSpec(aqp, kCorpusSeed + i);
      AttachProbes(&t, AqpQueries(t.base, aqp, kProbesPerTable, rng));
    } else {
      t.model = DarnSpec(kCorpusSeed + i);
      AttachProbes(&t, CountQueries(t.base, kProbesPerTable, rng));
    }
    c.tables.push_back(std::move(t));
  }
  return c;
}

}  // namespace

int64_t Corpus::stream_rows() const {
  int64_t rows = 0;
  for (const TableSpec& t : tables) {
    for (const Table& b : t.batches) rows += b.num_rows();
  }
  return rows;
}

int64_t Corpus::stream_batches() const {
  int64_t n = 0;
  for (const TableSpec& t : tables) n += static_cast<int64_t>(t.batches.size());
  return n;
}

std::vector<std::string> WorkloadNames() {
  return {"aqp_read", "join_read", "drift_update"};
}

Corpus MakeCorpus(const std::string& workload) {
  Corpus c;
  if (workload == "aqp_read") c = AqpReadCorpus();
  if (workload == "join_read") c = JoinReadCorpus();
  if (workload == "drift_update") c = DriftUpdateCorpus();
  DDUP_CHECK_MSG(!c.tables.empty(), "unknown workload " + workload);
  c.workload = workload;
  c.batch_rows = kBatchRows;
  return c;
}

Requests MakeRequests(const Corpus& corpus, uint64_t seed) {
  Requests r;
  Rng rng(Mix(seed, 0xC11E47));
  using Kind = ddup::api::EstimateRequest::Kind;
  if (corpus.workload == "join_read") {
    // B join COUNT queries per request over the chain, fact predicates only.
    const TableSpec& fact = corpus.tables[0];
    r.queries_per_request = kJoinBatch;
    for (int i = 0; i < kJoinRequests; ++i) {
      ddup::api::EstimateRequest req;
      req.kind = Kind::kCardinality;
      for (const Query& q : CountQueries(fact.base, kJoinBatch, rng)) {
        ddup::workload::JoinQuery jq;
        jq.joins = corpus.join_edges;
        for (const ddup::workload::Predicate& p : q.predicates) {
          jq.predicates.push_back({"fact", p});
        }
        req.joins.Add(std::move(jq));
      }
      r.reads.push_back(std::move(req));
    }
  } else {
    // Single-query AQP reads, round-robin over the MDN tables.
    std::vector<std::vector<Query>> per_table;
    std::vector<const TableSpec*> mdn;
    for (const TableSpec& t : corpus.tables) {
      if (t.kind != "mdn") continue;
      mdn.push_back(&t);
      const auto& model = t.model.options;
      per_table.push_back(AqpQueries(
          t.base, {model.at("categorical"), model.at("numeric")},
          kAqpRequestsPerTable, rng));
    }
    for (int q = 0; q < kAqpRequestsPerTable; ++q) {
      for (size_t t = 0; t < mdn.size(); ++t) {
        ddup::api::EstimateRequest req;
        req.kind = Kind::kAqp;
        req.table = mdn[t]->name;
        req.queries.Add(per_table[t][q]);
        r.reads.push_back(std::move(req));
      }
    }
  }

  // Each table's stream, cut into Ingest calls of batch_rows/4..batch_rows
  // rows. Cuts ignore micro-batch boundaries: the engine's accumulator
  // re-forms exact batch_rows micro-batches, so the labelled batches the
  // detector sees do not depend on the seed.
  for (const TableSpec& t : corpus.tables) {
    std::vector<Table> calls;
    if (!t.batches.empty()) {
      Table all = t.batches[0];
      for (size_t b = 1; b < t.batches.size(); ++b) all.Append(t.batches[b]);
      int64_t row = 0;
      while (row < all.num_rows()) {
        const int64_t n = std::min(
            all.num_rows() - row,
            rng.UniformInt(corpus.batch_rows / 4, corpus.batch_rows));
        std::vector<int64_t> idx(static_cast<size_t>(n));
        for (int64_t i = 0; i < n; ++i) idx[static_cast<size_t>(i)] = row + i;
        calls.push_back(all.TakeRows(idx));
        row += n;
      }
    }
    r.ingest_calls.push_back(std::move(calls));
  }
  return r;
}

ddup::api::EngineConfig MakeEngineConfig() {
  ddup::api::EngineConfig config;
  config.micro_batch_rows = kBatchRows;
  config.update_workers = kUpdateWorkers;
  config.max_backlog_batches = kMaxBacklogBatches;
  config.admission_policy = "block";
  config.controller.seed = Mix(kCorpusSeed, 5);
  config.controller.detector.seed = Mix(kCorpusSeed, 6);
  return config;
}

}  // namespace perfbench

// Engine smoke: the full multi-table `ddup::api::Engine` lifecycle at tiny
// sizes, verified end to end. Registered as a ctest target and run by
// scripts/bench_smoke.sh, so the public API path cannot rot silently.
//
//   1. Two tables (census-like and forest-like) with different model kinds
//      behind one engine: "darn" serving cardinality estimates and "mdn"
//      serving AQP estimates, both built through the model factory.
//   2. Micro-batched ingestion: an update stream lands in odd-sized chunks,
//      detection runs per full micro-batch, a Flush pushes the remainder.
//   3. Status surface: unknown tables, unregistered kinds and mismatched
//      schemas come back as recoverable Statuses.
//   4. Save -> Load: the whole engine round-trips through one manifest file
//      and the reloaded engine must reproduce every estimate bit-for-bit.
//
// Build & run:  ./build/examples/engine_smoke [checkpoint_path]
#include <cstdio>
#include <string>
#include <vector>

#include "api/engine.h"
#include "common/rng.h"
#include "datagen/datasets.h"
#include "storage/sampling.h"
#include "storage/transforms.h"
#include "workload/generator.h"

namespace {

using ddup::Rng;
using ddup::api::Engine;
using ddup::api::EstimateRequest;

bool Check(bool ok, const char* what) {
  std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string path =
      argc > 1 ? argv[1] : std::string("/tmp/ddup_engine_smoke.ckpt");
  std::printf("ddup::Engine smoke — two tables, two model kinds, one file\n");
  bool all_ok = true;

  ddup::api::EngineConfig config;
  config.micro_batch_rows = 100;
  config.controller.detector.bootstrap_iterations = 40;
  Engine engine(config);

  // --- Registry + attach ---------------------------------------------------
  ddup::storage::Table census = ddup::datagen::MakeDataset("census", 500, 7);
  ddup::storage::Table forest = ddup::datagen::MakeDataset("forest", 500, 8);
  all_ok &= Check(engine.CreateTable("census", census).ok(), "create census");
  all_ok &= Check(engine.CreateTable("forest", forest).ok(), "create forest");
  all_ok &= Check(
      engine
          .AttachModel("census", {"darn", {{"epochs", "2"}, {"max_bins", "16"}}})
          .ok(),
      "attach darn to census");
  ddup::datagen::AqpColumns aqp = ddup::datagen::AqpColumnsFor("forest");
  all_ok &= Check(engine
                      .AttachModel("forest", {"mdn",
                                              {{"categorical", aqp.categorical},
                                               {"numeric", aqp.numeric},
                                               {"epochs", "3"}}})
                      .ok(),
                  "attach mdn to forest");

  // --- Status surface ------------------------------------------------------
  all_ok &= Check(!engine.CreateTable("census", census).ok(),
                  "duplicate table rejected");
  all_ok &= Check(!engine.AttachModel("census", {"mdn", {}}).ok(),
                  "second model rejected");
  all_ok &= Check(!engine.AttachModel("nowhere", {"mdn", {}}).ok(),
                  "unknown table rejected");
  all_ok &= Check(!engine.Ingest("nowhere", census).ok(),
                  "ingest into unknown table rejected");
  {
    ddup::storage::Table unknown_kind =
        ddup::datagen::MakeDataset("tpcds", 200, 9);
    ddup::api::EngineConfig probe_config;
    Engine probe(probe_config);
    ddup::Status st = probe.CreateTable("t", unknown_kind);
    st = probe.AttachModel("t", {"made-up-kind", {}});
    all_ok &= Check(!st.ok(), "unregistered model kind rejected");
    std::printf("      %s\n", st.ToString().c_str());
  }
  all_ok &= Check(!engine.Ingest("census", forest).ok(),
                  "schema-mismatched batch rejected");

  // --- Micro-batched ingestion ---------------------------------------------
  Rng rng(11);
  ddup::storage::Table census_update =
      ddup::storage::OutOfDistributionSample(census, rng, 0.5);  // 250 rows
  int64_t flushed = 0;
  for (int64_t at = 0; at < census_update.num_rows(); at += 60) {
    std::vector<int64_t> rows;
    for (int64_t r = at;
         r < census_update.num_rows() && r < at + 60; ++r) {
      rows.push_back(r);
    }
    auto result = engine.Ingest("census", census_update.TakeRows(rows));
    if (!result.ok()) {
      std::printf("  ingest failed: %s\n", result.status().ToString().c_str());
      return 1;
    }
    flushed += result.value().rows_flushed;
  }
  // 250 rows in 60-row chunks through a 100-row micro-batch: two full
  // micro-batches flush during ingest, 50 rows remain buffered.
  all_ok &= Check(flushed == 200, "two micro-batches flushed during ingest");
  auto flush = engine.Flush("census");
  all_ok &= Check(flush.ok() && flush.value().rows_flushed == 50,
                  "flush pushes the 50-row remainder");

  ddup::storage::Table forest_update =
      ddup::storage::InDistributionSample(forest, rng, 0.3);
  auto forest_ingest = engine.Ingest("forest", forest_update);
  all_ok &= Check(forest_ingest.ok(), "forest ingest");
  auto sweep = engine.FlushAll();
  all_ok &= Check(sweep.ok(), "flush all");
  // Only "forest" still holds a remainder ("census" was flushed above).
  all_ok &= Check(sweep.ok() && sweep.value().tables_flushed == 1 &&
                      sweep.value().tables_skipped == 1,
                  "flush-all report: one table flushed, one short-circuited");

  // --- Queries through the facade ------------------------------------------
  Rng qrng(23);
  ddup::workload::NaruWorkloadConfig naru;
  naru.min_filters = 2;
  naru.max_filters = 4;
  auto card_queries =
      ddup::workload::GenerateNonEmptyNaruQueries(census, naru, 12, qrng);
  ddup::workload::AqpWorkloadConfig aqp_config;
  aqp_config.categorical_column = aqp.categorical;
  aqp_config.numeric_column = aqp.numeric;
  auto aqp_queries =
      ddup::workload::GenerateNonEmptyAqpQueries(forest, aqp_config, 12, qrng);

  // One request per table: the DARN serves COUNT estimates, the MDN AQP.
  EstimateRequest card_request;
  card_request.table = "census";
  card_request.queries = ddup::workload::QueryBatch(card_queries);
  EstimateRequest aqp_request;
  aqp_request.kind = EstimateRequest::Kind::kAqp;
  aqp_request.table = "forest";
  aqp_request.queries = ddup::workload::QueryBatch(aqp_queries);

  EstimateRequest wrong_kind = card_request;
  wrong_kind.kind = EstimateRequest::Kind::kAqp;
  all_ok &= Check(!engine.Estimate(wrong_kind).ok(),
                  "darn table refuses AQP estimates");

  // --- Save -> Load, bit-identical -----------------------------------------
  // A sub-threshold trickle right before the save: the accumulator content
  // must survive the round trip (visible as buffered_rows below).
  auto trickle = engine.Ingest("forest", forest.Head(30));
  all_ok &= Check(trickle.ok() && trickle.value().rows_buffered == 30,
                  "trickle buffered, not flushed");
  if (!Check(engine.Save(path).ok(), "save engine")) return 1;
  auto loaded = Engine::Load(path, config);
  if (!Check(loaded.ok(), "load engine")) return 1;

  // Both engines now hold the exact saved state, so every answer must match
  // bit for bit.
  bool identical = true;
  for (const EstimateRequest& request : {card_request, aqp_request}) {
    auto before = engine.Estimate(request);
    auto after = loaded.value()->Estimate(request);
    if (!before.ok() || !after.ok()) return 1;
    identical &= before.value().answers == after.value().answers;
  }
  all_ok &= Check(identical, "reloaded estimates bit-identical");

  for (const auto& name : engine.TableNames()) {
    auto a = engine.Report(name);
    auto b = loaded.value()->Report(name);
    if (!a.ok() || !b.ok()) return 1;
    bool same = a.value().rows == b.value().rows &&
                a.value().buffered_rows == b.value().buffered_rows &&
                a.value().insertions == b.value().insertions &&
                a.value().ood_updates == b.value().ood_updates &&
                a.value().bootstrap_mean == b.value().bootstrap_mean &&
                a.value().bootstrap_std == b.value().bootstrap_std;
    all_ok &= Check(same, ("report round-trips for " + name).c_str());
    std::printf(
        "      %-6s model=%-4s rows=%lld buffered=%lld insertions=%lld "
        "ood=%lld finetunes=%lld stale=%lld\n",
        name.c_str(), a.value().model_kind.c_str(),
        static_cast<long long>(a.value().rows),
        static_cast<long long>(a.value().buffered_rows),
        static_cast<long long>(a.value().insertions),
        static_cast<long long>(a.value().ood_updates),
        static_cast<long long>(a.value().finetunes),
        static_cast<long long>(a.value().kept_stale));
  }

  if (!all_ok) {
    std::printf("engine_smoke: FAILED\n");
    return 1;
  }
  std::printf("engine_smoke: OK\n");
  return 0;
}

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "api/engine.h"
#include "api/model_factory.h"
#include "common/rng.h"
#include "gtest/gtest.h"
#include "io/checkpoint.h"
#include "io/serializer.h"
#include "models/registry.h"
#include "storage/sampling.h"
#include "storage/transforms.h"
#include "workload/generator.h"

namespace ddup::api {
namespace {

// Small conditional table (categorical x, numeric y) shared by the tests;
// swapping the conditional means creates honest OOD batches.
storage::Table MakeConditional(double m0, double m1, int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> codes;
  std::vector<double> y;
  for (int64_t i = 0; i < n; ++i) {
    int k = rng.Bernoulli(0.5) ? 1 : 0;
    codes.push_back(static_cast<int32_t>(k));
    y.push_back(std::clamp(rng.Normal(k == 0 ? m0 : m1, 3.0), 0.0, 100.0));
  }
  storage::Table t("cond");
  t.AddColumn(storage::Column::Categorical("x", codes, {"k0", "k1"}));
  t.AddColumn(storage::Column::Numeric("y", y));
  return t;
}

ModelSpec FastMdnSpec() {
  return {"mdn",
          {{"num_components", "4"},
           {"hidden_width", "16"},
           {"epochs", "4"},
           {"seed", "3"}}};
}

ModelSpec FastDarnSpec() {
  return {"darn",
          {{"hidden_width", "24"},
           {"max_bins", "12"},
           {"epochs", "2"},
           {"seed", "5"}}};
}

EngineConfig FastEngineConfig(int64_t micro_batch) {
  EngineConfig config;
  config.micro_batch_rows = micro_batch;
  config.controller.detector.bootstrap_iterations = 24;
  config.controller.policy.distill.epochs = 1;
  config.controller.policy.finetune_epochs = 1;
  return config;
}

std::string TempPath(const std::string& name) {
  const char* dir = std::getenv("TMPDIR");
  return std::string(dir != nullptr ? dir : "/tmp") + "/" + name;
}

// A single-table request for `queries` on `table`.
EstimateRequest Request(EstimateRequest::Kind kind, const std::string& table,
                        std::vector<workload::Query> queries) {
  EstimateRequest request;
  request.kind = kind;
  request.table = table;
  request.queries = workload::QueryBatch(std::move(queries));
  return request;
}

constexpr EstimateRequest::Kind kCard = EstimateRequest::Kind::kCardinality;
constexpr EstimateRequest::Kind kAqp = EstimateRequest::Kind::kAqp;

workload::Query RangeCountQuery(double lo, double hi) {
  workload::Query q;
  workload::Predicate eq;
  eq.column = 0;
  eq.op = workload::CompareOp::kEq;
  eq.value = 0.0;
  workload::Predicate ge;
  ge.column = 1;
  ge.op = workload::CompareOp::kGe;
  ge.value = lo;
  workload::Predicate le;
  le.column = 1;
  le.op = workload::CompareOp::kLe;
  le.value = hi;
  q.predicates = {eq, ge, le};
  return q;
}

TEST(ModelFactoryTest, RegistersTheFiveBuiltinKinds) {
  std::vector<std::string> kinds = ModelFactory::Global().Kinds();
  for (const char* kind : {"mdn", "darn", "tvae", "spn", "gbdt"}) {
    EXPECT_TRUE(ModelFactory::Global().Has(kind)) << kind;
    EXPECT_NE(std::find(kinds.begin(), kinds.end(), kind), kinds.end());
  }
}

TEST(ModelFactoryTest, UnknownKindAndBadOptionsAreStatuses) {
  storage::Table base = MakeConditional(25, 75, 200, 1);

  auto unknown = ModelFactory::Global().Create("nope", base, {});
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
  EXPECT_NE(unknown.status().message().find("mdn"), std::string::npos)
      << "error should list the registered kinds";

  auto bad_key = ModelFactory::Global().Create(
      "mdn", base, {{"epochz", "4"}});
  EXPECT_EQ(bad_key.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(bad_key.status().message().find("epochz"), std::string::npos);

  auto bad_value = ModelFactory::Global().Create(
      "mdn", base, {{"epochs", "many"}});
  EXPECT_EQ(bad_value.status().code(), StatusCode::kInvalidArgument);

  // Out-of-range values fail instead of silently truncating to int.
  auto truncated = ModelFactory::Global().Create(
      "mdn", base, {{"epochs", "4294967296"}});
  EXPECT_EQ(truncated.status().code(), StatusCode::kInvalidArgument);
  auto non_positive = ModelFactory::Global().Create(
      "mdn", base, {{"hidden_width", "0"}});
  EXPECT_EQ(non_positive.status().code(), StatusCode::kInvalidArgument);

  auto bad_column = ModelFactory::Global().Create(
      "mdn", base, {{"categorical", "nope"}});
  EXPECT_EQ(bad_column.status().code(), StatusCode::kInvalidArgument);

  auto double_register = ModelFactory::Global().Register(
      "mdn", nullptr, nullptr);
  EXPECT_EQ(double_register.code(), StatusCode::kFailedPrecondition);
}

TEST(ModelFactoryTest, AdaptersServeTheUpdatableContract) {
  storage::Table base = MakeConditional(25, 75, 400, 2);

  auto spn = ModelFactory::Global().Create(
      "spn", base, {{"min_instances_slice", "100"}, {"max_bins", "8"}});
  ASSERT_TRUE(spn.ok()) << spn.status().ToString();
  double spn_loss = spn.value()->AverageLoss(base);
  EXPECT_GT(spn_loss, 0.0);
  auto* card = dynamic_cast<core::CardinalityEstimator*>(spn.value().get());
  ASSERT_NE(card, nullptr);
  auto spn_card = card->TryEstimateCardinality(RangeCountQuery(0, 100));
  ASSERT_TRUE(spn_card.ok());
  EXPECT_GT(spn_card.value(), 0.0);
  // Rows drawn from a swapped conditional look less likely under the model.
  storage::Table swapped = MakeConditional(75, 25, 400, 3);
  EXPECT_GT(spn.value()->AverageLoss(swapped), spn_loss);

  auto gbdt = ModelFactory::Global().Create(
      "gbdt", base, {{"target", "x"}, {"num_rounds", "5"}});
  ASSERT_TRUE(gbdt.ok()) << gbdt.status().ToString();
  double err = gbdt.value()->AverageLoss(base);
  EXPECT_GE(err, 0.0);
  EXPECT_LE(err, 1.0);
  // Swapping the class-conditional means inverts the labels the trees
  // learned, so the error rate on the swapped sample must be higher.
  EXPECT_GT(gbdt.value()->AverageLoss(swapped), err);
}

TEST(EngineTest, BadInputsAreRecoverableStatuses) {
  Engine engine(FastEngineConfig(100));
  storage::Table base = MakeConditional(25, 75, 300, 4);

  // Everything before CreateTable: NotFound.
  EXPECT_EQ(engine.AttachModel("t", FastMdnSpec()).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(engine.Ingest("t", base).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.Flush("t").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.Report("t").status().code(), StatusCode::kNotFound);
  const EstimateRequest aqp = Request(kAqp, "t", {RangeCountQuery(0, 100)});
  EXPECT_EQ(engine.Estimate(aqp).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(engine.model("t"), nullptr);

  EXPECT_EQ(engine.CreateTable("", base).code(), StatusCode::kInvalidArgument);
  // ':' is the checkpoint section separator; rejected up front so the
  // engine cannot become un-checkpointable later.
  EXPECT_EQ(engine.CreateTable("a:b", base).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(engine.CreateTable("t", base).ok());
  EXPECT_EQ(engine.CreateTable("t", base).code(),
            StatusCode::kFailedPrecondition);

  // Before AttachModel: ingest/estimates are FailedPrecondition.
  EXPECT_EQ(engine.Ingest("t", base).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(engine.Estimate(aqp).status().code(),
            StatusCode::kFailedPrecondition);

  EXPECT_EQ(engine.AttachModel("t", {"nope", {}}).code(),
            StatusCode::kNotFound);
  EXPECT_EQ(engine.AttachModel("t", {"mdn", {{"bogus", "1"}}}).code(),
            StatusCode::kInvalidArgument);
  ASSERT_TRUE(engine.AttachModel("t", FastMdnSpec()).ok());
  EXPECT_EQ(engine.AttachModel("t", FastMdnSpec()).code(),
            StatusCode::kFailedPrecondition);

  // Schema mismatches are rejected before touching the accumulator.
  storage::Table bad("bad");
  bad.AddColumn(storage::Column::Numeric("z", {1.0}));
  auto rejected = engine.Ingest("t", bad);
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.status().message().find("schema mismatch"),
            std::string::npos);
  auto report = engine.Report("t");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().buffered_rows, 0);

  // An MDN does not serve cardinality estimates.
  auto card = engine.Estimate(Request(kCard, "t", {RangeCountQuery(0, 100)}));
  EXPECT_EQ(card.status().code(), StatusCode::kFailedPrecondition);
  EXPECT_NE(card.status().message().find("mdn"), std::string::npos);

  // Attaching to a rowless table is rejected.
  ASSERT_TRUE(engine.CreateTable("empty", base.TakeRows({})).ok());
  EXPECT_EQ(engine.AttachModel("empty", FastMdnSpec()).code(),
            StatusCode::kFailedPrecondition);

  // FlushAll skips the model-less table (it cannot have buffered rows)
  // instead of failing the sweep, and the report says so.
  auto sweep = engine.FlushAll();
  ASSERT_TRUE(sweep.ok());
  EXPECT_EQ(sweep.value().tables_flushed, 0);
  EXPECT_EQ(sweep.value().tables_skipped, 2);
  EXPECT_EQ(sweep.value().rows_flushed, 0);
  EXPECT_EQ(sweep.value().updates_triggered, 0);
}

TEST(EngineTest, MicroBatchingDecouplesIngestFromDetection) {
  Engine engine(FastEngineConfig(100));
  storage::Table base = MakeConditional(25, 75, 400, 5);
  ASSERT_TRUE(engine.CreateTable("t", base).ok());
  ASSERT_TRUE(engine.AttachModel("t", FastMdnSpec()).ok());

  // Empty batch: a no-op, not an error.
  auto empty = engine.Ingest("t", base.TakeRows({}));
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty.value().rows_flushed, 0);
  EXPECT_EQ(empty.value().rows_buffered, 0);
  EXPECT_TRUE(empty.value().reports.empty());

  // Sub-threshold trickle: buffers, no detection.
  auto trickle = engine.Ingest("t", MakeConditional(25, 75, 60, 6));
  ASSERT_TRUE(trickle.ok());
  EXPECT_EQ(trickle.value().rows_flushed, 0);
  EXPECT_EQ(trickle.value().rows_buffered, 60);
  // cond schema = one categorical (4B code) + one numeric (8B) per row.
  auto buffered = engine.Report("t");
  ASSERT_TRUE(buffered.ok());
  EXPECT_EQ(buffered.value().buffered_bytes, 60 * 12);

  // Oversize batch: 60 buffered + 250 new = 3 micro-batches + 10 left.
  auto oversize = engine.Ingest("t", MakeConditional(25, 75, 250, 7));
  ASSERT_TRUE(oversize.ok());
  EXPECT_EQ(oversize.value().rows_flushed, 300);
  EXPECT_EQ(oversize.value().rows_buffered, 10);
  ASSERT_EQ(oversize.value().reports.size(), 3u);
  for (const auto& r : oversize.value().reports) {
    EXPECT_EQ(r.new_rows, 100);
  }
  // Micro-batches chain: each insertion sees the previous ones' rows.
  EXPECT_EQ(oversize.value().reports[0].old_rows, 400);
  EXPECT_EQ(oversize.value().reports[1].old_rows, 500);
  EXPECT_EQ(oversize.value().reports[2].old_rows, 600);

  // Flush pushes the remainder despite being below the threshold.
  auto flushed = engine.Flush("t");
  ASSERT_TRUE(flushed.ok());
  EXPECT_EQ(flushed.value().rows_flushed, 10);
  EXPECT_EQ(flushed.value().rows_buffered, 0);
  ASSERT_EQ(flushed.value().reports.size(), 1u);

  // Flushing an empty accumulator is a no-op.
  auto again = engine.Flush("t");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(again.value().rows_flushed, 0);
  EXPECT_TRUE(again.value().reports.empty());

  auto report = engine.Report("t");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().rows, 710);
  EXPECT_EQ(report.value().buffered_rows, 0);
  EXPECT_EQ(report.value().insertions, 4);
  EXPECT_EQ(report.value().insertions,
            report.value().ood_updates + report.value().finetunes +
                report.value().kept_stale);
  // Synchronous engines idle at SERVING with no concurrency counters.
  EXPECT_EQ(report.value().state, TableServingState::kServing);
  EXPECT_EQ(report.value().backlog_batches, 0);
  EXPECT_EQ(report.value().async_batches, 0);
  EXPECT_EQ(report.value().snapshot_publishes, 0);
}

TEST(EngineTest, FlushAllReportsWorkAndShortCircuitsEmptyTables) {
  Engine engine(FastEngineConfig(100));
  storage::Table base = MakeConditional(25, 75, 300, 20);
  ASSERT_TRUE(engine.CreateTable("busy", base).ok());
  ASSERT_TRUE(engine.CreateTable("idle", base).ok());
  ASSERT_TRUE(engine.AttachModel("busy", FastMdnSpec()).ok());
  ASSERT_TRUE(engine.AttachModel("idle", FastMdnSpec()).ok());

  // 130 buffered rows on "busy": one full micro-batch flushes at ingest,
  // 30 remain for the sweep; "idle" has nothing.
  ASSERT_TRUE(engine.Ingest("busy", MakeConditional(25, 75, 130, 21)).ok());
  auto sweep = engine.FlushAll();
  ASSERT_TRUE(sweep.ok());
  EXPECT_EQ(sweep.value().tables_flushed, 1);
  EXPECT_EQ(sweep.value().tables_skipped, 1);
  EXPECT_EQ(sweep.value().rows_flushed, 30);
  EXPECT_EQ(sweep.value().updates_triggered, 1);

  // Everything drained: the next sweep touches nothing.
  auto empty = engine.FlushAll();
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(empty.value().tables_flushed, 0);
  EXPECT_EQ(empty.value().tables_skipped, 2);
  EXPECT_EQ(empty.value().updates_triggered, 0);
}

TEST(EngineTest, MultiTableLifecycleWithMixedModelKinds) {
  Engine engine(FastEngineConfig(150));
  storage::Table aqp_base = MakeConditional(25, 75, 400, 8);
  storage::Table card_base = MakeConditional(30, 60, 400, 9);
  ASSERT_TRUE(engine.CreateTable("aqp", aqp_base).ok());
  ASSERT_TRUE(engine.CreateTable("card", card_base).ok());
  ASSERT_TRUE(engine.AttachModel("aqp", FastMdnSpec()).ok());
  ASSERT_TRUE(engine.AttachModel("card", FastDarnSpec()).ok());
  EXPECT_EQ(engine.TableNames(), (std::vector<std::string>{"aqp", "card"}));

  // Updates flow to the right table and only that table.
  ASSERT_TRUE(engine.Ingest("aqp", MakeConditional(25, 75, 150, 10)).ok());
  auto aqp_report = engine.Report("aqp");
  auto card_report = engine.Report("card");
  ASSERT_TRUE(aqp_report.ok() && card_report.ok());
  EXPECT_EQ(aqp_report.value().rows, 550);
  EXPECT_EQ(aqp_report.value().insertions, 1);
  EXPECT_EQ(card_report.value().rows, 400);
  EXPECT_EQ(card_report.value().insertions, 0);
  EXPECT_EQ(aqp_report.value().model_kind, "mdn");
  EXPECT_EQ(card_report.value().model_kind, "darn");

  auto aqp_est =
      engine.Estimate(Request(kAqp, "aqp", {RangeCountQuery(20, 80)}));
  ASSERT_TRUE(aqp_est.ok()) << aqp_est.status().ToString();
  EXPECT_GT(aqp_est.value().answers[0], 0.0);
  auto card_est =
      engine.Estimate(Request(kCard, "card", {RangeCountQuery(20, 80)}));
  ASSERT_TRUE(card_est.ok()) << card_est.status().ToString();
  EXPECT_GT(card_est.value().answers[0], 0.0);

  // Malformed queries come back as InvalidArgument, not a crash.
  workload::Query bad = RangeCountQuery(20, 80);
  bad.predicates[0].column = 99;
  EXPECT_EQ(engine.Estimate(Request(kCard, "card", {bad})).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(engine.Estimate(Request(kAqp, "aqp", {bad})).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(EngineTest, SaveLoadRoundTripsBitIdentically) {
  std::string path = TempPath("engine_test.ckpt");
  EngineConfig config = FastEngineConfig(120);
  Engine engine(config);
  storage::Table aqp_base = MakeConditional(25, 75, 400, 11);
  storage::Table card_base = MakeConditional(30, 60, 400, 12);
  ASSERT_TRUE(engine.CreateTable("aqp", aqp_base).ok());
  ASSERT_TRUE(engine.CreateTable("card", card_base).ok());
  ASSERT_TRUE(engine.AttachModel("aqp", FastMdnSpec()).ok());
  ASSERT_TRUE(engine.AttachModel("card", FastDarnSpec()).ok());
  // One flushed micro-batch each plus a buffered trickle on "aqp", so the
  // snapshot holds mid-stream state on every axis.
  ASSERT_TRUE(engine.Ingest("aqp", MakeConditional(75, 25, 120, 13)).ok());
  ASSERT_TRUE(engine.Ingest("card", MakeConditional(30, 60, 120, 14)).ok());
  ASSERT_TRUE(engine.Ingest("aqp", MakeConditional(25, 75, 40, 15)).ok());

  ASSERT_TRUE(engine.Save(path).ok());
  auto loaded = Engine::Load(path, config);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // Estimates over both tables are bit-identical.
  std::vector<workload::Query> queries;
  for (int i = 0; i < 8; ++i) {
    queries.push_back(RangeCountQuery(10.0 + i * 5, 60.0 + i * 5));
  }
  for (const EstimateRequest& request :
       {Request(kAqp, "aqp", queries), Request(kCard, "card", queries)}) {
    auto a = engine.Estimate(request);
    auto b = loaded.value()->Estimate(request);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a.value().answers, b.value().answers) << request.table;
  }

  // Detector state, counters and the accumulator round-trip exactly.
  for (const std::string& name : engine.TableNames()) {
    auto a = engine.Report(name);
    auto b = loaded.value()->Report(name);
    ASSERT_TRUE(a.ok() && b.ok());
    EXPECT_EQ(a.value().rows, b.value().rows);
    EXPECT_EQ(a.value().buffered_rows, b.value().buffered_rows);
    EXPECT_EQ(a.value().micro_batch_rows, b.value().micro_batch_rows);
    EXPECT_EQ(a.value().insertions, b.value().insertions);
    EXPECT_EQ(a.value().ood_updates, b.value().ood_updates);
    EXPECT_EQ(a.value().finetunes, b.value().finetunes);
    EXPECT_EQ(a.value().kept_stale, b.value().kept_stale);
    EXPECT_EQ(a.value().bootstrap_mean, b.value().bootstrap_mean);
    EXPECT_EQ(a.value().bootstrap_std, b.value().bootstrap_std);
    EXPECT_EQ(a.value().model_kind, b.value().model_kind);
  }
  auto buffered = loaded.value()->Report("aqp");
  ASSERT_TRUE(buffered.ok());
  EXPECT_EQ(buffered.value().buffered_rows, 40);

  // The live and the restored engine continue identically: flushing the
  // buffered trickle produces the same detector decision and statistic.
  auto cont_a = engine.Flush("aqp");
  auto cont_b = loaded.value()->Flush("aqp");
  ASSERT_TRUE(cont_a.ok() && cont_b.ok());
  ASSERT_EQ(cont_a.value().reports.size(), 1u);
  ASSERT_EQ(cont_b.value().reports.size(), 1u);
  EXPECT_EQ(cont_a.value().reports[0].test.statistic,
            cont_b.value().reports[0].test.statistic);
  EXPECT_EQ(cont_a.value().reports[0].test.is_ood,
            cont_b.value().reports[0].test.is_ood);
  EXPECT_EQ(cont_a.value().reports[0].action, cont_b.value().reports[0].action);

  std::remove(path.c_str());
}

TEST(EngineTest, DetectorKindSelectableViaTableOptions) {
  Engine engine(FastEngineConfig(100));
  storage::Table base = MakeConditional(25, 75, 400, 16);

  // Unknown kinds fail fast at CreateTable, listing the registered ones.
  TableOptions bad;
  bad.detector = "nope";
  auto rejected = engine.CreateTable("bad", base, bad);
  EXPECT_EQ(rejected.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(rejected.message().find("bootstrap"), std::string::npos);

  // Empty option resolves to the engine default; a named option wins.
  TableOptions cusum;
  cusum.detector = "cusum";
  ASSERT_TRUE(engine.CreateTable("seq", base, cusum).ok());
  ASSERT_TRUE(engine.CreateTable("dflt", base).ok());
  ASSERT_TRUE(engine.AttachModel("seq", FastMdnSpec()).ok());
  ASSERT_TRUE(engine.AttachModel("dflt", FastMdnSpec()).ok());
  auto seq_report = engine.Report("seq");
  auto dflt_report = engine.Report("dflt");
  ASSERT_TRUE(seq_report.ok() && dflt_report.ok());
  EXPECT_EQ(seq_report.value().detector_kind, "cusum");
  EXPECT_EQ(dflt_report.value().detector_kind, "bootstrap");

  // The full ingest/detect/update loop runs through the named detector.
  auto ingest = engine.Ingest("seq", MakeConditional(25, 75, 200, 17));
  ASSERT_TRUE(ingest.ok());
  EXPECT_EQ(ingest.value().rows_flushed, 200);
  ASSERT_EQ(ingest.value().reports.size(), 2u);
  auto after = engine.Report("seq");
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after.value().insertions, 2);
  EXPECT_EQ(after.value().detector_kind, "cusum");
}

TEST(EngineTest, NamedDetectorSurvivesSaveLoad) {
  std::string path = TempPath("engine_test_detector.ckpt");
  EngineConfig config = FastEngineConfig(100);
  Engine engine(config);
  storage::Table base = MakeConditional(25, 75, 400, 18);
  TableOptions options;
  options.detector = "percolumn_cusum";
  ASSERT_TRUE(engine.CreateTable("t", base, options).ok());
  ASSERT_TRUE(engine.AttachModel("t", FastMdnSpec()).ok());
  // One flushed micro-batch plus a buffered trickle: the snapshot carries
  // live sequential detector state, not just the kind string.
  ASSERT_TRUE(engine.Ingest("t", MakeConditional(25, 75, 100, 19)).ok());
  ASSERT_TRUE(engine.Ingest("t", MakeConditional(25, 75, 40, 20)).ok());

  ASSERT_TRUE(engine.Save(path).ok());
  // The restoring config names a different default detector: the manifest's
  // per-table kind must win over it.
  EngineConfig other_default = config;
  other_default.controller.detector.kind = "adwin";
  auto loaded = Engine::Load(path, other_default);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  auto report = loaded.value()->Report("t");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().detector_kind, "percolumn_cusum");
  EXPECT_EQ(report.value().buffered_rows, 40);

  // Both engines continue identically through the restored detector.
  auto cont_a = engine.Flush("t");
  auto cont_b = loaded.value()->Flush("t");
  ASSERT_TRUE(cont_a.ok() && cont_b.ok());
  ASSERT_EQ(cont_a.value().reports.size(), 1u);
  ASSERT_EQ(cont_b.value().reports.size(), 1u);
  EXPECT_EQ(cont_a.value().reports[0].test.statistic,
            cont_b.value().reports[0].test.statistic);
  EXPECT_EQ(cont_a.value().reports[0].test.is_ood,
            cont_b.value().reports[0].test.is_ood);
  EXPECT_EQ(cont_a.value().reports[0].action, cont_b.value().reports[0].action);
  std::remove(path.c_str());
}

storage::Table OneColumn(const std::string& column,
                         std::vector<double> values) {
  storage::Table t("t");
  t.AddColumn(storage::Column::Numeric(column, std::move(values)));
  return t;
}

// One model-less table of a hand-built engine manifest.
struct ManifestTable {
  std::string name;
  storage::Table base;
  storage::Table pending;
};

// Writes `path` as a checkpoint whose only section is an engine manifest of
// `version` listing `tables`, in the layout Engine::Save writes (version 4
// carried a codec name after the version word).
void WriteManifestCheckpoint(const std::string& path, uint32_t version,
                             const std::vector<ManifestTable>& tables) {
  io::Serializer manifest;
  manifest.WriteU32(version);
  if (version == 4) manifest.WriteString("lz");
  manifest.WriteU32(static_cast<uint32_t>(tables.size()));
  for (const ManifestTable& table : tables) {
    manifest.WriteString(table.name);
    manifest.WriteString("");  // model kind, then no model options
    manifest.WriteU32(0);
    manifest.WriteI64(100);  // micro_batch_rows
    manifest.WriteString("bootstrap");
    manifest.WriteI64(0);  // update priority
    // Four action counters, then detect and update seconds.
    for (int i = 0; i < 4; ++i) manifest.WriteI64(0);
    manifest.WriteDouble(0.0);
    manifest.WriteDouble(0.0);
    manifest.WriteTable(table.base);
    manifest.WriteTable(table.pending);
    manifest.WriteBool(false);  // no model
  }
  io::CheckpointWriter writer;
  writer.AddSection("engine", manifest.Take());
  ASSERT_TRUE(writer.WriteToFile(path).ok());
}

TEST(EngineTest, LoadRejectsMissingAndCorruptFiles) {
  const EngineConfig config = FastEngineConfig(100);
  auto missing =
      Engine::Load(TempPath("engine_test_does_not_exist.ckpt"), config);
  EXPECT_FALSE(missing.ok());

  std::string path = TempPath("engine_test_corrupt.ckpt");
  std::FILE* f = std::fopen(path.c_str(), "wb");
  ASSERT_NE(f, nullptr);
  std::fputs("not a checkpoint", f);
  std::fclose(f);
  auto corrupt = Engine::Load(path, config);
  EXPECT_FALSE(corrupt.ok());
  std::remove(path.c_str());

  // Hand-built manifests, one model-less table whose base has column 'a'.
  // The well-formed one loads with its buffered row; every other input
  // breaks a rule CreateTable or Ingest enforces and must fail typed,
  // naming the table, instead of aborting or loading.
  const std::string manifest_path = TempPath("engine_test_manifest.ckpt");
  const storage::Table base = OneColumn("a", {1.0, 2.0});
  const storage::Table none = base.TakeRows({});
  const std::vector<ManifestTable> good = {{"t", base, OneColumn("a", {3.0})}};
  WriteManifestCheckpoint(manifest_path, 5, good);
  auto control = Engine::Load(manifest_path, config);
  ASSERT_TRUE(control.ok()) << control.status().ToString();
  EXPECT_EQ(control.value()->Report("t").value().buffered_rows, 1);

  auto expect_rejected = [&](const std::vector<ManifestTable>& tables) {
    const std::string name = tables.back().name;
    WriteManifestCheckpoint(manifest_path, 5, tables);
    auto loaded = Engine::Load(manifest_path, config);
    ASSERT_FALSE(loaded.ok()) << "table '" << name << "'";
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(loaded.status().message().find("table '" + name + "'"),
              std::string::npos)
        << loaded.status().ToString();
  };
  // Buffered rows with column 'b' instead of 'a'.
  expect_rejected({{"t", base, OneColumn("b", {3.0})}});
  // A NaN among the buffered rows, then in the base rows.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  expect_rejected({{"t", base, OneColumn("a", {nan})}});
  expect_rejected({{"t", OneColumn("a", {nan}), none}});
  // A repeated name, and the names CreateTable refuses.
  expect_rejected({{"t", base, none}, {"t", base, none}});
  expect_rejected({{"a:b", base, none}});
  expect_rejected({{"", base, none}});
  std::remove(manifest_path.c_str());
}

TEST(EngineTest, EstimateRequestShapesAndErrors) {
  Engine engine(FastEngineConfig(100));
  storage::Table base = MakeConditional(25, 75, 300, 4);
  ASSERT_TRUE(engine.CreateTable("card", base).ok());
  ASSERT_TRUE(engine.AttachModel("card", FastDarnSpec()).ok());
  ASSERT_TRUE(engine.CreateTable("aqp", base).ok());
  ASSERT_TRUE(engine.AttachModel("aqp", FastMdnSpec()).ok());

  // Batch errors name the failing query's index.
  workload::Query bad;
  bad.predicates.push_back({99, workload::CompareOp::kEq, 0.0});
  auto batch_err =
      engine.Estimate(Request(kCard, "card", {RangeCountQuery(10, 40), bad}));
  ASSERT_FALSE(batch_err.ok());
  EXPECT_EQ(batch_err.status().message().rfind("query 1: ", 0), 0u)
      << batch_err.status().ToString();

  // Unknown tables, including the empty name, are NotFound.
  EstimateRequest unknown;
  unknown.table = "nope";
  EXPECT_EQ(engine.Estimate(unknown).status().code(), StatusCode::kNotFound);
  EstimateRequest unnamed;
  EXPECT_EQ(engine.Estimate(unnamed).status().code(), StatusCode::kNotFound);

  // A request populating both the single-table and join shapes is malformed.
  EstimateRequest both = Request(kCard, "card", {RangeCountQuery(10, 40)});
  workload::JoinQuery join;
  join.joins.push_back({"card", "y", "aqp", "y"});
  both.joins.Add(join);
  auto rejected = engine.Estimate(both);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kInvalidArgument);

  // An empty single-table batch answers with an empty vector.
  EstimateRequest empty;
  empty.table = "card";
  auto none = engine.Estimate(empty);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none.value().answers.empty());
}

TEST(EngineTest, NonFiniteRowsAreRefusedAtTheBoundary) {
  // A NaN or infinite numeric value would train into the model and abort a
  // later estimate; CreateTable and Ingest refuse it before any row is
  // buffered.
  Engine engine(FastEngineConfig(64));
  storage::Table base = MakeConditional(25, 75, 300, 40);
  ASSERT_TRUE(engine.CreateTable("t", base).ok());
  ASSERT_TRUE(engine.AttachModel("t", FastMdnSpec()).ok());
  // A buffered trickle the refused batches must leave untouched.
  ASSERT_TRUE(engine.Ingest("t", MakeConditional(25, 75, 10, 41)).ok());

  for (double poison : {std::numeric_limits<double>::quiet_NaN(),
                        std::numeric_limits<double>::infinity(),
                        -std::numeric_limits<double>::infinity()}) {
    storage::Table batch = MakeConditional(25, 75, 64, 42);
    (*batch.mutable_column(1)->mutable_numeric_values())[17] = poison;
    auto refused = engine.Ingest("t", batch);
    ASSERT_FALSE(refused.ok()) << poison;
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(refused.status().message().find("column 'y' row 17"),
              std::string::npos)
        << refused.status().ToString();
    auto report = engine.Report("t");
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(report.value().buffered_rows, 10);
    EXPECT_EQ(report.value().rows, 300);
    EXPECT_EQ(report.value().insertions, 0);

    storage::Table bad_base = base;
    (*bad_base.mutable_column(1)->mutable_numeric_values())[3] = poison;
    Status created = engine.CreateTable("bad", bad_base);
    EXPECT_EQ(created.code(), StatusCode::kInvalidArgument);
    EXPECT_NE(created.message().find("column 'y' row 3"), std::string::npos)
        << created.ToString();
    EXPECT_FALSE(engine.HasTable("bad"));
  }

  // The model never saw the poison: a full flush plus estimates stay finite.
  ASSERT_TRUE(engine.Ingest("t", MakeConditional(25, 75, 64, 43)).ok());
  ASSERT_TRUE(engine.Flush("t").ok());
  auto est = engine.Estimate(
      Request(kAqp, "t", {RangeCountQuery(0, 100), RangeCountQuery(20, 40)}));
  ASSERT_TRUE(est.ok()) << est.status().ToString();
  for (double answer : est.value().answers) EXPECT_TRUE(std::isfinite(answer));
}

TEST(EngineTest, LoadRejectsRetiredManifestVersions) {
  // A v3 manifest (no codec name) and a v4 one (a codec name after the
  // version word) inside a current container: Load reads v5 only.
  const std::string path = TempPath("engine_test_retired_manifest.ckpt");
  for (uint32_t version : {3u, 4u}) {
    WriteManifestCheckpoint(path, version, {});
    auto loaded = Engine::Load(path, FastEngineConfig(100));
    ASSERT_FALSE(loaded.ok()) << "manifest v" << version;
    EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
    const std::string want =
        "unsupported engine manifest version " + std::to_string(version);
    EXPECT_NE(loaded.status().message().find(want), std::string::npos)
        << loaded.status().ToString();
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ddup::api

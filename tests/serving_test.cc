// Engine-side serving controls (DESIGN.md §15): admission control pinned
// per policy — block stalls the producer, shed returns the typed
// [admission:shed] Status without buffering, coalesce merges the pile into
// one group task with byte-identical models — the update-priority
// scheduler, and a TSan-able stress of concurrent joins against saturated
// ingest.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "api/model_factory.h"
#include "api/router.h"
#include "common/rng.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "gtest/gtest.h"
#include "io/serializer.h"
#include "serving/admission.h"
#include "storage/column.h"
#include "storage/table.h"
#include "workload/join_query.h"
#include "workload/query.h"

namespace ddup::serving {
namespace {

using api::Engine;
using api::EngineConfig;
using api::ModelSpec;

// --- Shared fixtures (the engine_concurrency_test idiom) -------------------

storage::Table MakeConditional(double m0, double m1, int64_t n,
                               uint64_t seed) {
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
           {"epochs", "2"},
           {"seed", "3"}}};
}

ModelSpec FastSpnSpec() {
  return {"spn",
          {{"min_instances_slice", "64"}, {"max_bins", "16"}, {"seed", "7"}}};
}

EngineConfig FastEngineConfig(int64_t micro_batch, int update_workers) {
  EngineConfig config;
  config.micro_batch_rows = micro_batch;
  config.update_workers = update_workers;
  config.controller.detector.bootstrap_iterations = 16;
  config.controller.policy.distill.epochs = 1;
  config.controller.policy.finetune_epochs = 1;
  return config;
}

workload::Query AqpRangeQuery(double lo, double hi) {
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

std::string ModelStateBytes(core::UpdatableModel* model) {
  EXPECT_NE(model, nullptr);
  if (model == nullptr) return "";
  io::Serializer out;
  Status st = model->SaveState(&out);
  EXPECT_TRUE(st.ok()) << st.ToString();
  return out.Take();
}

storage::Table Dim(const std::string& name, const std::string& key,
                   int64_t n) {
  std::vector<double> keys, payload;
  for (int64_t i = 0; i < n; ++i) {
    keys.push_back(static_cast<double>(i));
    payload.push_back(static_cast<double>(i % 7));
  }
  storage::Table t(name);
  t.AddColumn(storage::Column::Numeric(key, keys));
  t.AddColumn(storage::Column::Numeric("payload", payload));
  return t;
}

storage::Table Fact(int64_t rows, int64_t keys_a, int64_t keys_b) {
  std::vector<double> fk_a, fk_b, measure;
  for (int64_t i = 0; i < rows; ++i) {
    fk_a.push_back(static_cast<double>(i % keys_a));
    fk_b.push_back(static_cast<double>((i / 3) % keys_b));
    measure.push_back(static_cast<double>(i % 10));
  }
  storage::Table t("fact");
  t.AddColumn(storage::Column::Numeric("fk_a", fk_a));
  t.AddColumn(storage::Column::Numeric("fk_b", fk_b));
  t.AddColumn(storage::Column::Numeric("measure", measure));
  return t;
}

workload::JoinEdge Edge(const std::string& lt, const std::string& lc,
                        const std::string& rt, const std::string& rc) {
  workload::JoinEdge e;
  e.left_table = lt;
  e.left_column = lc;
  e.right_table = rt;
  e.right_column = rc;
  return e;
}

workload::BoundPredicate Pred(const std::string& table, int column,
                              workload::CompareOp op, double value) {
  workload::BoundPredicate p;
  p.table = table;
  p.predicate.column = column;
  p.predicate.op = op;
  p.predicate.value = value;
  return p;
}

// The star join used by the stress test: fact ⋈ dim_a ⋈ dim_b with a
// predicate on the fact table.
workload::JoinQuery StarQuery(double measure_le) {
  workload::JoinQuery q;
  q.joins = {Edge("fact", "fk_a", "dim_a", "id_a"),
             Edge("fact", "fk_b", "dim_b", "id_b")};
  q.predicates = {Pred("fact", 2, workload::CompareOp::kLe, measure_le)};
  return q;
}

// --- Update-priority scheduling (thread-pool layer) ------------------------

TEST(PrioritySchedulerTest, HigherPriorityStrandsRunFirst) {
  // Pause a 1-worker executor, queue strands at priorities 0/5/2, resume:
  // the worker must drain them in strict priority order.
  TaskExecutor executor(1);
  executor.Pause();
  std::vector<std::string> order;
  std::mutex order_mu;
  auto record = [&](const std::string& who) {
    return [&, who]() {
      std::lock_guard<std::mutex> lock(order_mu);
      order.push_back(who);
    };
  };
  executor.Submit("cold", 0, record("cold"));
  executor.Submit("hot", 5, record("hot"));
  executor.Submit("warm", 2, record("warm"));
  executor.Resume();
  executor.Drain();
  ASSERT_EQ(order.size(), 3u);
  EXPECT_EQ(order[0], "hot");
  EXPECT_EQ(order[1], "warm");
  EXPECT_EQ(order[2], "cold");
}

// --- Admission policies ----------------------------------------------------

TEST(AdmissionTest, RegistryAndTypedShedStatus) {
  EXPECT_EQ(RegisteredAdmissionPolicies(),
            (std::vector<std::string>{"block", "coalesce", "shed"}));
  for (const std::string& name : RegisteredAdmissionPolicies()) {
    const AdmissionPolicy* policy = FindAdmissionPolicy(name);
    ASSERT_NE(policy, nullptr) << name;
    EXPECT_EQ(policy->name(), name);
  }
  EXPECT_EQ(FindAdmissionPolicy("nope"), nullptr);
  EXPECT_EQ(std::string(kDefaultAdmissionPolicy), "block");

  Status shed = MakeShedError("t", 4, 4);
  EXPECT_EQ(shed.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(shed.message().find("[admission:shed]"), std::string::npos);
  EXPECT_TRUE(IsAdmissionShed(shed));
  EXPECT_FALSE(IsAdmissionShed(Status::ResourceExhausted("no tag")));
  EXPECT_FALSE(IsAdmissionShed(Status::InvalidArgument("[admission:shed]")));
  EXPECT_FALSE(IsAdmissionShed(Status::OK()));
}

TEST(AdmissionTest, UnknownPolicySurfacesOnFirstBoundedIngest) {
  EngineConfig config = FastEngineConfig(100, /*update_workers=*/1);
  config.max_backlog_batches = 1;
  config.admission_policy = "definitely-not-a-policy";
  Engine engine(config);
  ASSERT_TRUE(engine.CreateTable("t", MakeConditional(25, 75, 200, 1)).ok());
  ASSERT_TRUE(engine.AttachModel("t", FastMdnSpec()).ok());
  auto result = engine.Ingest("t", MakeConditional(25, 75, 10, 2));
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(result.status().message().find("block, coalesce, shed"),
            std::string::npos);
}

TEST(AdmissionTest, BlockPolicyStallsTheProducerUntilAWorkerDrains) {
  EngineConfig config = FastEngineConfig(100, /*update_workers=*/1);
  config.max_backlog_batches = 1;
  config.admission_policy = "block";
  Engine engine(config);
  ASSERT_TRUE(engine.CreateTable("t", MakeConditional(25, 75, 200, 11)).ok());
  ASSERT_TRUE(engine.AttachModel("t", FastMdnSpec()).ok());

  // Freeze the worker so saturation is deterministic, then fill the bound.
  engine.PauseUpdates();
  auto first = engine.Ingest("t", MakeConditional(25, 75, 100, 12));
  ASSERT_TRUE(first.ok());
  EXPECT_EQ(first.value().rows_enqueued, 100);
  EXPECT_EQ(first.value().backlog_batches, 1);

  // The second full batch finds the backlog at the bound: the block policy
  // stalls the CALLER (engine-side), not the caller's poll loop.
  std::atomic<bool> unblocked{false};
  std::thread producer([&] {
    auto second = engine.Ingest("t", MakeConditional(25, 75, 100, 13));
    EXPECT_TRUE(second.ok()) << second.status().ToString();
    unblocked.store(true, std::memory_order_release);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(unblocked.load(std::memory_order_acquire));
  // The stall holds the admission wait point, NOT the table mutex: reads
  // stay responsive while the producer is blocked.
  auto report = engine.Report("t");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().backlog_batches, 1);
  EXPECT_EQ(report.value().sheds, 0);

  engine.ResumeUpdates();
  producer.join();
  EXPECT_TRUE(unblocked.load());
  auto flushed = engine.Flush("t");
  ASSERT_TRUE(flushed.ok());
  report = engine.Report("t");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().async_batches, 2);
  EXPECT_EQ(report.value().rows, 400);
}

TEST(AdmissionTest, ShedPolicyRefusesWithTypedStatusAndBuffersNothing) {
  EngineConfig config = FastEngineConfig(100, /*update_workers=*/1);
  config.max_backlog_batches = 1;
  config.admission_policy = "shed";
  Engine engine(config);
  ASSERT_TRUE(engine.CreateTable("t", MakeConditional(25, 75, 200, 21)).ok());
  ASSERT_TRUE(engine.AttachModel("t", FastMdnSpec()).ok());

  engine.PauseUpdates();
  ASSERT_TRUE(engine.Ingest("t", MakeConditional(25, 75, 100, 22)).ok());

  // Saturated: the call is refused whole, before any row is buffered.
  storage::Table retry_batch = MakeConditional(25, 75, 100, 23);
  auto shed = engine.Ingest("t", retry_batch);
  ASSERT_FALSE(shed.ok());
  EXPECT_EQ(shed.status().code(), StatusCode::kResourceExhausted);
  EXPECT_TRUE(IsAdmissionShed(shed.status())) << shed.status().ToString();
  EXPECT_NE(shed.status().message().find("table 't'"), std::string::npos);
  auto report = engine.Report("t");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().sheds, 1);
  EXPECT_EQ(report.value().buffered_rows, 0);  // nothing half-ingested

  // A shed is a refusal, not a failure: nothing goes sticky, and the same
  // batch retries cleanly once the workers drain.
  engine.ResumeUpdates();
  ASSERT_TRUE(engine.Flush("t").ok());
  auto retried = engine.Ingest("t", retry_batch);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  ASSERT_TRUE(engine.Flush("t").ok());
  report = engine.Report("t");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().rows, 400);
  EXPECT_EQ(report.value().async_batches, 2);
  EXPECT_EQ(report.value().sheds, 1);
}

TEST(AdmissionTest, CoalesceGroupsAreByteIdenticalToUnbatchedIngest) {
  // Coalesce: one Ingest worth 4 micro-batches becomes ONE group task (one
  // queue entry, one snapshot publish) that still runs the DDUp loop once
  // per micro-batch — so the final model is byte-identical to the
  // synchronous engine eating the same stream.
  EngineConfig coalesce_config = FastEngineConfig(100, /*update_workers=*/1);
  coalesce_config.max_backlog_batches = 1;
  coalesce_config.admission_policy = "coalesce";
  Engine coalesced(coalesce_config);
  Engine unbatched(FastEngineConfig(100, /*update_workers=*/0));
  for (Engine* engine : {&coalesced, &unbatched}) {
    ASSERT_TRUE(
        engine->CreateTable("t", MakeConditional(25, 75, 200, 31)).ok());
    ASSERT_TRUE(engine->AttachModel("t", FastMdnSpec()).ok());
  }

  storage::Table stream = MakeConditional(70, 30, 400, 32);
  auto grouped = coalesced.Ingest("t", stream);
  ASSERT_TRUE(grouped.ok());
  EXPECT_EQ(grouped.value().rows_enqueued, 400);
  ASSERT_TRUE(coalesced.Flush("t").ok());
  ASSERT_TRUE(unbatched.Ingest("t", stream).ok());
  ASSERT_TRUE(unbatched.Flush("t").ok());

  auto report = coalesced.Report("t");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().async_batches, 4);
  EXPECT_EQ(report.value().coalesced_groups, 1);
  // One publish for the attach, ONE for the whole group (not four).
  EXPECT_EQ(report.value().snapshot_publishes, 2);

  EXPECT_EQ(ModelStateBytes(coalesced.model("t")),
            ModelStateBytes(unbatched.model("t")));
  api::EstimateRequest request;
  request.kind = api::EstimateRequest::Kind::kAqp;
  request.table = "t";
  for (int i = 0; i < 4; ++i) {
    request.queries.Add(AqpRangeQuery(5.0 + i * 9, 60.0 + i * 8));
  }
  auto a = coalesced.Estimate(request);
  auto b = unbatched.Estimate(request);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a.value().answers, b.value().answers);
}

// --- Stress (the TSan leg runs this under instrumentation) -----------------

TEST(ServingStressTest, ConcurrentJoinsAgainstSaturatedIngest) {
  EngineConfig config = FastEngineConfig(120, /*update_workers=*/1);
  config.max_backlog_batches = 1;  // saturates constantly
  config.admission_policy = "shed";
  Engine engine(config);

  ASSERT_TRUE(engine.CreateTable("fact", Fact(240, 8, 5)).ok());
  ASSERT_TRUE(engine.CreateTable("dim_a", Dim("dim_a", "id_a", 8)).ok());
  ASSERT_TRUE(engine.CreateTable("dim_b", Dim("dim_b", "id_b", 5)).ok());
  ASSERT_TRUE(engine.AttachModel("fact", FastSpnSpec()).ok());

  std::atomic<bool> done{false};
  std::atomic<bool> failed{false};
  std::atomic<int64_t> sheds{0};
  std::atomic<int64_t> joins_served{0};

  // Producer: hammers the fact table's bounded backlog; typed sheds are
  // expected and retried, anything else is a real failure.
  std::thread producer([&] {
    for (int i = 0; i < 24; ++i) {
      auto result = engine.Ingest("fact", Fact(120, 8, 5));
      if (!result.ok()) {
        if (IsAdmissionShed(result.status())) {
          sheds.fetch_add(1);
        } else {
          failed.store(true);
        }
      }
    }
    done.store(true, std::memory_order_release);
  });
  // Readers: join estimates and reports against the saturated ingest, each
  // join reading the fact table's published snapshot while the update
  // worker republishes it.
  // Each runs a floor of 20 iterations (so joins always overlap SOME
  // engine state churn even if the producer finishes first) and then keeps
  // going until the producer is done.
  std::vector<std::thread> readers;
  for (int r = 0; r < 2; ++r) {
    readers.emplace_back([&, r] {
      api::EstimateRequest request;
      request.joins.Add(StarQuery(5.0 + r));
      for (int i = 0; i < 20 || !done.load(std::memory_order_acquire); ++i) {
        auto response = engine.Estimate(request);
        if (!response.ok() || response.value().answers.size() != 1 ||
            !std::isfinite(response.value().answers[0])) {
          failed.store(true);
        } else {
          joins_served.fetch_add(1);
        }
        auto report = engine.Report("fact");
        if (!report.ok()) failed.store(true);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
      }
    });
  }
  producer.join();
  for (auto& t : readers) t.join();

  ASSERT_TRUE(engine.FlushAll().ok());
  EXPECT_FALSE(failed.load());
  EXPECT_GT(joins_served.load(), 0);
  auto report = engine.Report("fact");
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().sheds, sheds.load());
  EXPECT_EQ(report.value().backlog_batches, 0);
}

}  // namespace
}  // namespace ddup::serving

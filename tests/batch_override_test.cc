// Model batch overrides vs the scalar spec (DESIGN.md §13, crex-style): the
// scalar estimator path is the spec, and every model's TryEstimate*Batch
// override must agree with it BYTE FOR BYTE — same doubles, same error
// codes, same error messages — across model kinds, batch sizes, seeds and
// query mixes. The reference for a batch is the scalar call per query plus
// the interface's default loop, called by its qualified name so the
// override is bypassed.
//
// Also pinned here: batch-size independence (the per-query RNG stream is
// derived from the query fingerprint, so an answer cannot depend on batch
// position or on what else shares the batch), both on the models and as a
// seeded property through Engine::Estimate; the lock-free concurrent reader
// path (run under TSan in CI); and the DARN batch core's zero-heap-alloc
// steady state via MatrixPool counters.

#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "api/engine.h"
#include "api/model_factory.h"
#include "common/rng.h"
#include "core/interfaces.h"
#include "gtest/gtest.h"
#include "models/registry.h"
#include "nn/pool.h"
#include "storage/table.h"
#include "workload/query.h"

namespace ddup {
namespace {

using api::EstimateRequest;

// Bitwise equality: the contract is byte-identity, not tolerance.
testing::AssertionResult BitEqual(double a, double b) {
  if (std::memcmp(&a, &b, sizeof(double)) == 0) {
    return testing::AssertionSuccess();
  }
  return testing::AssertionFailure()
         << a << " and " << b << " differ in bits";
}

storage::Table MakeBase(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<int32_t> x, z;
  std::vector<double> y;
  for (int64_t i = 0; i < n; ++i) {
    int k = rng.Bernoulli(0.5) ? 1 : 0;
    x.push_back(static_cast<int32_t>(k));
    z.push_back(static_cast<int32_t>(rng.UniformInt(0, 3)));
    y.push_back(rng.Normal(k == 0 ? 30.0 : 70.0, 10.0));
  }
  storage::Table t("base");
  t.AddColumn(storage::Column::Categorical("x", x, {"k0", "k1"}));
  t.AddColumn(storage::Column::Categorical("z", z, {"a", "b", "c", "d"}));
  t.AddColumn(storage::Column::Numeric("y", y));
  return t;
}

// A mixed bag of cardinality queries: point/range/open-ended, duplicates
// (the same query twice must get the same answer — content-keyed streams),
// and an unsatisfiable range (served as 0 with no RNG draws).
std::vector<workload::Query> CardQueries() {
  auto q = [](std::vector<workload::Predicate> ps) {
    workload::Query query;
    query.predicates = std::move(ps);
    return query;
  };
  auto p = [](int col, workload::CompareOp op, double v) {
    workload::Predicate pred;
    pred.column = col;
    pred.op = op;
    pred.value = v;
    return pred;
  };
  using Op = workload::CompareOp;
  std::vector<workload::Query> queries = {
      q({p(0, Op::kEq, 0.0)}),
      q({p(0, Op::kEq, 1.0), p(2, Op::kGe, 40.0)}),
      q({p(2, Op::kGe, 20.0), p(2, Op::kLe, 60.0)}),
      q({p(1, Op::kEq, 2.0), p(2, Op::kLe, 50.0)}),
      q({p(0, Op::kEq, 0.0), p(1, Op::kEq, 3.0), p(2, Op::kGe, 25.0)}),
      q({p(2, Op::kGe, 80.0), p(2, Op::kLe, 20.0)}),  // unsatisfiable
      q({}),                                          // no predicates
      q({p(2, Op::kLe, 35.0)}),
  };
  queries.push_back(queries[1]);  // exact duplicate in one batch
  return queries;
}

// DBEst++-template AQP queries over (x, y), one duplicate.
std::vector<workload::Query> AqpQueries() {
  auto aqp_query = [](int cat, double lo, double hi, workload::AggFunc agg) {
    workload::Query q;
    q.predicates = {{0, workload::CompareOp::kEq, static_cast<double>(cat)},
                    {2, workload::CompareOp::kGe, lo},
                    {2, workload::CompareOp::kLe, hi}};
    q.agg = agg;
    q.agg_column = 2;
    return q;
  };
  return {
      aqp_query(0, 10, 50, workload::AggFunc::kCount),
      aqp_query(1, 40, 90, workload::AggFunc::kSum),
      aqp_query(0, 20, 80, workload::AggFunc::kAvg),
      aqp_query(1, 0, 100, workload::AggFunc::kCount),
      aqp_query(0, 10, 50, workload::AggFunc::kCount),  // duplicate
  };
}

// A query no model can evaluate: a predicate on an out-of-range column.
workload::Query InvalidQuery() {
  workload::Query bad = AqpQueries()[0];
  bad.predicates.push_back({99, workload::CompareOp::kEq, 0.0});
  return bad;
}

// Tiles `base` queries out to `n` entries (cycling), so batch sizes larger
// than the distinct pool still exercise real work.
std::vector<workload::Query> Tile(const std::vector<workload::Query>& base,
                                  size_t n) {
  std::vector<workload::Query> out;
  for (size_t i = 0; i < n; ++i) out.push_back(base[i % base.size()]);
  return out;
}

api::ModelOptions CardOptions(const std::string& kind, uint64_t seed) {
  if (kind == "spn") return {{"min_instances_slice", "100"}, {"max_bins", "8"}};
  // progressive_samples=6 is deliberately NOT a multiple of 4: the padded
  // path matrix (not the raw path count) must keep rows out of the GEMM row
  // tail for answers to stay batch-size-invariant.
  return {{"hidden_width", "16"},
          {"max_bins", "8"},
          {"epochs", "1"},
          {"progressive_samples", "6"},
          {"seed", std::to_string(seed)}};
}

api::ModelOptions MdnOptions(uint64_t seed) {
  return {{"num_components", "4"}, {"hidden_width", "16"},
          {"epochs", "2"},         {"seed", std::to_string(seed)},
          {"categorical", "x"},    {"numeric", "y"}};
}

std::unique_ptr<core::UpdatableModel> MakeModel(
    const std::string& kind, const api::ModelOptions& options,
    const storage::Table& base) {
  auto model = api::ModelFactory::Global().Create(kind, base, options);
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  return std::move(model).value();
}

// The override against the spec on one batch: the scalar call per query,
// and the interface's default loop, which must itself reproduce the scalar
// calls. Invalid batches must fail with the default loop's exact Status.
void ExpectCardMatchesSpec(const core::CardinalityEstimator& card,
                           const std::vector<workload::Query>& queries,
                           const std::string& label) {
  std::vector<double> got, loop;
  Status override_status = card.TryEstimateCardinalityBatch(queries, &got);
  Status loop_status =
      card.core::CardinalityEstimator::TryEstimateCardinalityBatch(queries,
                                                                   &loop);
  EXPECT_EQ(override_status.code(), loop_status.code()) << label;
  EXPECT_EQ(override_status.message(), loop_status.message()) << label;
  if (!loop_status.ok()) return;
  ASSERT_EQ(got.size(), queries.size()) << label;
  ASSERT_EQ(loop.size(), queries.size()) << label;
  for (size_t i = 0; i < queries.size(); ++i) {
    StatusOr<double> scalar = card.TryEstimateCardinality(queries[i]);
    ASSERT_TRUE(scalar.ok()) << label;
    EXPECT_TRUE(BitEqual(scalar.value(), loop[i])) << label << " loop i=" << i;
    EXPECT_TRUE(BitEqual(scalar.value(), got[i])) << label << " i=" << i;
  }
}

void ExpectAqpMatchesSpec(const core::AqpEstimator& aqp,
                          const storage::Table& schema,
                          const std::vector<workload::Query>& queries,
                          const std::string& label) {
  std::vector<double> got, loop;
  Status override_status = aqp.TryEstimateAqpBatch(queries, schema, &got);
  Status loop_status =
      aqp.core::AqpEstimator::TryEstimateAqpBatch(queries, schema, &loop);
  EXPECT_EQ(override_status.code(), loop_status.code()) << label;
  EXPECT_EQ(override_status.message(), loop_status.message()) << label;
  if (!loop_status.ok()) return;
  ASSERT_EQ(got.size(), queries.size()) << label;
  ASSERT_EQ(loop.size(), queries.size()) << label;
  for (size_t i = 0; i < queries.size(); ++i) {
    StatusOr<double> scalar = aqp.TryEstimateAqp(queries[i], schema);
    ASSERT_TRUE(scalar.ok()) << label;
    EXPECT_TRUE(BitEqual(scalar.value(), loop[i])) << label << " loop i=" << i;
    EXPECT_TRUE(BitEqual(scalar.value(), got[i])) << label << " i=" << i;
  }
}

// --- Cardinality overrides: DARN (stateful sampler) and SPN (stateless) -----

class CardinalityOverrideTest
    : public testing::TestWithParam<std::tuple<std::string, uint64_t>> {};

TEST_P(CardinalityOverrideTest, MatchesScalarSpecBitForBit) {
  const auto& [kind, seed] = GetParam();
  storage::Table base = MakeBase(400, seed);
  auto model = MakeModel(kind, CardOptions(kind, seed), base);
  const auto* card =
      dynamic_cast<const core::CardinalityEstimator*>(model.get());
  ASSERT_NE(card, nullptr);
  for (size_t n : {size_t{1}, size_t{3}, size_t{16}, size_t{64}}) {
    ExpectCardMatchesSpec(*card, Tile(CardQueries(), n),
                          kind + " n=" + std::to_string(n));
  }
}

TEST_P(CardinalityOverrideTest, ErrorsMatchTheDefaultLoop) {
  const auto& [kind, seed] = GetParam();
  storage::Table base = MakeBase(200, seed + 21);
  auto model = MakeModel(kind, CardOptions(kind, seed), base);
  const auto* card =
      dynamic_cast<const core::CardinalityEstimator*>(model.get());
  ASSERT_NE(card, nullptr);
  std::vector<workload::Query> batch = Tile(CardQueries(), 4);
  batch[2] = InvalidQuery();
  ExpectCardMatchesSpec(*card, batch, kind + " invalid");
  std::vector<double> out;
  Status st = card->TryEstimateCardinalityBatch(batch, &out);
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(st.message().rfind("query 2: ", 0), 0u) << st.message();
}

TEST_P(CardinalityOverrideTest, AnswersAreBatchSizeIndependent) {
  const auto& [kind, seed] = GetParam();
  storage::Table base = MakeBase(300, seed + 17);
  auto model = MakeModel(kind, CardOptions(kind, seed), base);
  const auto* card =
      dynamic_cast<const core::CardinalityEstimator*>(model.get());
  ASSERT_NE(card, nullptr);

  std::vector<workload::Query> large = Tile(CardQueries(), 64);
  std::vector<double> batched;
  ASSERT_TRUE(card->TryEstimateCardinalityBatch(large, &batched).ok());
  for (size_t i = 0; i < large.size(); ++i) {
    std::vector<double> single;
    ASSERT_TRUE(card->TryEstimateCardinalityBatch({large[i]}, &single).ok());
    EXPECT_TRUE(BitEqual(single[0], batched[i]))
        << kind << " i=" << i << ": N=1 vs N=64 disagree";
  }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, CardinalityOverrideTest,
    testing::Combine(testing::Values(std::string("darn"), std::string("spn")),
                     testing::Values(uint64_t{5}, uint64_t{11})),
    [](const auto& info) {
      return std::get<0>(info.param) + "_seed" +
             std::to_string(std::get<1>(info.param));
    });

// At hidden_width 16 every non-empty MADE active set pads back to the full
// width, so the restricted-GEMM branch degenerates to full-width gathers.
// hidden_width 32 over the 3-column base leaves output block 1 with exactly
// 16 of 32 active units — a genuinely narrowed pair of GEMMs — and block 0
// on the bias-only broadcast row. Both must still reproduce the dense scalar
// spec bit for bit.
TEST(CardinalityOverrideTest, ActiveSetRestrictedWidthMatchesScalar) {
  for (uint64_t seed : {5ull, 11ull}) {
    storage::Table base = MakeBase(400, seed);
    api::ModelOptions options = CardOptions("darn", seed);
    options["hidden_width"] = "32";
    auto model = MakeModel("darn", options, base);
    const auto* card =
        dynamic_cast<const core::CardinalityEstimator*>(model.get());
    ASSERT_NE(card, nullptr);
    ExpectCardMatchesSpec(*card, Tile(CardQueries(), 24),
                          "seed=" + std::to_string(seed));
  }
}

// --- AQP override: MDN ------------------------------------------------------

TEST(AqpOverrideTest, MatchesScalarSpecBitForBit) {
  for (uint64_t seed : {3ull, 9ull}) {
    storage::Table base = MakeBase(400, seed);
    auto model = MakeModel("mdn", MdnOptions(seed), base);
    const auto* aqp = dynamic_cast<const core::AqpEstimator*>(model.get());
    ASSERT_NE(aqp, nullptr);
    for (size_t n : {size_t{1}, size_t{3}, size_t{32}}) {
      ExpectAqpMatchesSpec(*aqp, base, Tile(AqpQueries(), n),
                           "mdn n=" + std::to_string(n));
    }
    std::vector<workload::Query> batch = Tile(AqpQueries(), 4);
    batch[3] = InvalidQuery();
    ExpectAqpMatchesSpec(*aqp, base, batch, "mdn invalid");
    std::vector<double> out;
    Status st = aqp->TryEstimateAqpBatch(batch, base, &out);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument);
    EXPECT_EQ(st.message().rfind("query 3: ", 0), 0u) << st.message();
  }
}

// --- Engine::Estimate: batch == batch-of-1 as a seeded property -------------

TEST(EngineEstimateTest, BatchMatchesBatchOfOneAcrossSeeds) {
  // One DARN, one SPN and one MDN table. Each seed draws a batch of 1..64
  // queries per table, in random order with duplicates, from the pools
  // above; every answer must equal its batch-of-1 request bit for bit. A
  // quarter of the seeds plant one invalid query, and the batch error must
  // be the batch-of-1 error re-indexed to its position.
  storage::Table base = MakeBase(300, 81);
  api::EngineConfig config;
  api::Engine engine(config);
  struct Table {
    std::string name;
    EstimateRequest::Kind kind;
    std::vector<workload::Query> pool;
    std::vector<double> alone;  // batch-of-1 answer per pool entry
    std::string bad_reason;     // batch-of-1 error of InvalidQuery()
  };
  std::vector<Table> tables = {
      {"darn", EstimateRequest::Kind::kCardinality, CardQueries(), {}, {}},
      {"spn", EstimateRequest::Kind::kCardinality, CardQueries(), {}, {}},
      {"mdn", EstimateRequest::Kind::kAqp, AqpQueries(), {}, {}},
  };
  auto request_for = [](const Table& t, std::vector<workload::Query> qs) {
    EstimateRequest request;
    request.kind = t.kind;
    request.table = t.name;
    request.queries = workload::QueryBatch(std::move(qs));
    return request;
  };
  for (Table& t : tables) {
    ASSERT_TRUE(engine.CreateTable(t.name, base).ok());
    api::ModelOptions options =
        t.name == "mdn" ? MdnOptions(7) : CardOptions(t.name, 7);
    ASSERT_TRUE(engine.AttachModel(t.name, {t.name, options}).ok());
    for (const workload::Query& q : t.pool) {
      auto one = engine.Estimate(request_for(t, {q}));
      ASSERT_TRUE(one.ok()) << t.name << ": " << one.status().ToString();
      t.alone.push_back(one.value().answers[0]);
    }
    auto bad = engine.Estimate(request_for(t, {InvalidQuery()}));
    ASSERT_FALSE(bad.ok()) << t.name;
    const std::string prefix = "query 0: ";
    ASSERT_EQ(bad.status().message().rfind(prefix, 0), 0u);
    t.bad_reason = bad.status().message().substr(prefix.size());
  }

  constexpr uint64_t kSeeds = 36;
  for (uint64_t seed = 0; seed < kSeeds; ++seed) {
    Rng rng(seed);
    for (const Table& t : tables) {
      const int64_t n = rng.UniformInt(1, 64);
      std::vector<size_t> picks;
      std::vector<workload::Query> queries;
      for (int64_t i = 0; i < n; ++i) {
        picks.push_back(static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(t.pool.size()) - 1)));
        queries.push_back(t.pool[picks.back()]);
      }
      const std::string label =
          t.name + " seed=" + std::to_string(seed) + " n=" + std::to_string(n);
      if (seed % 4 == 3) {
        const int64_t at = rng.UniformInt(0, n - 1);
        queries[static_cast<size_t>(at)] = InvalidQuery();
        auto failed = engine.Estimate(request_for(t, std::move(queries)));
        ASSERT_FALSE(failed.ok()) << label;
        EXPECT_EQ(failed.status().code(), StatusCode::kInvalidArgument);
        EXPECT_EQ(failed.status().message(),
                  "query " + std::to_string(at) + ": " + t.bad_reason)
            << label;
        continue;
      }
      auto batched = engine.Estimate(request_for(t, std::move(queries)));
      ASSERT_TRUE(batched.ok()) << label << ": "
                                << batched.status().ToString();
      ASSERT_EQ(batched.value().answers.size(), picks.size()) << label;
      for (size_t i = 0; i < picks.size(); ++i) {
        EXPECT_TRUE(BitEqual(t.alone[picks[i]], batched.value().answers[i]))
            << label << " i=" << i;
      }
    }
  }
}

TEST(EngineEstimateTest, UnservedKindsAreStatuses) {
  // Kinds that serve neither estimate (gbdt, tvae) fail before any model
  // call, even for an empty batch.
  api::EngineConfig config;
  api::Engine engine(config);
  ASSERT_TRUE(engine.CreateTable("g", MakeBase(200, 41)).ok());
  ASSERT_TRUE(
      engine.AttachModel("g", {"gbdt", {{"target", "x"}, {"num_rounds", "2"}}})
          .ok());
  for (EstimateRequest::Kind kind :
       {EstimateRequest::Kind::kCardinality, EstimateRequest::Kind::kAqp}) {
    EstimateRequest request;
    request.kind = kind;
    request.table = "g";
    EXPECT_EQ(engine.Estimate(request).status().code(),
              StatusCode::kFailedPrecondition);
  }
}

// --- Lock-free concurrent readers (exercised under TSan in CI) --------------

TEST(ConcurrentEstimateTest, ManyReadersShareOneTableWithoutLocks) {
  storage::Table base = MakeBase(300, 51);
  api::EngineConfig config;
  config.update_workers = 2;
  config.micro_batch_rows = 64;
  config.controller.detector.bootstrap_iterations = 8;
  config.controller.policy.distill.epochs = 1;
  config.controller.policy.finetune_epochs = 1;
  api::Engine engine(config);
  ASSERT_TRUE(engine.CreateTable("t", base).ok());
  ASSERT_TRUE(engine
                  .AttachModel("t", {"darn",
                                     {{"hidden_width", "12"},
                                      {"max_bins", "6"},
                                      {"epochs", "1"},
                                      {"progressive_samples", "4"}}})
                  .ok());

  EstimateRequest batch;
  batch.table = "t";
  batch.queries = workload::QueryBatch(Tile(CardQueries(), 8));
  auto single = [&](size_t i) {
    EstimateRequest one;
    one.table = "t";
    one.queries.Add(batch.queries.queries[i]);
    return one;
  };
  constexpr int kReaders = 4;
  constexpr int kRounds = 25;
  std::vector<std::thread> readers;
  std::vector<int> failures(kReaders, 0);
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      for (int round = 0; round < kRounds; ++round) {
        // Mix batch-of-1 and batched reads; both ride the same serving view.
        if (!engine.Estimate(single(static_cast<size_t>(round % 8))).ok()) {
          failures[r]++;
        }
        if (!engine.Estimate(batch).ok()) failures[r]++;
      }
    });
  }
  // Writer: concurrent ingests force snapshot publishes under the readers.
  std::thread writer([&] {
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(engine.Ingest("t", MakeBase(64, 60 + i)).ok());
    }
  });
  for (auto& t : readers) t.join();
  writer.join();
  for (int r = 0; r < kReaders; ++r) EXPECT_EQ(failures[r], 0) << r;
  ASSERT_TRUE(engine.FlushAll().ok());

  // Quiesced again: answers are deterministic per query, batch == batch-of-1.
  auto after = engine.Estimate(batch);
  ASSERT_TRUE(after.ok());
  for (size_t i = 0; i < batch.queries.queries.size(); ++i) {
    auto one = engine.Estimate(single(i));
    ASSERT_TRUE(one.ok());
    EXPECT_TRUE(BitEqual(one.value().answers[0], after.value().answers[i]))
        << i;
  }
}

// --- Zero-alloc steady state ------------------------------------------------

TEST(BatchOverrideZeroAllocTest, WarmDarnBatchesDoNoMatrixHeapAllocs) {
  storage::Table base = MakeBase(300, 71);
  auto model = MakeModel(
      "darn", {{"hidden_width", "16"}, {"max_bins", "8"}, {"epochs", "1"}},
      base);
  const auto* card =
      dynamic_cast<const core::CardinalityEstimator*>(model.get());
  ASSERT_NE(card, nullptr);

  std::vector<workload::Query> batch = Tile(CardQueries(), 32);
  std::vector<double> warm1, warm2, out;
  // Two warm-up batches populate the thread's pool at every scratch shape.
  ASSERT_TRUE(card->TryEstimateCardinalityBatch(batch, &warm1).ok());
  ASSERT_TRUE(card->TryEstimateCardinalityBatch(batch, &warm2).ok());

  nn::MatrixPool::Counters before = nn::MatrixPool::Local().counters();
  constexpr int kBatches = 5;
  for (int i = 0; i < kBatches; ++i) {
    ASSERT_TRUE(card->TryEstimateCardinalityBatch(batch, &out).ok());
  }
  nn::MatrixPool::Counters after = nn::MatrixPool::Local().counters();

  EXPECT_EQ(after.heap_allocs - before.heap_allocs, 0u)
      << "warm DARN batches must serve all matrix scratch from the pool";
  EXPECT_GT(after.acquires - before.acquires, 0u);
  EXPECT_EQ(after.acquires - before.acquires, after.reuses - before.reuses);
  // Everything acquired went back: no pooled-buffer leak per batch.
  EXPECT_EQ(after.releases - before.releases, after.acquires - before.acquires);
}

}  // namespace
}  // namespace ddup

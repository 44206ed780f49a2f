// Packed micro-batch accumulator tests (storage/packed.h, DESIGN.md §16).
// The contract under test is byte-identity: an engine buffering through
// packed columnar blocks must drain the exact same bytes, in the same
// order, as one buffering plain rows — across all five model families —
// while holding measurably fewer buffered bytes for compressible data.
#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "api/engine.h"
#include "common/rng.h"
#include "gtest/gtest.h"
#include "io/serializer.h"
#include "storage/packed.h"

namespace ddup {
namespace {

::testing::AssertionResult TablesBitEqual(const storage::Table& a,
                                          const storage::Table& b) {
  if (!a.SchemaEquals(b)) {
    return ::testing::AssertionFailure() << "schemas differ";
  }
  if (a.num_rows() != b.num_rows()) {
    return ::testing::AssertionFailure()
           << "row counts differ: " << a.num_rows() << " vs " << b.num_rows();
  }
  for (int c = 0; c < a.num_columns(); ++c) {
    const storage::Column& ca = a.column(c);
    const storage::Column& cb = b.column(c);
    if (ca.is_numeric()) {
      const auto& va = ca.numeric_values();
      const auto& vb = cb.numeric_values();
      // An empty vector's data() may be null, which memcmp must not see.
      if (!va.empty() &&
          std::memcmp(va.data(), vb.data(), va.size() * sizeof(double)) != 0) {
        return ::testing::AssertionFailure()
               << "numeric column '" << ca.name() << "' differs bitwise";
      }
    } else if (ca.codes() != cb.codes()) {
      return ::testing::AssertionFailure()
             << "categorical column '" << ca.name() << "' differs";
    }
  }
  return ::testing::AssertionSuccess();
}

// A three-column table exercising every packing mode: integer-valued
// doubles (delta mode), full-entropy doubles with the nasty bit patterns
// (shuffle mode — NaN, -0.0, huge magnitudes must never round-trip through
// an int64), and dictionary codes.
storage::Table MixedRows(int64_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> counters, gaussians;
  std::vector<int32_t> codes;
  for (int64_t i = 0; i < n; ++i) {
    counters.push_back(static_cast<double>(rng.UniformInt(-1000, 1000)));
    double g = rng.Normal(0.0, 1.0);
    if (rng.Bernoulli(0.05)) g = -0.0;
    if (rng.Bernoulli(0.05)) g = std::numeric_limits<double>::quiet_NaN();
    if (rng.Bernoulli(0.05)) g = 1e300 * (rng.Bernoulli(0.5) ? 1 : -1);
    gaussians.push_back(g);
    codes.push_back(static_cast<int32_t>(rng.UniformInt(0, 3)));
  }
  storage::Table t("mixed");
  t.AddColumn(storage::Column::Numeric("counter", std::move(counters)));
  t.AddColumn(storage::Column::Numeric("gauss", std::move(gaussians)));
  t.AddColumn(storage::Column::Categorical("cat", std::move(codes),
                                           {"a", "b", "c", "d"}));
  return t;
}

TEST(MicroBatchBufferTest, PackedAndPlainAgreeBitwiseUnderRandomOps) {
  const storage::Table schema = MixedRows(0, 1);
  storage::MicroBatchBuffer packed, plain;
  packed.Reset(schema, /*seal_rows=*/32, /*pack=*/true);
  plain.Reset(schema, /*seal_rows=*/32, /*pack=*/false);
  Rng rng(99);
  for (int step = 0; step < 60; ++step) {
    if (packed.num_rows() == 0 || rng.Bernoulli(0.6)) {
      storage::Table batch =
          MixedRows(rng.UniformInt(1, 90), static_cast<uint64_t>(step) + 7);
      packed.Append(batch);
      plain.Append(batch);
    } else {
      // Drops deliberately misaligned with the 32-row seal size, so the
      // partial-block reopen path runs.
      const int64_t n = rng.UniformInt(1, packed.num_rows());
      packed.DropFront(n);
      plain.DropFront(n);
    }
    ASSERT_EQ(packed.num_rows(), plain.num_rows());
    ASSERT_TRUE(TablesBitEqual(packed.Materialize(), plain.Materialize()))
        << "step " << step;
    if (packed.num_rows() > 1) {
      const int64_t lo = rng.UniformInt(0, packed.num_rows() - 1);
      const int64_t hi = rng.UniformInt(lo, packed.num_rows());
      ASSERT_TRUE(TablesBitEqual(packed.Slice(lo, hi), plain.Slice(lo, hi)))
          << "step " << step << " slice [" << lo << ", " << hi << ")";
    }
  }
}

TEST(MicroBatchBufferTest, SealedBlocksShrinkBufferedBytes) {
  // Compressible rows (integer counters + low-cardinality codes): sealed
  // packed blocks must hold the same rows in well under the plain 8/4
  // bytes per value.
  Rng rng(5);
  std::vector<double> counters;
  std::vector<int32_t> codes;
  for (int64_t i = 0; i < 640; ++i) {
    counters.push_back(static_cast<double>(i));
    codes.push_back(static_cast<int32_t>(rng.UniformInt(0, 3)));
  }
  storage::Table t("seq");
  t.AddColumn(storage::Column::Numeric("n", std::move(counters)));
  t.AddColumn(storage::Column::Categorical("c", std::move(codes),
                                           {"a", "b", "c", "d"}));

  storage::MicroBatchBuffer packed, plain;
  packed.Reset(t, /*seal_rows=*/64, /*pack=*/true);
  plain.Reset(t, /*seal_rows=*/64, /*pack=*/false);
  packed.Append(t);
  plain.Append(t);
  ASSERT_EQ(packed.num_rows(), plain.num_rows());
  EXPECT_LT(packed.buffered_bytes() * 2, plain.buffered_bytes())
      << "packed " << packed.buffered_bytes() << " vs plain "
      << plain.buffered_bytes();
  ASSERT_TRUE(TablesBitEqual(packed.Materialize(), plain.Materialize()));
}

// ---------------------------------------------------------------------------
// Engine-level drain equality: the packed accumulator must be invisible in
// every model family's bytes.
// ---------------------------------------------------------------------------

// Small conditional table (categorical x, numeric y) every family trains on.
storage::Table Conditional(int64_t n, uint64_t seed, double m0 = 30.0,
                           double m1 = 60.0) {
  Rng rng(seed);
  std::vector<int32_t> codes;
  std::vector<double> y;
  for (int64_t i = 0; i < n; ++i) {
    const int k = rng.Bernoulli(0.5) ? 1 : 0;
    codes.push_back(static_cast<int32_t>(k));
    y.push_back(rng.Normal(k == 0 ? m0 : m1, 5.0));
  }
  storage::Table t("cond");
  t.AddColumn(storage::Column::Categorical("x", std::move(codes),
                                           {"k0", "k1"}));
  t.AddColumn(storage::Column::Numeric("y", std::move(y)));
  return t;
}

api::EngineConfig PackedTestConfig(bool packed) {
  api::EngineConfig config;
  config.micro_batch_rows = 40;
  config.controller.detector.bootstrap_iterations = 16;
  config.controller.policy.distill.epochs = 1;
  config.controller.policy.finetune_epochs = 1;
  config.packed_accumulator = packed;
  return config;
}

std::string ModelStateBytes(api::Engine* engine, const std::string& table) {
  io::Serializer out;
  core::UpdatableModel* model = engine->model(table);
  EXPECT_NE(model, nullptr);
  if (model != nullptr) {
    EXPECT_TRUE(model->SaveState(&out).ok());
  }
  return out.Take();
}

TEST(PackedEngineTest, DrainBytesMatchUnpackedAcrossAllFiveFamilies) {
  const std::vector<api::ModelSpec> specs = {
      {"mdn",
       {{"num_components", "3"}, {"hidden_width", "8"}, {"epochs", "2"}}},
      {"darn", {{"hidden_width", "12"}, {"max_bins", "8"}, {"epochs", "1"}}},
      {"tvae", {{"latent_dim", "2"}, {"hidden_width", "8"}, {"epochs", "1"}}},
      {"spn", {{"min_instances_slice", "64"}}},
      {"gbdt", {{"target", "x"}, {"num_rounds", "2"}}},
  };
  const storage::Table base = Conditional(160, 11);
  // Odd-sized chunks: remainders, multi-batch appends and a drifted tail
  // exercise every accumulator path, including OOD updates.
  const std::vector<int64_t> chunks = {7, 64, 33, 96, 13};
  for (const api::ModelSpec& spec : specs) {
    api::Engine with_packing(PackedTestConfig(true));
    api::Engine without_packing(PackedTestConfig(false));
    for (api::Engine* engine : {&with_packing, &without_packing}) {
      ASSERT_TRUE(engine->CreateTable("t", base).ok());
      ASSERT_TRUE(engine->AttachModel("t", spec).ok()) << spec.kind;
    }
    uint64_t seed = 100;
    for (int64_t chunk : chunks) {
      // The last chunk comes from a shifted distribution.
      const double m0 = chunk == chunks.back() ? 70.0 : 30.0;
      const storage::Table batch = Conditional(chunk, ++seed, m0);
      auto ra = with_packing.Ingest("t", batch);
      auto rb = without_packing.Ingest("t", batch);
      ASSERT_TRUE(ra.ok() && rb.ok()) << spec.kind;
      EXPECT_EQ(ra.value().rows_buffered, rb.value().rows_buffered);
      EXPECT_EQ(ra.value().rows_flushed, rb.value().rows_flushed);
    }
    auto fa = with_packing.Flush("t");
    auto fb = without_packing.Flush("t");
    ASSERT_TRUE(fa.ok() && fb.ok()) << spec.kind;
    EXPECT_EQ(fa.value().rows_flushed, fb.value().rows_flushed);
    // The strong check: the full serialized model state — weights, counters
    // and RNG streams — is byte-identical, so no later estimate or update
    // can ever diverge.
    EXPECT_EQ(ModelStateBytes(&with_packing, "t"),
              ModelStateBytes(&without_packing, "t"))
        << spec.kind;
  }
}

TEST(PackedEngineTest, ReportsBufferedBytesForTheAccumulator) {
  // The sync engine drains every sealed block immediately, so what remains
  // buffered is always the open plain tail — identical in both accumulator
  // modes. (The packed-vs-plain peak-footprint assertion lives at the
  // MicroBatchBuffer unit level above, where sealed blocks are observable.)
  api::Engine packed(PackedTestConfig(true));
  api::Engine plain(PackedTestConfig(false));
  const storage::Table base = Conditional(120, 3);
  for (api::Engine* engine : {&packed, &plain}) {
    ASSERT_TRUE(engine->CreateTable("t", base).ok());
    ASSERT_TRUE(
        engine->AttachModel("t", {"spn", {{"min_instances_slice", "64"}}})
            .ok());
    auto result = engine->Ingest("t", Conditional(37, 17));
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().rows_buffered, 37);
  }
  auto packed_report = packed.Report("t");
  auto plain_report = plain.Report("t");
  ASSERT_TRUE(packed_report.ok() && plain_report.ok());
  EXPECT_EQ(packed_report.value().buffered_rows, 37);
  // cond schema = one categorical (4B code) + one numeric (8B) per row.
  EXPECT_EQ(packed_report.value().buffered_bytes, 37 * 12);
  EXPECT_EQ(plain_report.value().buffered_bytes,
            packed_report.value().buffered_bytes);
}

TEST(PackedEngineTest, SaveLoadRoundTripsThePackedAccumulator) {
  // Buffered (undrained) rows must survive Save/Load bit-exactly in both
  // accumulator modes — the manifest stores them as a plain table either
  // way, so the two files' pending sections are identical.
  for (bool packing : {true, false}) {
    api::Engine engine(PackedTestConfig(packing));
    const storage::Table base = Conditional(160, 21);
    ASSERT_TRUE(engine.CreateTable("t", base).ok());
    ASSERT_TRUE(
        engine
            .AttachModel("t", {"spn", {{"min_instances_slice", "64"}}})
            .ok());
    ASSERT_TRUE(engine.Ingest("t", Conditional(97, 23)).ok());  // 17 buffered
    auto before = engine.Report("t");
    ASSERT_TRUE(before.ok());
    ASSERT_EQ(before.value().buffered_rows, 17);

    const std::string path =
        ::testing::TempDir() + "/packed_roundtrip.ckpt";
    ASSERT_TRUE(engine.Save(path).ok());
    auto loaded = api::Engine::Load(path, PackedTestConfig(packing));
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
    auto after = loaded.value()->Report("t");
    ASSERT_TRUE(after.ok());
    EXPECT_EQ(after.value().buffered_rows, 17);
    // Flushing both drains the same buffered bytes into the same model.
    ASSERT_TRUE(engine.Flush("t").ok());
    ASSERT_TRUE(loaded.value()->Flush("t").ok());
    EXPECT_EQ(ModelStateBytes(&engine, "t"),
              ModelStateBytes(loaded.value().get(), "t"));
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace ddup

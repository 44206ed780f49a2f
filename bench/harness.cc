#include "bench/harness.h"

#include <sys/stat.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <thread>

#include "api/model_factory.h"
#include "common/status.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "io/checkpoint.h"
#include "io/serializer.h"
#include "nn/kernels.h"
#include "nn/pool.h"
#include "storage/sampling.h"
#include "storage/transforms.h"
#include "workload/executor.h"

namespace ddup::bench {

namespace {
int64_t EnvInt(const char* name, int64_t fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atoll(v) : fallback;
}

double EnvDouble(const char* name, double fallback) {
  const char* v = std::getenv(name);
  return v != nullptr ? std::atof(v) : fallback;
}

// ---------------------------------------------------------------------------
// DDUP_CHECKPOINT_DIR warm-start cache (see harness.h).
// ---------------------------------------------------------------------------

// Creates `dir` if missing (single level); false if it cannot be used.
bool EnsureDir(const std::string& dir) {
  struct stat st;
  if (::stat(dir.c_str(), &st) == 0) return S_ISDIR(st.st_mode);
  return ::mkdir(dir.c_str(), 0755) == 0;
}

// Cache file for the base model of (kind, dataset, bench params, options);
// "" when the cache is disabled or the directory is unusable. Every factory
// option participates in the cache key: any knob change (or a
// DDUP_ROWS/DDUP_SEED/DDUP_EPOCH_SCALE override, which feeds the epochs)
// lands in a different file instead of silently reusing a stale model.
std::string BaseModelCachePath(const char* kind, const std::string& dataset,
                               const BenchParams& params,
                               const api::ModelOptions& options) {
  const char* dir = std::getenv("DDUP_CHECKPOINT_DIR");
  if (dir == nullptr || dir[0] == '\0') return "";
  if (!EnsureDir(dir)) {
    std::printf("  [ckpt] cannot use DDUP_CHECKPOINT_DIR=%s, training cold\n",
                dir);
    return "";
  }
  io::Serializer key;
  key.WriteString(kind);
  key.WriteString(dataset);
  key.WriteI64(params.rows);
  key.WriteU64(params.seed);
  for (const auto& [option, value] : options) {
    key.WriteString(option);
    key.WriteString(value);
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016llx",
                static_cast<unsigned long long>(io::Fnv1a64(key.buffer())));
  return std::string(dir) + "/" + kind + "_" + dataset + "_" + hex + ".ckpt";
}

// Shortest decimal string that round-trips the exact double, so an option
// map rebuilds bit-identical configs through the factory's strtod.
std::string FormatDouble(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// One line on the cache file's codec footprint: stored vs uncompressed bytes
// across its sections (the container stamps both per section since format
// v2, DESIGN.md §16). Printed when a base model enters or leaves the cache,
// so warm-start runs show what the compressed data plane saves on disk.
void PrintCheckpointFootprint(const char* verb, const std::string& path) {
  StatusOr<io::CheckpointReader> reader = io::CheckpointReader::FromFile(path);
  if (!reader.ok()) return;
  uint64_t stored = 0;
  uint64_t uncompressed = 0;
  for (const auto& info : reader.value().Sections()) {
    stored += info.stored_bytes;
    uncompressed += info.uncompressed_bytes;
  }
  if (stored == 0) return;
  std::printf("  [ckpt] %s %s: %llu bytes on disk, %llu uncompressed (%.2fx)\n",
              verb, path.c_str(), static_cast<unsigned long long>(stored),
              static_cast<unsigned long long>(uncompressed),
              static_cast<double>(uncompressed) / static_cast<double>(stored));
}
}  // namespace

BenchParams BenchParams::FromEnv() {
  BenchParams p;
  p.rows = EnvInt("DDUP_ROWS", p.rows);
  p.num_queries = static_cast<int>(EnvInt("DDUP_QUERIES", p.num_queries));
  p.epoch_scale = EnvDouble("DDUP_EPOCH_SCALE", p.epoch_scale);
  p.bootstrap_iterations =
      static_cast<int>(EnvInt("DDUP_BOOTSTRAP", p.bootstrap_iterations));
  p.seed = static_cast<uint64_t>(EnvInt("DDUP_SEED", 42));
  return p;
}

int BenchParams::ScaledEpochs(int epochs) const {
  int scaled = static_cast<int>(std::lround(epochs * epoch_scale));
  return scaled < 1 ? 1 : scaled;
}

KernelStats MeasureKernelStats() {
  static const KernelStats cached = [] {
    KernelStats s;
    s.kernel = nn::GemmKernelName();
    Rng rng(12345);
    const int n = 256;
    nn::Matrix a = nn::Matrix::Randn(rng, n, n);
    nn::Matrix b = nn::Matrix::Randn(rng, n, n);
    nn::Matrix c(n, n);
    nn::GemmInto(a, b, /*accumulate=*/false, &c);  // warm-up
    Stopwatch sw;
    int reps = 0;
    do {
      nn::GemmInto(a, b, /*accumulate=*/false, &c);
      ++reps;
    } while (sw.ElapsedSeconds() < 0.05);
    s.gemm256_gflops = 2.0 * n * n * n * reps / sw.ElapsedSeconds() / 1e9;
    return s;
  }();
  return cached;
}

void PrintPoolCounters(const char* label) {
  static nn::MatrixPool::Counters last;
  nn::MatrixPool::Counters now = nn::MatrixPool::AggregateCounters();
  uint64_t acquires = now.acquires - last.acquires;
  uint64_t reuses = now.reuses - last.reuses;
  uint64_t heap = now.heap_allocs - last.heap_allocs;
  last = now;
  double reuse_rate =
      acquires > 0 ? 100.0 * static_cast<double>(reuses) /
                         static_cast<double>(acquires)
                   : 0.0;
  std::printf(
      "  [pool] %s: acquires=%llu reuse=%.1f%% heap_allocs=%llu\n", label,
      static_cast<unsigned long long>(acquires), reuse_rate,
      static_cast<unsigned long long>(heap));
}

DatasetBundle MakeBundle(const std::string& dataset,
                         const BenchParams& params) {
  DatasetBundle b;
  b.name = dataset;
  b.base = datagen::MakeDataset(dataset, params.rows, params.seed);
  Rng rng(params.seed + 1);
  b.ind_batch = storage::InDistributionSample(b.base, rng, 0.2);
  b.ood_batch = storage::OutOfDistributionSample(b.base, rng, 0.2);
  b.aqp = datagen::AqpColumnsFor(dataset);
  return b;
}

StatusOr<storage::Table> TryUnion(const storage::Table& base,
                                  const storage::Table& batch) {
  DDUP_RETURN_IF_ERROR(storage::CheckSchemaCompatible(base, batch));
  storage::Table all = base;
  all.Append(batch);
  return all;
}

storage::Table Union(const storage::Table& base, const storage::Table& batch) {
  StatusOr<storage::Table> all = TryUnion(base, batch);
  DDUP_CHECK_MSG(all.ok(), all.status().ToString());
  return std::move(all).value();
}

models::MdnConfig MdnConfigFor(const BenchParams& params) {
  models::MdnConfig c;
  c.num_components = 8;
  c.hidden_width = 48;
  c.epochs = params.ScaledEpochs(20);
  c.learning_rate = 5e-3;
  c.seed = params.seed + 11;
  return c;
}

models::DarnConfig DarnConfigFor(const BenchParams& params) {
  models::DarnConfig c;
  c.hidden_width = 64;
  c.max_bins = 64;
  c.epochs = params.ScaledEpochs(16);
  c.learning_rate = 5e-3;
  c.progressive_samples = 32;
  c.seed = params.seed + 13;
  return c;
}

models::TvaeConfig TvaeConfigFor(const BenchParams& params) {
  models::TvaeConfig c;
  c.latent_dim = 8;
  c.hidden_width = 48;
  c.epochs = params.ScaledEpochs(15);
  c.learning_rate = 2e-3;
  c.seed = params.seed + 17;
  return c;
}

core::DistillConfig DistillConfigFor(const BenchParams& params) {
  core::DistillConfig c;
  c.lambda = 0.5;
  c.temperature = 2.0;
  c.epochs = params.ScaledEpochs(12);
  c.learning_rate = 1e-3;
  return c;
}

core::ControllerConfig ControllerConfigFor(const BenchParams& params) {
  core::ControllerConfig c;
  c.detector.bootstrap_iterations = params.bootstrap_iterations;
  c.detector.seed = params.seed + 19;
  c.policy.distill = DistillConfigFor(params);
  c.policy.finetune_epochs = params.ScaledEpochs(3);
  c.policy.transfer_fraction = 0.10;
  c.seed = params.seed + 23;
  return c;
}

std::vector<workload::Query> AqpCountQueries(const DatasetBundle& bundle,
                                             const BenchParams& params,
                                             Rng& rng) {
  workload::AqpWorkloadConfig config;
  config.categorical_column = bundle.aqp.categorical;
  config.numeric_column = bundle.aqp.numeric;
  config.agg = workload::AggFunc::kCount;
  return workload::GenerateNonEmptyAqpQueries(bundle.base, config,
                                              params.num_queries, rng);
}

std::vector<workload::Query> NaruCountQueries(const DatasetBundle& bundle,
                                              const BenchParams& params,
                                              Rng& rng) {
  workload::NaruWorkloadConfig config;
  config.min_filters = 2;
  config.max_filters = std::min(6, bundle.base.num_columns());
  return workload::GenerateNonEmptyNaruQueries(bundle.base, config,
                                               params.num_queries, rng);
}

std::vector<double> EstimateAll(const models::Mdn& model,
                                const std::vector<workload::Query>& queries,
                                const storage::Table& schema) {
  std::vector<double> out;
  out.reserve(queries.size());
  for (const auto& q : queries) out.push_back(model.EstimateAqp(q, schema));
  return out;
}

std::vector<double> EstimateAll(const models::Darn& model,
                                const std::vector<workload::Query>& queries) {
  std::vector<double> out;
  out.reserve(queries.size());
  for (const auto& q : queries) out.push_back(model.EstimateCardinality(q));
  return out;
}

std::vector<double> QErrors(const std::vector<double>& estimates,
                            const std::vector<double>& truths) {
  DDUP_CHECK(estimates.size() == truths.size());
  std::vector<double> out;
  out.reserve(estimates.size());
  for (size_t i = 0; i < estimates.size(); ++i) {
    out.push_back(workload::QError(estimates[i], truths[i]));
  }
  return out;
}

std::vector<double> RelErrors(const std::vector<double>& estimates,
                              const std::vector<double>& truths) {
  DDUP_CHECK(estimates.size() == truths.size());
  std::vector<double> out;
  out.reserve(estimates.size());
  for (size_t i = 0; i < estimates.size(); ++i) {
    if (truths[i] == 0.0) continue;
    out.push_back(workload::RelativeErrorPercent(estimates[i], truths[i]));
  }
  return out;
}

namespace {

// Bench-sized factory options per model family: the same bundle-derived
// column bindings and BenchParams-scaled config the dedicated Run*Approaches
// wrappers used to hard-code, expressed as api::ModelFactory options so one
// templated protocol serves every registered kind.
template <typename ModelT>
struct FactoryTraits;

template <>
struct FactoryTraits<models::Mdn> {
  static constexpr const char* kKind = models::Mdn::kCheckpointKind;
  static api::ModelOptions Options(const DatasetBundle& bundle,
                                   const BenchParams& params) {
    models::MdnConfig c = MdnConfigFor(params);
    return api::ModelOptions{
        {"categorical", bundle.aqp.categorical},
        {"numeric", bundle.aqp.numeric},
        {"num_components", std::to_string(c.num_components)},
        {"hidden_width", std::to_string(c.hidden_width)},
        {"epochs", std::to_string(c.epochs)},
        {"batch_size", std::to_string(c.batch_size)},
        {"learning_rate", FormatDouble(c.learning_rate)},
        {"seed", std::to_string(c.seed)}};
  }
};

template <>
struct FactoryTraits<models::Darn> {
  static constexpr const char* kKind = models::Darn::kCheckpointKind;
  static api::ModelOptions Options(const DatasetBundle& bundle,
                                   const BenchParams& params) {
    (void)bundle;
    models::DarnConfig c = DarnConfigFor(params);
    return api::ModelOptions{
        {"hidden_width", std::to_string(c.hidden_width)},
        {"max_bins", std::to_string(c.max_bins)},
        {"epochs", std::to_string(c.epochs)},
        {"batch_size", std::to_string(c.batch_size)},
        {"learning_rate", FormatDouble(c.learning_rate)},
        {"progressive_samples", std::to_string(c.progressive_samples)},
        {"seed", std::to_string(c.seed)}};
  }
};

template <>
struct FactoryTraits<models::Tvae> {
  static constexpr const char* kKind = models::Tvae::kCheckpointKind;
  static api::ModelOptions Options(const DatasetBundle& bundle,
                                   const BenchParams& params) {
    (void)bundle;
    models::TvaeConfig c = TvaeConfigFor(params);
    return api::ModelOptions{
        {"latent_dim", std::to_string(c.latent_dim)},
        {"hidden_width", std::to_string(c.hidden_width)},
        {"epochs", std::to_string(c.epochs)},
        {"batch_size", std::to_string(c.batch_size)},
        {"learning_rate", FormatDouble(c.learning_rate)},
        {"seed", std::to_string(c.seed)}};
  }
};

}  // namespace

// Applies the four update approaches to factory-built model instances. When
// the DDUP_CHECKPOINT_DIR cache is usable, the trained base model is loaded
// from / saved to a checkpoint instead of retraining for every approach: a
// load restores weights, metadata and the RNG stream, so each instance is
// bit-identical to a freshly trained one and all downstream updates
// reproduce cold-run results exactly.
template <typename ModelT>
Approaches<ModelT> RunApproaches(const DatasetBundle& bundle,
                                 const storage::Table& batch,
                                 const BenchParams& params) {
  const api::ModelOptions options =
      FactoryTraits<ModelT>::Options(bundle, params);
  const std::string cache_path = BaseModelCachePath(
      FactoryTraits<ModelT>::kKind, bundle.name, params, options);

  int cache_hits = 0;
  int cold_trainings = 0;
  auto make = [&]() -> std::unique_ptr<ModelT> {
    StatusOr<std::unique_ptr<core::UpdatableModel>> model =
        api::ModelFactory::Global().Create(FactoryTraits<ModelT>::kKind,
                                           bundle.base, options);
    DDUP_CHECK_MSG(model.ok(), model.status().ToString());
    // The registered creator for kKind constructs exactly a ModelT.
    return std::unique_ptr<ModelT>(
        static_cast<ModelT*>(model.value().release()));
  };
  auto cached_make = [&]() -> std::unique_ptr<ModelT> {
    if (cache_path.empty()) {
      ++cold_trainings;
      return make();
    }
    StatusOr<std::unique_ptr<ModelT>> loaded = ModelT::LoadFromFile(cache_path);
    if (loaded.ok()) {
      if (++cache_hits == 1) PrintCheckpointFootprint("reusing", cache_path);
      return std::move(loaded).value();
    }
    ++cold_trainings;
    std::unique_ptr<ModelT> model = make();
    Status saved = model->SaveToFile(cache_path);
    if (!saved.ok()) {
      std::printf("  [ckpt] save failed: %s\n", saved.ToString().c_str());
    } else {
      PrintCheckpointFootprint("saved", cache_path);
    }
    return model;
  };

  Approaches<ModelT> out;
  out.m0 = cached_make();
  out.stale = cached_make();

  Rng rng(params.seed + 31);
  storage::Table transfer = storage::SampleFraction(bundle.base, rng, 0.10);
  core::DistillConfig distill = DistillConfigFor(params);
  // Eq. 5 weighting against the full old-data size (see controller.cc).
  distill.alpha =
      core::ResolveAlpha(distill, bundle.base.num_rows(), batch.num_rows());

  out.ddup = cached_make();
  Stopwatch ddup_timer;
  out.ddup->AbsorbMetadata(batch);
  out.ddup->DistillUpdate(transfer, batch, distill);
  out.ddup_seconds = ddup_timer.ElapsedSeconds();

  out.baseline = cached_make();
  Stopwatch baseline_timer;
  out.baseline->AbsorbMetadata(batch);
  // Paper baseline: SGD on the new data with a smaller learning rate.
  out.baseline->FineTune(batch, kBaselineLrMultiplier * distill.learning_rate,
                         distill.epochs);
  out.baseline_seconds = baseline_timer.ElapsedSeconds();

  out.retrain = cached_make();
  Stopwatch retrain_timer;
  out.retrain->RetrainFromScratch(Union(bundle.base, batch));
  out.retrain_seconds = retrain_timer.ElapsedSeconds();

  if (!cache_path.empty()) {
    std::printf("  [ckpt] base-model cache %s: %d warm load(s), %d training(s)\n",
                cache_path.c_str(), cache_hits, cold_trainings);
  }
  PrintPoolCounters("train+update phases");
  return out;
}

template Approaches<models::Mdn> RunApproaches<models::Mdn>(
    const DatasetBundle&, const storage::Table&, const BenchParams&);
template Approaches<models::Darn> RunApproaches<models::Darn>(
    const DatasetBundle&, const storage::Table&, const BenchParams&);
template Approaches<models::Tvae> RunApproaches<models::Tvae>(
    const DatasetBundle&, const storage::Table&, const BenchParams&);

core::InsertionReport MustInsert(core::DdupController& controller,
                                 const storage::Table& batch) {
  StatusOr<core::InsertionReport> report = controller.HandleInsertion(batch);
  DDUP_CHECK_MSG(report.ok(), report.status().ToString());
  return std::move(report).value();
}

void PrintBanner(const std::string& artifact, const std::string& description,
                 const BenchParams& params) {
  std::printf("==============================================================\n");
  std::printf("%s — %s\n", artifact.c_str(), description.c_str());
  std::printf("rows=%lld queries=%d epoch_scale=%.2f bootstrap=%d seed=%llu\n",
              static_cast<long long>(params.rows), params.num_queries,
              params.epoch_scale, params.bootstrap_iterations,
              static_cast<unsigned long long>(params.seed));
  KernelStats ks = MeasureKernelStats();
  std::printf("kernel=%s gemm256=%.1f GFLOP/s threads=%d\n", ks.kernel,
              ks.gemm256_gflops, ThreadPool::Global().size());
  std::printf("==============================================================\n");
}

std::string FormatRow(const std::string& label,
                      const workload::ErrorSummary& summary) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "  %-10s %s", label.c_str(),
                workload::FormatSummary(summary).c_str());
  return buf;
}

// ---------------------------------------------------------------------------
// BENCH_<artifact>.json emitter (see harness.h).
// ---------------------------------------------------------------------------

namespace {
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (char raw : s) {
    auto c = static_cast<unsigned char>(raw);
    switch (raw) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += raw;
        }
    }
  }
  return out;
}

std::string JsonDouble(double v) {
  // JSON has no NaN/Infinity literal; null keeps the file parseable.
  if (!std::isfinite(v)) return "null";
  return FormatDouble(v);
}
}  // namespace

JsonObject& JsonObject::SetEncoded(const std::string& key,
                                   std::string encoded) {
  // Last-writer-wins: overwrite in place so headers never carry duplicate
  // members (the emitter stamps defaults that benches may override).
  for (auto& field : fields_) {
    if (field.first == key) {
      field.second = std::move(encoded);
      return *this;
    }
  }
  fields_.emplace_back(key, std::move(encoded));
  return *this;
}

JsonObject& JsonObject::Set(const std::string& key, const std::string& value) {
  return SetEncoded(key, "\"" + JsonEscape(value) + "\"");
}
JsonObject& JsonObject::Set(const std::string& key, const char* value) {
  return Set(key, std::string(value));
}
JsonObject& JsonObject::Set(const std::string& key, double value) {
  return SetEncoded(key, JsonDouble(value));
}
JsonObject& JsonObject::Set(const std::string& key, int64_t value) {
  return SetEncoded(key, std::to_string(value));
}
JsonObject& JsonObject::Set(const std::string& key, int value) {
  return Set(key, static_cast<int64_t>(value));
}
JsonObject& JsonObject::Set(const std::string& key, bool value) {
  return SetEncoded(key, value ? "true" : "false");
}

std::string JsonObject::Render() const {
  std::string out = "{";
  for (size_t i = 0; i < fields_.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + JsonEscape(fields_[i].first) + "\":" + fields_[i].second;
  }
  out += "}";
  return out;
}

namespace {
// "model name" line from /proc/cpuinfo, or "unknown" (non-Linux hosts,
// restricted containers). Whitespace inside the model string is kept as-is:
// it is an opaque label for humans diffing BENCH files across machines.
std::string HostCpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, 10, "model name") != 0) continue;
    size_t colon = line.find(':');
    if (colon == std::string::npos) break;
    size_t start = line.find_first_not_of(" \t", colon + 1);
    if (start == std::string::npos) break;
    return line.substr(start);
  }
  return "unknown";
}
}  // namespace

BenchJsonEmitter::BenchJsonEmitter(std::string artifact,
                                   const BenchParams& params)
    : artifact_(std::move(artifact)) {
  params_.Set("rows", params.rows)
      .Set("queries", params.num_queries)
      .Set("epoch_scale", params.epoch_scale)
      .Set("bootstrap", params.bootstrap_iterations)
      .Set("seed", static_cast<int64_t>(params.seed))
      .Set("host_cores",
           static_cast<int64_t>(std::thread::hardware_concurrency()))
      .Set("host_cpu", HostCpuModel());
}

void BenchJsonEmitter::AddRow(JsonObject row) {
  rows_.push_back(std::move(row));
}

std::string BenchJsonEmitter::Write() const {
  const char* env_dir = std::getenv("DDUP_BENCH_JSON_DIR");
  std::string dir = env_dir != nullptr && env_dir[0] != '\0' ? env_dir : ".";
  if (!EnsureDir(dir)) {
    std::printf("  [json] cannot use DDUP_BENCH_JSON_DIR=%s, skipping\n",
                dir.c_str());
    return "";
  }
  const std::string path = dir + "/BENCH_" + artifact_ + ".json";
  std::string body = "{\n  \"artifact\": \"" + JsonEscape(artifact_) +
                     "\",\n  \"params\": " + params_.Render() +
                     ",\n  \"results\": [";
  for (size_t i = 0; i < rows_.size(); ++i) {
    body += i > 0 ? ",\n    " : "\n    ";
    body += rows_[i].Render();
  }
  body += rows_.empty() ? "]\n}\n" : "\n  ]\n}\n";
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::printf("  [json] cannot open %s for writing, skipping\n",
                path.c_str());
    return "";
  }
  std::fwrite(body.data(), 1, body.size(), f);
  std::fclose(f);
  std::printf("  [json] wrote %s (%zu rows)\n", path.c_str(), rows_.size());
  return path;
}

}  // namespace ddup::bench

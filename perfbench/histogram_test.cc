// Self-test of the fixed-memory latency histogram: on several latency-like
// distributions, every reported quantile must fall within one bucket of the
// exact nearest-rank order statistic of the sorted samples, and merging
// per-thread histograms must equal recording everything into one. Exits
// nonzero on the first violation; run.py runs it before every measurement.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "histogram.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what.c_str());
    ++failures;
  }
}

int64_t ExactNearestRank(const std::vector<int64_t>& sorted, double q) {
  const auto n = static_cast<double>(sorted.size());
  auto rank = static_cast<int64_t>(std::ceil(q * n));
  rank = std::clamp<int64_t>(rank, 1, static_cast<int64_t>(sorted.size()));
  return sorted[static_cast<size_t>(rank - 1)];
}

void CheckDistribution(const std::string& name, std::vector<int64_t> values) {
  using perfbench::Histogram;
  auto whole = std::make_unique<Histogram>();
  auto part_a = std::make_unique<Histogram>();
  auto part_b = std::make_unique<Histogram>();
  for (size_t i = 0; i < values.size(); ++i) {
    whole->Record(values[i]);
    (i % 3 == 0 ? part_a : part_b)->Record(values[i]);
  }
  part_a->Merge(*part_b);
  std::sort(values.begin(), values.end());
  for (double q : {0.01, 0.25, 0.5, 0.9, 0.95, 0.99, 0.999, 1.0}) {
    const int64_t exact = ExactNearestRank(values, q);
    const double estimate = whole->Quantile(q);
    const int distance = std::abs(
        Histogram::BucketOf(static_cast<int64_t>(std::floor(estimate))) -
        Histogram::BucketOf(exact));
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s q=%.3f exact=%lld estimate=%.1f",
                  name.c_str(), q, static_cast<long long>(exact), estimate);
    Expect(distance <= 1, std::string(buf) + " is more than one bucket off");
    Expect(part_a->Quantile(q) == estimate,
           std::string(buf) + ": merged histogram disagrees");
  }
  Expect(part_a->count() == static_cast<int64_t>(values.size()),
         name + ": merged count");
}

}  // namespace

int main() {
  std::mt19937_64 gen(20231017);
  const size_t n = 200000;

  // Unimodal latency: lognormal around 4 us (in ns).
  std::lognormal_distribution<double> lognormal(std::log(4000.0), 0.25);
  std::vector<int64_t> unimodal(n);
  for (auto& v : unimodal) v = static_cast<int64_t>(lognormal(gen));
  CheckDistribution("lognormal", unimodal);

  // Bimodal: two update-path modes 160 ms and 650 ms apart (in ns).
  std::normal_distribution<double> fast(160e6, 10e6), slow(650e6, 30e6);
  std::vector<int64_t> bimodal(n);
  for (size_t i = 0; i < n; ++i) {
    bimodal[i] = static_cast<int64_t>(std::max(0.0, i % 2 ? fast(gen)
                                                          : slow(gen)));
  }
  CheckDistribution("bimodal", bimodal);

  // Heavy tail spanning the exact unit buckets and many octaves.
  std::exponential_distribution<double> tail(1.0 / 50.0);
  std::vector<int64_t> heavy(n);
  for (auto& v : heavy) v = static_cast<int64_t>(std::pow(tail(gen), 2.0));
  CheckDistribution("heavy-tail", heavy);

  // Bucket geometry: every bucket's range maps back onto itself.
  for (int b = 0; b < perfbench::Histogram::kBuckets - 1; ++b) {
    const int64_t low = perfbench::Histogram::BucketLow(b);
    const int64_t high = low + perfbench::Histogram::BucketWidth(b) - 1;
    if (perfbench::Histogram::BucketOf(low) != b ||
        perfbench::Histogram::BucketOf(high) != b) {
      Expect(false, "bucket " + std::to_string(b) + " geometry");
      break;
    }
    if (low > (int64_t{1} << 60)) break;
  }

  if (failures > 0) {
    std::fprintf(stderr, "histogram self-test: %d failure(s)\n", failures);
    return 1;
  }
  std::fprintf(stderr, "histogram self-test: ok\n");
  return 0;
}

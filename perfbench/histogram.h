#ifndef DDUP_PERFBENCH_HISTOGRAM_H_
#define DDUP_PERFBENCH_HISTOGRAM_H_

#include <array>
#include <cstdint>

namespace perfbench {

// Fixed-memory log-linear latency histogram (HDR-style). Values below
// 2^kSubBits land in exact unit buckets; above that, every power-of-two
// range is split into 2^kSubBits linear sub-buckets, so a bucket is never
// wider than 1/128 of the values it holds. Recording is one index
// computation and an increment — no allocation, whatever the sample count —
// so the benchmark's own bookkeeping never shows up in the engine's peak
// RSS. Each client thread owns one histogram; Merge folds them afterwards.
class Histogram {
 public:
  static constexpr int kSubBits = 7;
  static constexpr int64_t kSubBuckets = int64_t{1} << kSubBits;
  static constexpr int kBuckets = 64 * static_cast<int>(kSubBuckets);

  static int BucketOf(int64_t value) {
    if (value < kSubBuckets) return value < 0 ? 0 : static_cast<int>(value);
    const int msb = 63 - __builtin_clzll(static_cast<uint64_t>(value));
    const int shift = msb - kSubBits;
    return static_cast<int>((shift + 1) * kSubBuckets +
                            ((value >> shift) - kSubBuckets));
  }
  // [BucketLow(b), BucketLow(b) + BucketWidth(b)) is bucket b's range.
  static int64_t BucketLow(int bucket) {
    if (bucket < kSubBuckets) return bucket;
    const int shift = bucket / static_cast<int>(kSubBuckets) - 1;
    return (kSubBuckets + bucket % kSubBuckets) << shift;
  }
  static int64_t BucketWidth(int bucket) {
    if (bucket < kSubBuckets) return 1;
    return int64_t{1} << (bucket / static_cast<int>(kSubBuckets) - 1);
  }

  void Record(int64_t value) {
    ++counts_[static_cast<size_t>(BucketOf(value))];
    ++count_;
  }
  void Merge(const Histogram& other) {
    for (size_t i = 0; i < counts_.size(); ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
  }
  int64_t count() const { return count_; }

  // Nearest-rank quantile q in (0, 1], interpolated linearly inside the
  // bucket that holds the rank, so the estimate always lies in the same
  // bucket as the exact order statistic. 0 for an empty histogram.
  double Quantile(double q) const {
    if (count_ == 0) return 0.0;
    int64_t rank = static_cast<int64_t>(q * static_cast<double>(count_));
    if (static_cast<double>(rank) < q * static_cast<double>(count_)) ++rank;
    if (rank < 1) rank = 1;
    if (rank > count_) rank = count_;
    int64_t seen = 0;
    for (int b = 0; b < kBuckets; ++b) {
      const int64_t c = counts_[static_cast<size_t>(b)];
      if (c == 0) continue;
      if (seen + c >= rank) {
        const double within = (static_cast<double>(rank - seen) - 0.5) /
                              static_cast<double>(c);
        return static_cast<double>(BucketLow(b)) +
               within * static_cast<double>(BucketWidth(b));
      }
      seen += c;
    }
    return 0.0;
  }

 private:
  std::array<int64_t, kBuckets> counts_{};
  int64_t count_ = 0;
};

}  // namespace perfbench

#endif  // DDUP_PERFBENCH_HISTOGRAM_H_

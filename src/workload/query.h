#ifndef DDUP_WORKLOAD_QUERY_H_
#define DDUP_WORKLOAD_QUERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "storage/table.h"

namespace ddup::workload {

enum class CompareOp { kEq, kGe, kLe };

// One conjunct: column <op> value. For categorical columns the value is the
// dictionary code (equality only in generated workloads, matching §5.1.2).
struct Predicate {
  int column = -1;
  CompareOp op = CompareOp::kEq;
  double value = 0.0;
};

enum class AggFunc { kCount, kSum, kAvg };

// SELECT AGG(agg_column) FROM T WHERE pred_1 AND ... AND pred_d  (§5.1.2).
struct Query {
  std::vector<Predicate> predicates;
  AggFunc agg = AggFunc::kCount;
  int agg_column = -1;  // required for SUM/AVG

  std::string ToString(const storage::Table& table) const;
};

// True iff row `row` of `table` satisfies every predicate.
bool RowMatches(const storage::Table& table, const Query& query, int64_t row);

// A set of queries submitted for estimation as one unit, so the models'
// batch overrides can amortize per-call work — weight freezing, scratch
// acquisition, kernel dispatch — across all of them. The batch carries no
// execution state; it is a plain value the caller can reuse and re-split.
// Estimate results are defined per query (keyed on each query's content,
// see QueryFingerprint), so splitting or concatenating batches never
// changes any individual answer.
struct QueryBatch {
  std::vector<Query> queries;

  QueryBatch() = default;
  explicit QueryBatch(std::vector<Query> qs) : queries(std::move(qs)) {}

  int64_t size() const { return static_cast<int64_t>(queries.size()); }
  bool empty() const { return queries.empty(); }
  void Add(Query q) { queries.push_back(std::move(q)); }
};

// Order-sensitive 64-bit FNV-1a hash over the query's canonical encoding
// (predicates in stored order: column, op, value bits; then agg and
// agg_column). Stateful estimators derive their per-query RNG stream from
// (model seed, fingerprint), which is what makes estimates batch-size- and
// call-order-independent: the same query gets the same stream whether it is
// estimated alone, first in a batch of 64, or repeated twice.
uint64_t QueryFingerprint(const Query& query);

}  // namespace ddup::workload

#endif  // DDUP_WORKLOAD_QUERY_H_

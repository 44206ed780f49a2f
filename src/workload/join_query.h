#ifndef DDUP_WORKLOAD_JOIN_QUERY_H_
#define DDUP_WORKLOAD_JOIN_QUERY_H_

#include <cstdint>
#include <string>
#include <vector>

#include "workload/query.h"

namespace ddup::workload {

// Structured multi-table queries (DESIGN.md §14). `Query` knows only column
// indices of a single table; everything that spans tables is expressed here:
// predicates qualified by table name, equi-join edges between named tables,
// and an aggregate spec. The api::QueryRouter plans these against an
// api::Engine's registered tables.

// One table-qualified conjunct of a multi-table query. The column index is
// relative to the named table's schema (same convention as Predicate).
struct BoundPredicate {
  std::string table;
  Predicate predicate;
};

// One equi-join edge: left_table.left_column = right_table.right_column.
// Columns are named (the storage::HashJoin convention); the router resolves
// and type-checks them against the registered schemas at plan time. Edges
// are undirected — flipping left and right does not change the query (the
// fingerprint canonicalizes the orientation away).
struct JoinEdge {
  std::string left_table;
  std::string left_column;
  std::string right_table;
  std::string right_column;
};

// SELECT COUNT(*) FROM t_1 ⋈ ... ⋈ t_k WHERE conj_1 AND ... AND conj_d,
// with the equi-join edges as the join graph. The graph must form a tree
// over the referenced tables (acyclic, connected); the router rejects
// anything else with a typed plan error. SUM/AVG over joins is not served
// yet — agg must be kCount (see DESIGN.md §14 for the roadmap).
struct JoinQuery {
  std::vector<BoundPredicate> predicates;
  std::vector<JoinEdge> joins;
  AggFunc agg = AggFunc::kCount;
  std::string agg_table;  // reserved for SUM/AVG
  int agg_column = -1;    // reserved for SUM/AVG

  // Sorted, de-duplicated names of every table the query references
  // (through a predicate, an edge, or the aggregate).
  std::vector<std::string> ReferencedTables() const;
};

// A set of join queries submitted as one unit, mirroring QueryBatch: the
// router groups the per-table subqueries of all queries in the batch into
// one QueryBatch per table, so the models' batch overrides amortize their
// per-call work across the whole join workload.
struct JoinQueryBatch {
  std::vector<JoinQuery> queries;

  JoinQueryBatch() = default;
  explicit JoinQueryBatch(std::vector<JoinQuery> qs) : queries(std::move(qs)) {}

  int64_t size() const { return static_cast<int64_t>(queries.size()); }
  bool empty() const { return queries.empty(); }
  void Add(JoinQuery q) { queries.push_back(std::move(q)); }
};

// Canonical 64-bit fingerprint over the join query's *content*, extending
// QueryFingerprint to the multi-table case. Unlike the (deliberately
// order-sensitive) single-table fingerprint, this one is canonical:
// reordering predicates, reordering edges, or flipping an edge's sides
// yields the same fingerprint, because none of those change the query.
// Together with CanonicalizeJoinQuery below this is what carries the PR 7
// batch-/call-order-invariance guarantees over to joins: one logical join
// query maps to one fingerprint and to one set of per-table subquery
// fingerprints, no matter how the caller spelled it.
uint64_t JoinQueryFingerprint(const JoinQuery& query);

// In-place canonical form: predicates sorted by (table, column, op, value
// bits), edges each oriented so (left_table, left_column) <=
// (right_table, right_column) lexicographically and then sorted. The
// router's planner works on the canonical form, so the per-table subqueries
// it emits — and therefore their QueryFingerprints and RNG streams — are
// identical for every spelling of the same query.
void CanonicalizeJoinQuery(JoinQuery* query);

}  // namespace ddup::workload

#endif  // DDUP_WORKLOAD_JOIN_QUERY_H_

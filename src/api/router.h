#ifndef DDUP_API_ROUTER_H_
#define DDUP_API_ROUTER_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/status.h"
#include "workload/join_query.h"

namespace ddup::api {

class Engine;

// ---------------------------------------------------------------------------
// Typed planning errors. Plan() and the estimate call return Status, but
// every planning failure carries one of these machine-readable codes (as a
// stable "[plan:<tag>]" message prefix) so callers can branch on the cause
// without string-matching ad-hoc prose. PlanErrorFromStatus recovers the
// code; MakePlanError builds the Status (used by the router internally).
// ---------------------------------------------------------------------------
enum class PlanError {
  kEmptyQuery,            // the query references no tables at all
  kUnknownTable,          // a referenced table is not registered
  kUnknownColumn,         // a predicate/edge column is not in its schema
  kJoinTypeMismatch,      // numeric joined with categorical (or dicts differ)
  kDisconnectedJoinGraph, // >1 referenced table not connected by the edges
  kCyclicJoinGraph,       // the edges contain a cycle (incl. self-joins)
  kUnsupportedAggregate,  // join queries serve COUNT only (DESIGN.md §14)
};

// Stable tag for the "[plan:<tag>]" message prefix, e.g. "unknown-table".
const char* ToString(PlanError error);
// Status with code kNotFound (kUnknownTable) or kInvalidArgument (others)
// and the message "[plan:<tag>] <message>".
Status MakePlanError(PlanError error, const std::string& message);
// Recovers the typed code from a planning Status; nullopt for any Status
// that did not come out of the planner.
std::optional<PlanError> PlanErrorFromStatus(const Status& status);

// ---------------------------------------------------------------------------
// Join-size combiners. A combiner turns per-table and per-edge statistics
// plus the models' per-table selectivities into one join-cardinality
// estimate; which one is right depends on assumptions about the data that
// the router deliberately refuses to bake in ("Are We Ready For Learned
// Cardinality Estimation?" — the combination assumption dominates the error
// on real joins). Registered combiners:
//
//   "join-uniformity" (default): System-R-style containment + uniformity.
//     |A ⋈ B| = |A||B| / max(ndv(A.a), ndv(B.b)) per edge. Assumes the
//     smaller key-value set is contained in the larger and values are
//     uniformly distributed; degrades under key skew.
//
//   "fanout-scaling": DeepDB-style referential fanout. Each edge expands
//     the parent side by the child's average per-key fanout:
//     |A ⋈ B| = |A| * |B| / ndv(B.b) with B the child (away from the plan
//     root). Assumes every parent row finds a match (referential
//     integrity); overestimates when parent keys dangle or when the
//     orientation puts a non-key side in the denominator.
//
// Both multiply the per-table predicate selectivities independently — the
// cross-table independence assumption is shared and explicit (§14 documents
// the failure modes). Combiners are stateless process-lifetime singletons.
// ---------------------------------------------------------------------------
struct CombinerTableTerm {
  std::string table;
  int64_t rows = 0;
  // Model-estimated selectivity of this table's predicates in [0, 1];
  // 1.0 for a table the query does not filter.
  double selectivity = 1.0;
};

struct CombinerEdgeTerm {
  // Parent = nearer the plan root, child = the table the edge attaches.
  int64_t parent_rows = 0;
  int64_t parent_ndv = 0;
  int64_t child_rows = 0;
  int64_t child_ndv = 0;
};

class JoinCombiner {
 public:
  virtual ~JoinCombiner() = default;

  virtual std::string name() const = 0;

  // Estimated cardinality of the predicated join described by the terms.
  // `tables` has one entry per referenced table, `edges` one per join edge
  // (|tables| - 1 of them; the plan is a tree).
  virtual double EstimateJoinCardinality(
      const std::vector<CombinerTableTerm>& tables,
      const std::vector<CombinerEdgeTerm>& edges) const = 0;
};

// nullptr for an unknown name.
const JoinCombiner* FindJoinCombiner(const std::string& name);
// Sorted names of every registered combiner.
std::vector<std::string> RegisteredJoinCombiners();
inline constexpr const char* kDefaultJoinCombiner = "join-uniformity";

// ---------------------------------------------------------------------------
// The executable shape of a validated join query: the canonical per-table
// subqueries plus the join tree oriented away from the root. Produced by
// QueryRouter::Plan; exposed so tests and benches can inspect planning
// decisions without running an estimate.
// ---------------------------------------------------------------------------
struct PlannedSubquery {
  std::string table;
  workload::Query query;  // predicates in canonical order
};

struct PlannedEdge {
  std::string parent_table;
  std::string parent_column;
  std::string child_table;
  std::string child_column;
};

struct JoinPlan {
  std::vector<std::string> tables;  // sorted referenced tables
  // Root of the join tree: the lexicographically smallest referenced table.
  // Deterministic and schema-only, so one logical query always yields the
  // same plan (and the same subquery fingerprints) regardless of data.
  std::string root;
  std::vector<PlannedEdge> edges;            // BFS order from the root
  std::vector<PlannedSubquery> subqueries;   // predicated tables, sorted
};

// ---------------------------------------------------------------------------
// QueryRouter: plans and executes multi-table estimates against an Engine.
//
// Estimate calls are lock-free in the same sense as the Engine's own read
// path: per table they take one atomic load of the published ServingView
// (model + estimator interfaces) and one of the published TableStats
// snapshot, then never touch shared mutable state — concurrent background
// update workers publish new snapshots without blocking routers, and a
// router call observes each table at exactly one snapshot.
//
// Batched execution: all subqueries that land on one table — across every
// join query in the batch — run as a single TryEstimateCardinalityBatch
// call on that table's model, so the models' vectorized paths amortize
// across the join workload. Answers are deterministic and
// batch-/order-invariant per join query (canonical subqueries keep the
// per-query RNG streams stable; see workload/join_query.h).
//
// The router does not own the Engine; it is a cheap value to construct per
// call or to keep around, and is itself stateless and const.
// ---------------------------------------------------------------------------
class QueryRouter {
 public:
  explicit QueryRouter(const Engine* engine) : engine_(engine) {}

  // Validates and plans `query` against the registered tables: resolves
  // every referenced table and column, type-checks the equi-join columns,
  // checks the join graph is a tree, splits the predicates into canonical
  // per-table subqueries and orients the edges away from the root. Fails
  // with a typed plan error (see PlanError) — never with ad-hoc strings.
  StatusOr<JoinPlan> Plan(const workload::JoinQuery& query) const;

  // Plans and executes join-cardinality estimates under the named combiner
  // ("" = kDefaultJoinCombiner): answers[i] corresponds to batch.queries[i],
  // each bit-identical to the batch-of-1 call for that query. Fails fast on
  // the first invalid query; the error is prefixed "join query <i>: ".
  // FailedPrecondition if a predicated table has no model attached or its
  // model kind does not serve cardinality estimates.
  StatusOr<std::vector<double>> EstimateCardinalityBatch(
      const workload::JoinQueryBatch& batch,
      const std::string& combiner = {}) const;

 private:
  const Engine* engine_;
};

}  // namespace ddup::api

#endif  // DDUP_API_ROUTER_H_

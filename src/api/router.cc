#include "api/router.h"

#include <algorithm>
#include <map>
#include <utility>

#include "api/engine.h"
#include "storage/stats.h"

namespace ddup::api {

namespace {

constexpr PlanError kAllPlanErrors[] = {
    PlanError::kEmptyQuery,           PlanError::kUnknownTable,
    PlanError::kUnknownColumn,        PlanError::kJoinTypeMismatch,
    PlanError::kDisconnectedJoinGraph, PlanError::kCyclicJoinGraph,
    PlanError::kUnsupportedAggregate,
};

std::string JoinedNames(const std::vector<std::string>& names) {
  std::string joined;
  for (const auto& name : names) {
    if (!joined.empty()) joined += ", ";
    joined += name;
  }
  return joined;
}

const char* TypeName(storage::ColumnType type) {
  return type == storage::ColumnType::kNumeric ? "numeric" : "categorical";
}

Status PrefixedError(size_t index, const Status& status) {
  return Status(status.code(), "join query " + std::to_string(index) + ": " +
                                   status.message());
}

// ---------------------------------------------------------------------------
// Combiners. Both refuse to divide by a non-positive NDV (an empty table on
// that side means the join is empty) and both return 0 as soon as any
// referenced table has no rows.
// ---------------------------------------------------------------------------

double SelectedRowProduct(const std::vector<CombinerTableTerm>& tables,
                          bool* empty) {
  double product = 1.0;
  *empty = false;
  for (const CombinerTableTerm& t : tables) {
    if (t.rows <= 0) {
      *empty = true;
      return 0.0;
    }
    product *= static_cast<double>(t.rows) * t.selectivity;
  }
  return product;
}

class JoinUniformityCombiner : public JoinCombiner {
 public:
  std::string name() const override { return "join-uniformity"; }

  double EstimateJoinCardinality(
      const std::vector<CombinerTableTerm>& tables,
      const std::vector<CombinerEdgeTerm>& edges) const override {
    bool empty = false;
    double est = SelectedRowProduct(tables, &empty);
    if (empty) return 0.0;
    for (const CombinerEdgeTerm& e : edges) {
      const int64_t denom = std::max(e.parent_ndv, e.child_ndv);
      if (denom <= 0) return 0.0;
      est /= static_cast<double>(denom);
    }
    return est;
  }
};

class FanoutScalingCombiner : public JoinCombiner {
 public:
  std::string name() const override { return "fanout-scaling"; }

  double EstimateJoinCardinality(
      const std::vector<CombinerTableTerm>& tables,
      const std::vector<CombinerEdgeTerm>& edges) const override {
    bool empty = false;
    double est = SelectedRowProduct(tables, &empty);
    if (empty) return 0.0;
    for (const CombinerEdgeTerm& e : edges) {
      if (e.child_ndv <= 0) return 0.0;
      est /= static_cast<double>(e.child_ndv);
    }
    return est;
  }
};

}  // namespace

const char* ToString(PlanError error) {
  switch (error) {
    case PlanError::kEmptyQuery:
      return "empty-query";
    case PlanError::kUnknownTable:
      return "unknown-table";
    case PlanError::kUnknownColumn:
      return "unknown-column";
    case PlanError::kJoinTypeMismatch:
      return "join-type-mismatch";
    case PlanError::kDisconnectedJoinGraph:
      return "disconnected-join-graph";
    case PlanError::kCyclicJoinGraph:
      return "cyclic-join-graph";
    case PlanError::kUnsupportedAggregate:
      return "unsupported-aggregate";
  }
  return "unknown";
}

Status MakePlanError(PlanError error, const std::string& message) {
  std::string tagged = std::string("[plan:") + ToString(error) + "] " + message;
  if (error == PlanError::kUnknownTable) {
    return Status::NotFound(std::move(tagged));
  }
  return Status::InvalidArgument(std::move(tagged));
}

std::optional<PlanError> PlanErrorFromStatus(const Status& status) {
  if (status.ok()) return std::nullopt;
  // Tolerate the batch "join query <i>: " prefix in front of the tag.
  const std::string& m = status.message();
  const size_t open = m.find("[plan:");
  if (open == std::string::npos) return std::nullopt;
  const size_t start = open + 6;
  const size_t close = m.find(']', start);
  if (close == std::string::npos) return std::nullopt;
  const std::string tag = m.substr(start, close - start);
  for (PlanError e : kAllPlanErrors) {
    if (tag == ToString(e)) return e;
  }
  return std::nullopt;
}

const JoinCombiner* FindJoinCombiner(const std::string& name) {
  static const JoinUniformityCombiner* uniformity =
      new JoinUniformityCombiner();
  static const FanoutScalingCombiner* fanout = new FanoutScalingCombiner();
  if (name == uniformity->name()) return uniformity;
  if (name == fanout->name()) return fanout;
  return nullptr;
}

std::vector<std::string> RegisteredJoinCombiners() {
  return {"fanout-scaling", "join-uniformity"};
}

StatusOr<JoinPlan> QueryRouter::Plan(const workload::JoinQuery& query) const {
  // The planner works on the canonical form, so one logical query always
  // yields one plan (and one set of subquery fingerprints).
  workload::JoinQuery canonical = query;
  workload::CanonicalizeJoinQuery(&canonical);

  if (canonical.agg != workload::AggFunc::kCount) {
    return MakePlanError(
        PlanError::kUnsupportedAggregate,
        "join queries serve COUNT only; SUM/AVG over joins is not supported "
        "yet");
  }
  JoinPlan plan;
  plan.tables = canonical.ReferencedTables();
  if (plan.tables.empty()) {
    return MakePlanError(PlanError::kEmptyQuery,
                         "the query references no tables");
  }

  // Resolve every referenced table's schema (column names + types) from its
  // published stats snapshot — plan time takes no table lock either.
  std::map<std::string, std::shared_ptr<const storage::TableStats>> schemas;
  for (const std::string& t : plan.tables) {
    StatusOr<std::shared_ptr<Engine::TableState>> found =
        engine_->FindTable(t);
    if (!found.ok()) {
      return MakePlanError(PlanError::kUnknownTable,
                           "no table named '" + t + "' is registered");
    }
    schemas[t] = std::atomic_load(&found.value()->stats);
  }

  // Predicate columns are indices into their table's schema.
  for (const workload::BoundPredicate& p : canonical.predicates) {
    const storage::TableStats& schema = *schemas.at(p.table);
    if (p.predicate.column < 0 ||
        p.predicate.column >= static_cast<int>(schema.columns.size())) {
      return MakePlanError(
          PlanError::kUnknownColumn,
          "table '" + p.table + "' has no column index " +
              std::to_string(p.predicate.column) + " (it has " +
              std::to_string(schema.columns.size()) + " columns)");
    }
  }

  // Edge columns are names; resolve and type-check both sides.
  for (const workload::JoinEdge& e : canonical.joins) {
    const storage::TableStats& left = *schemas.at(e.left_table);
    const storage::TableStats& right = *schemas.at(e.right_table);
    const int li = left.ColumnIndex(e.left_column);
    if (li < 0) {
      return MakePlanError(PlanError::kUnknownColumn,
                           "table '" + e.left_table + "' has no column '" +
                               e.left_column + "'");
    }
    const int ri = right.ColumnIndex(e.right_column);
    if (ri < 0) {
      return MakePlanError(PlanError::kUnknownColumn,
                           "table '" + e.right_table + "' has no column '" +
                               e.right_column + "'");
    }
    if (left.types[static_cast<size_t>(li)] !=
        right.types[static_cast<size_t>(ri)]) {
      return MakePlanError(
          PlanError::kJoinTypeMismatch,
          "cannot equi-join " + e.left_table + "." + e.left_column + " (" +
              TypeName(left.types[static_cast<size_t>(li)]) + ") with " +
              e.right_table + "." + e.right_column + " (" +
              TypeName(right.types[static_cast<size_t>(ri)]) + ")");
    }
    if (e.left_table == e.right_table) {
      return MakePlanError(PlanError::kCyclicJoinGraph,
                           "self-join edge on table '" + e.left_table +
                               "' forms a cycle");
    }
  }

  // The join graph must be a tree over the referenced tables. BFS from the
  // root (the lexicographically smallest table — plan.tables is sorted)
  // both verifies connectivity and orients every edge parent -> child.
  plan.root = plan.tables.front();
  std::map<std::string, std::vector<size_t>> adjacency;
  for (size_t i = 0; i < canonical.joins.size(); ++i) {
    adjacency[canonical.joins[i].left_table].push_back(i);
    adjacency[canonical.joins[i].right_table].push_back(i);
  }
  std::map<std::string, bool> visited;
  for (const std::string& t : plan.tables) visited[t] = false;
  std::vector<std::string> frontier{plan.root};
  visited[plan.root] = true;
  while (!frontier.empty()) {
    std::vector<std::string> next;
    for (const std::string& current : frontier) {
      for (size_t i : adjacency[current]) {
        const workload::JoinEdge& e = canonical.joins[i];
        const bool from_left = (e.left_table == current);
        const std::string& other = from_left ? e.right_table : e.left_table;
        if (visited[other]) continue;
        visited[other] = true;
        PlannedEdge oriented;
        oriented.parent_table = current;
        oriented.parent_column = from_left ? e.left_column : e.right_column;
        oriented.child_table = other;
        oriented.child_column = from_left ? e.right_column : e.left_column;
        plan.edges.push_back(std::move(oriented));
        next.push_back(other);
      }
    }
    frontier = std::move(next);
  }
  for (const auto& [table, seen] : visited) {
    if (!seen) {
      return MakePlanError(
          PlanError::kDisconnectedJoinGraph,
          "table '" + table + "' is not connected to '" + plan.root +
              "' by the join edges");
    }
  }
  if (canonical.joins.size() != plan.tables.size() - 1) {
    // Connected with more than |tables| - 1 edges means a cycle (possibly a
    // duplicated edge between the same pair of tables).
    return MakePlanError(
        PlanError::kCyclicJoinGraph,
        "the join graph has " + std::to_string(canonical.joins.size()) +
            " edges over " + std::to_string(plan.tables.size()) +
            " tables; a join tree needs exactly " +
            std::to_string(plan.tables.size() - 1));
  }

  // Split the (already canonically sorted) predicates into per-table
  // subqueries; tables without predicates get none (selectivity 1).
  for (const workload::BoundPredicate& p : canonical.predicates) {
    if (plan.subqueries.empty() || plan.subqueries.back().table != p.table) {
      PlannedSubquery sub;
      sub.table = p.table;
      plan.subqueries.push_back(std::move(sub));
    }
    plan.subqueries.back().query.predicates.push_back(p.predicate);
  }
  return plan;
}

StatusOr<std::vector<double>> QueryRouter::EstimateCardinalityBatch(
    const workload::JoinQueryBatch& batch, const std::string& combiner) const {
  const std::string& name =
      combiner.empty() ? std::string(kDefaultJoinCombiner) : combiner;
  const JoinCombiner* comb = FindJoinCombiner(name);
  if (comb == nullptr) {
    return Status::InvalidArgument(
        "unknown join combiner '" + name +
        "'; registered: " + JoinedNames(RegisteredJoinCombiners()));
  }

  // Plan every query first — fail fast before any estimate runs.
  std::vector<JoinPlan> plans;
  plans.reserve(batch.queries.size());
  for (size_t i = 0; i < batch.queries.size(); ++i) {
    StatusOr<JoinPlan> plan = Plan(batch.queries[i]);
    if (!plan.ok()) return PrefixedError(i, plan.status());
    plans.push_back(std::move(plan).value());
  }

  // One snapshot per referenced table for the whole batch: a single atomic
  // load of the serving view and of the stats — concurrent update workers
  // publish new ones without blocking us, and every subquery of this call
  // sees one consistent per-table snapshot.
  struct TableSnapshot {
    std::shared_ptr<const Engine::TableState::ServingView> view;
    std::shared_ptr<const storage::TableStats> stats;
    std::string model_kind;
    workload::QueryBatch subqueries;   // gathered across the whole batch
    std::vector<double> answers;
    size_t cursor = 0;
  };
  std::map<std::string, TableSnapshot> snapshots;
  for (const JoinPlan& plan : plans) {
    for (const std::string& t : plan.tables) {
      if (snapshots.count(t) > 0) continue;
      StatusOr<std::shared_ptr<Engine::TableState>> found =
          engine_->FindTable(t);
      if (!found.ok()) return found.status();
      TableSnapshot& snap = snapshots[t];
      snap.view = std::atomic_load(&found.value()->serving);
      snap.stats = std::atomic_load(&found.value()->stats);
      snap.model_kind = found.value()->spec.kind;
    }
  }

  // Gather all subqueries per table across the batch, then run each table's
  // gathered batch through its model's batch override once.
  for (const JoinPlan& plan : plans) {
    for (const PlannedSubquery& sub : plan.subqueries) {
      snapshots.at(sub.table).subqueries.Add(sub.query);
    }
  }
  for (auto& [table, snap] : snapshots) {
    if (snap.subqueries.queries.empty()) continue;
    if (snap.view == nullptr) {
      return Status::FailedPrecondition("table '" + table +
                                        "' has no model attached yet");
    }
    if (snap.view->card == nullptr) {
      return Status::FailedPrecondition(
          "model kind '" + snap.model_kind + "' on table '" + table +
          "' does not serve cardinality estimates");
    }
    Status run = snap.view->card->TryEstimateCardinalityBatch(
        snap.subqueries.queries, &snap.answers);
    if (!run.ok()) {
      return Status(run.code(), "table '" + table + "': " + run.message());
    }
  }

  // Combine: per query, per-table selectivities (estimate / rows, clamped
  // to [0, 1]) and per-edge NDVs from the same snapshots.
  std::vector<double> out;
  out.reserve(plans.size());
  for (const JoinPlan& plan : plans) {
    std::vector<CombinerTableTerm> tables;
    tables.reserve(plan.tables.size());
    std::map<std::string, double> selectivity;
    for (const PlannedSubquery& sub : plan.subqueries) {
      TableSnapshot& snap = snapshots.at(sub.table);
      const double estimate = snap.answers[snap.cursor++];
      const double rows = static_cast<double>(snap.stats->rows);
      double sel = rows > 0 ? estimate / rows : 1.0;
      sel = std::min(1.0, std::max(0.0, sel));
      selectivity[sub.table] = sel;
    }
    for (const std::string& t : plan.tables) {
      CombinerTableTerm term;
      term.table = t;
      term.rows = snapshots.at(t).stats->rows;
      auto it = selectivity.find(t);
      term.selectivity = it == selectivity.end() ? 1.0 : it->second;
      tables.push_back(std::move(term));
    }
    std::vector<CombinerEdgeTerm> edges;
    edges.reserve(plan.edges.size());
    for (const PlannedEdge& e : plan.edges) {
      const storage::TableStats& parent =
          *snapshots.at(e.parent_table).stats;
      const storage::TableStats& child = *snapshots.at(e.child_table).stats;
      CombinerEdgeTerm term;
      term.parent_rows = parent.rows;
      term.parent_ndv = parent.NdvOf(e.parent_column);
      term.child_rows = child.rows;
      term.child_ndv = child.NdvOf(e.child_column);
      edges.push_back(term);
    }
    out.push_back(comb->EstimateJoinCardinality(tables, edges));
  }
  return out;
}

}  // namespace ddup::api

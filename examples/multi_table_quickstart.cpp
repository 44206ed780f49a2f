// Multi-table quickstart: the engine-level join path from README in ~80
// lines, verified end to end and registered as a ctest target.
//
//   1. A tiny star schema — orders (fact) joined to customers and nations —
//      registered as three engine tables. Only the predicated fact table
//      needs a model; the dimensions enter the join math through their
//      exact stats snapshots (row count + per-column NDV) alone.
//   2. Structured multi-table queries: workload::JoinQuery holds
//      table-qualified predicates plus equi-join edges. Engine::Estimate
//      takes them in the join shape of EstimateRequest; its
//      api::QueryRouter plans them (typed plan errors), fans per-table
//      subqueries out against the serving snapshots, and combines the
//      selectivities under a chosen assumption.
//   3. Both registered combiners on a clean foreign-key join, where each
//      must reproduce the exact join size; then a typed planning error.
//
// Build & run:  ./build/examples/multi_table_quickstart
#include <cstdio>
#include <string>
#include <vector>

#include "api/engine.h"
#include "api/router.h"
#include "storage/column.h"
#include "storage/table.h"
#include "workload/join_query.h"

namespace {

using ddup::api::Engine;
using ddup::api::EstimateRequest;
using ddup::api::QueryRouter;

bool Check(bool ok, const char* what) {
  std::printf("  [%s] %s\n", ok ? "ok" : "FAIL", what);
  return ok;
}

}  // namespace

int main() {
  std::printf("ddup multi-table quickstart — joins through the router\n");
  bool all_ok = true;

  // --- A star schema behind one engine -------------------------------------
  // 24 customers across 6 nations; 240 orders, each from a known customer.
  std::vector<double> nation_key, customer_key, customer_nation;
  for (int i = 0; i < 6; ++i) nation_key.push_back(i);
  for (int i = 0; i < 24; ++i) {
    customer_key.push_back(i);
    customer_nation.push_back(i % 6);
  }
  std::vector<double> order_customer, order_price;
  for (int i = 0; i < 240; ++i) {
    order_customer.push_back(i % 24);
    order_price.push_back(10.0 * (i % 10));
  }
  ddup::storage::Table nations("nations");
  nations.AddColumn(ddup::storage::Column::Numeric("n_key", nation_key));
  ddup::storage::Table customers("customers");
  customers.AddColumn(ddup::storage::Column::Numeric("c_key", customer_key));
  customers.AddColumn(
      ddup::storage::Column::Numeric("c_nation", customer_nation));
  ddup::storage::Table orders("orders");
  orders.AddColumn(ddup::storage::Column::Numeric("o_customer",
                                                  order_customer));
  orders.AddColumn(ddup::storage::Column::Numeric("o_price", order_price));

  ddup::api::EngineConfig config;
  Engine engine(config);
  all_ok &= Check(engine.CreateTable("orders", orders).ok(), "create orders");
  all_ok &= Check(engine.CreateTable("customers", customers).ok(),
                  "create customers");
  all_ok &=
      Check(engine.CreateTable("nations", nations).ok(), "create nations");
  // The fact table carries the predicates, so it gets a cardinality model.
  all_ok &= Check(
      engine
          .AttachModel("orders",
                       {"spn", {{"min_instances_slice", "64"}, {"seed", "7"}}})
          .ok(),
      "attach spn to orders");

  // --- A structured join query ---------------------------------------------
  // COUNT(orders ⋈ customers ⋈ nations WHERE o_price <= 40): predicates are
  // (table, single-table predicate) pairs, joins are equi-join edges.
  ddup::workload::JoinQuery query;
  query.joins.push_back({"orders", "o_customer", "customers", "c_key"});
  query.joins.push_back({"customers", "c_nation", "nations", "n_key"});
  ddup::workload::BoundPredicate price;
  price.table = "orders";
  price.predicate = {1, ddup::workload::CompareOp::kLe, 40.0};
  query.predicates.push_back(price);

  auto plan = QueryRouter(&engine).Plan(query);
  if (!Check(plan.ok(), "plan resolves the join graph")) return 1;
  std::printf("      root=%s tables=%zu edges=%zu subqueries=%zu\n",
              plan.value().root.c_str(), plan.value().tables.size(),
              plan.value().edges.size(), plan.value().subqueries.size());

  // Every foreign key hits a unique dimension key, so with the predicate
  // removed the exact join size is rows(orders) = 240 and both combiners
  // must reproduce it from the stats snapshots alone.
  ddup::workload::JoinQuery unfiltered;
  unfiltered.joins = query.joins;
  EstimateRequest request;
  request.joins.Add(unfiltered);
  for (const std::string& combiner : ddup::api::RegisteredJoinCombiners()) {
    request.combiner = combiner;
    auto estimate = engine.Estimate(request);
    if (!Check(estimate.ok(), ("estimate under " + combiner).c_str())) {
      return 1;
    }
    std::printf("      %-16s unfiltered join -> %.1f rows\n", combiner.c_str(),
                estimate.value().answers[0]);
    all_ok &= Check(estimate.value().answers[0] == 240.0,
                    ("clean-FK join exact under " + combiner).c_str());
  }

  // With the predicate on: 5 of 10 price values pass, and the SPN sees the
  // marginal exactly, so the combined estimate lands on 120.
  EstimateRequest filtered;
  filtered.joins.Add(query);
  auto estimate = engine.Estimate(filtered);
  if (!Check(estimate.ok(), "filtered join estimate")) return 1;
  std::printf("      filtered join (o_price <= 40) -> %.1f rows\n",
              estimate.value().answers[0]);

  // --- Typed planning errors -----------------------------------------------
  ddup::workload::JoinQuery bad = query;
  bad.joins.push_back({"orders", "o_price", "suppliers", "s_key"});
  EstimateRequest bad_request;
  bad_request.joins.Add(bad);
  auto err = engine.Estimate(bad_request);
  auto code = ddup::api::PlanErrorFromStatus(err.status());
  all_ok &= Check(!err.ok() && code.has_value() &&
                      code.value() == ddup::api::PlanError::kUnknownTable,
                  "unknown table is a typed plan error");
  std::printf("      %s\n", err.status().ToString().c_str());

  if (!all_ok) {
    std::printf("multi_table_quickstart: FAILED\n");
    return 1;
  }
  std::printf("multi_table_quickstart: OK\n");
  return 0;
}

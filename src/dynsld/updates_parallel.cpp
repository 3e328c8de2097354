// Theorem 1.3 (§3.2): parallel single updates. Insertions extract both
// characteristic spines into arrays, merge them with the parallel merge
// primitive, and bulk-apply the changed pointers. Deletions extract the
// spines, run the piece-oracle side tests, and keep each side with an
// order-preserving parallel filter (erase_batch's shape, erase_cut).
#include "dynsld/dyn_sld.hpp"
#include "parallel/primitives.hpp"
#include "parallel/stats.hpp"

namespace dynsld {

void DynSLD::merge_spines_parallel(edge_id a, edge_id b) {
  std::vector<edge_id> sa = extract_spine(a);
  std::vector<edge_id> sb = extract_spine(b);
  stats::bump(stats::counters().spine_nodes_touched, sa.size() + sb.size());
  auto by_rank = [this](edge_id x, edge_id y) { return rank_of(x) < rank_of(y); };
  std::vector<edge_id> merged(sa.size() + sb.size());
  par::merge<edge_id>(sa, sb, std::span<edge_id>(merged), by_rank);

  // New parent of merged[i] is merged[i+1]; the overall top stays a
  // root (both inputs were full root chains). Collect only real
  // changes, in parallel.
  const size_t m = merged.size();
  std::vector<char> differs(m, 0);
  par::parallel_for(0, m - 1, [&](size_t i) {
    differs[i] = dendro_.parent(merged[i]) != merged[i + 1] ? 1 : 0;
  });
  std::vector<std::pair<edge_id, edge_id>> changes;
  changes.reserve(m);
  for (size_t i = 0; i + 1 < m; ++i) {
    if (differs[i]) changes.emplace_back(merged[i], merged[i + 1]);
  }
  apply_changes_tracked(changes);
}

edge_id DynSLD::insert_parallel(vertex_id u, vertex_id v, double w) {
  InsertPlan plan = prepare_insert(u, v, w);
  if (plan.eu != kNoEdge) merge_spines_parallel(plan.e, plan.eu);
  if (plan.ev != kNoEdge) merge_spines_parallel(plan.e, plan.ev);
  return plan.e;
}

void DynSLD::erase_parallel(edge_id e) {
  erase_cut(std::span<const edge_id>(&e, 1), /*label_every_piece=*/false);
}

}  // namespace dynsld

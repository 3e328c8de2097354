#include "engine/epoch.hpp"

#include <algorithm>
#include <numeric>

#include "engine/cluster_view.hpp"

namespace dynsld::engine {

CrossEdgeView::CrossEdgeView(std::vector<Edge> edges)
    : edges_(std::move(edges)) {
  std::sort(edges_.begin(), edges_.end(),
            [](const Edge& a, const Edge& b) { return a.w < b.w; });
}

size_t CrossEdgeView::sub_tau_prefix(double tau) const {
  auto it = std::upper_bound(
      edges_.begin(), edges_.end(), tau,
      [](double t, const Edge& e) { return t < e.w; });
  return static_cast<size_t>(it - edges_.begin());
}

size_t EngineSnapshot::num_tree_edges() const {
  size_t total = 0;
  for (const auto& s : shards_) total += s->num_nodes();
  return total;
}

std::vector<vertex_id> EngineSnapshot::flat_clustering(double tau) const {
  // Non-owning alias: the caller's shared_ptr keeps the epoch alive.
  return ThresholdView(EpochManager::Snap(std::shared_ptr<void>(), this), tau)
      .flat_clustering();
}

}  // namespace dynsld::engine

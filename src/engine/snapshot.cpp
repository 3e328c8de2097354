#include "engine/snapshot.hpp"

#include <algorithm>
#include <cassert>
#include <map>
#include <cstring>

namespace dynsld::engine {

std::shared_ptr<const DendrogramSnapshot> DendrogramSnapshot::build(
    const DynSLD& sld, vertex_id base) {
  return build(sld, base, nullptr);
}

std::shared_ptr<const DendrogramSnapshot> DendrogramSnapshot::build(
    const DynSLD& sld, vertex_id base, std::vector<edge_id>* ids_out) {
  auto snap = std::shared_ptr<DendrogramSnapshot>(new DendrogramSnapshot());
  DendrogramSnapshot& s = *snap;
  const Dendrogram& d = sld.dendrogram();
  s.n_ = sld.num_vertices();
  s.base_ = base;

  // Collect alive nodes and renumber in ascending rank order.
  std::vector<edge_id> ids;
  ids.reserve(d.size());
  for (edge_id e = 0; e < d.capacity(); ++e) {
    if (d.alive(e)) ids.push_back(e);
  }
  std::sort(ids.begin(), ids.end(),
            [&](edge_id a, edge_id b) { return d.rank(a) < d.rank(b); });
  size_t m = ids.size();
  std::vector<int32_t> slot_of(d.capacity(), kNoSlot);
  for (size_t i = 0; i < m; ++i) slot_of[ids[i]] = static_cast<int32_t>(i);

  s.u_.resize(m);
  s.v_.resize(m);
  s.weight_.resize(m);
  s.parent_.resize(m);
  for (size_t i = 0; i < m; ++i) {
    const Dendrogram::Node& nd = d.node(ids[i]);
    s.u_[i] = nd.u + base;
    s.v_[i] = nd.v + base;
    s.weight_[i] = nd.weight;
    s.parent_[i] = nd.parent == kNoEdge ? kNoSlot : slot_of[nd.parent];
    assert(s.parent_[i] == kNoSlot || s.parent_[i] > static_cast<int32_t>(i));
  }

  // Leaf hooks: vertex v hangs off the node of e*_v.
  std::vector<edge_id> estar = sld.min_incident_all();
  s.leaf_parent_.resize(s.n_);
  for (vertex_id v = 0; v < s.n_; ++v)
    s.leaf_parent_[v] = estar[v] == kNoEdge ? kNoSlot : slot_of[estar[v]];

  s.derive_csr_and_counts();

  std::vector<uint32_t> depth;
  s.derive_jumps(depth);
  if (ids_out) *ids_out = std::move(ids);
  return snap;
}

void DendrogramSnapshot::derive_jumps(std::vector<uint32_t>& depth) {
  // Skew-binary jump pointers: when the parent's jump and that jump's
  // own jump span equal depths L, a node jumps past both (2L + 1
  // levels); otherwise it jumps to its parent. Jump lengths along any
  // root path then follow a skew-binary decomposition, so an ancestor
  // search takes O(log depth) steps.
  const size_t m = parent_.size();
  depth.resize(m);
  jump_.resize(m);
  for (size_t i = m; i-- > 0;) {
    const int32_t p = parent_[i];
    if (p == kNoSlot) {
      depth[i] = 0;
      jump_[i] = static_cast<int32_t>(i);
      continue;
    }
    depth[i] = depth[p] + 1;
    const int32_t j = jump_[p], jj = jump_[j];
    jump_[i] = depth[p] - depth[j] == depth[j] - depth[jj] ? jj : p;
  }
}

void DendrogramSnapshot::derive_csr_and_counts() {
  const size_t m = parent_.size();

  // Child CSR from the parent array (counting sort by parent). Counts
  // land at index p, an in-place exclusive scan turns them into start
  // cursors, the fill advances the cursors into end offsets, and one
  // shift re-bases them — no separate cursor array.
  child_off_.assign(m + 1, 0);
  for (size_t i = 0; i < m; ++i) {
    if (parent_[i] != kNoSlot) ++child_off_[parent_[i]];
  }
  uint32_t sum = 0;
  for (size_t p = 0; p <= m; ++p) {
    const uint32_t c = child_off_[p];
    child_off_[p] = sum;
    sum += c;
  }
  child_list_.resize(sum);
  for (size_t i = 0; i < m; ++i) {
    if (parent_[i] != kNoSlot)
      child_list_[child_off_[parent_[i]]++] = static_cast<uint32_t>(i);
  }
  if (m)
    std::memmove(child_off_.data() + 1, child_off_.data(),
                 m * sizeof(uint32_t));
  child_off_[0] = 0;

  // Leaf CSR from the per-vertex hooks, same scheme.
  leaf_off_.assign(m + 1, 0);
  for (vertex_id v = 0; v < n_; ++v) {
    if (leaf_parent_[v] != kNoSlot) ++leaf_off_[leaf_parent_[v]];
  }
  sum = 0;
  for (size_t p = 0; p <= m; ++p) {
    const uint32_t c = leaf_off_[p];
    leaf_off_[p] = sum;
    sum += c;
  }
  leaf_list_.resize(sum);
  for (vertex_id v = 0; v < n_; ++v) {
    if (leaf_parent_[v] != kNoSlot) leaf_list_[leaf_off_[leaf_parent_[v]]++] = v;
  }
  if (m)
    std::memmove(leaf_off_.data() + 1, leaf_off_.data(), m * sizeof(uint32_t));
  leaf_off_[0] = 0;

  // Subtree vertex counts: one ascending pass (parent slot > child slot).
  count_.resize(m);
  for (size_t i = 0; i < m; ++i) count_[i] = leaf_off_[i + 1] - leaf_off_[i];
  for (size_t i = 0; i < m; ++i) {
    if (parent_[i] != kNoSlot) count_[parent_[i]] += count_[i];
  }
}

int32_t DendrogramSnapshot::top_of(vertex_id v, double tau) const {
  int32_t x = leaf_parent_[v - base_];
  if (x == kNoSlot || weight_[x] > tau) return kNoSlot;
  // Weights never decrease towards the root, so a jump whose target is
  // within tau skips only nodes within tau. A non-root's jump is a
  // strict ancestor, so every step climbs.
  for (int32_t p; (p = parent_[x]) != kNoSlot && weight_[p] <= tau;) {
    const int32_t j = jump_[x];
    x = weight_[j] <= tau ? j : p;
  }
  return x;
}

bool DendrogramSnapshot::same_cluster(vertex_id s, vertex_id t,
                                      double tau) const {
  if (s == t) return true;
  int32_t a = top_of(s, tau);
  return a != kNoSlot && a == top_of(t, tau);
}

uint64_t DendrogramSnapshot::cluster_size(vertex_id u, double tau) const {
  int32_t top = top_of(u, tau);
  return top == kNoSlot ? 1 : count_[top];
}

uint64_t DendrogramSnapshot::num_clusters(double tau) const {
  // Nodes are rank-sorted, so weights are non-decreasing: the sub-tau
  // node count is the weight table's upper-bound prefix.
  size_t merges =
      std::upper_bound(weight_.begin(), weight_.end(), tau) - weight_.begin();
  return n_ - merges;
}

void DendrogramSnapshot::members_of(int32_t top,
                                    std::vector<vertex_id>& out) const {
  std::vector<int32_t> stack{top};
  while (!stack.empty()) {
    int32_t x = stack.back();
    stack.pop_back();
    for (uint32_t i = leaf_off_[x]; i < leaf_off_[x + 1]; ++i)
      out.push_back(leaf_list_[i] + base_);
    for (uint32_t i = child_off_[x]; i < child_off_[x + 1]; ++i)
      stack.push_back(static_cast<int32_t>(child_list_[i]));
  }
}

std::vector<vertex_id> DendrogramSnapshot::cluster_report(vertex_id u,
                                                          double tau) const {
  int32_t top = top_of(u, tau);
  if (top == kNoSlot) return {u};
  std::vector<vertex_id> out;
  out.reserve(count_[top]);
  members_of(top, out);
  return out;
}

DendrogramSnapshot::FlatLabels DendrogramSnapshot::flat_labels(
    double tau) const {
  FlatLabels out;
  const size_t m = weight_.size();
  // Descending slot pass: parents sit at larger slots, so top[parent]
  // is final when slot i is visited. A slot whose own weight exceeds
  // tau is inactive (kNoSlot); an active slot inherits its parent's top
  // when the parent is active, else it IS the top of its cluster.
  std::vector<int32_t> top(m);
  std::map<uint64_t, uint64_t> hist;
  uint64_t singletons = n_;
  for (size_t i = m; i-- > 0;) {
    if (weight_[i] > tau) {
      top[i] = kNoSlot;
      continue;
    }
    int32_t p = parent_[i];
    top[i] = (p != kNoSlot && top[p] != kNoSlot) ? top[p]
                                                 : static_cast<int32_t>(i);
    if (top[i] == static_cast<int32_t>(i)) {  // i tops a cluster at tau
      ++hist[count_[i]];
      singletons -= count_[i];
    }
  }
  if (singletons) hist[1] += singletons;
  // All members of a cluster share the same top node, so the top's u
  // endpoint (itself a member) is a consistent canonical label.
  out.label.resize(n_);
  for (vertex_id v = 0; v < n_; ++v) {
    int32_t lp = leaf_parent_[v];
    out.label[v] =
        (lp == kNoSlot || weight_[lp] > tau) ? v + base_ : u_[top[lp]];
  }
  out.hist.assign(hist.begin(), hist.end());
  return out;
}

std::vector<vertex_id> DendrogramSnapshot::flat_clustering(double tau) const {
  return flat_labels(tau).label;
}

void DendrogramSnapshot::threshold_union(UnionFind& uf, double tau) const {
  for (size_t i = 0; i < weight_.size(); ++i) {
    if (weight_[i] > tau) break;  // rank-sorted
    uf.unite(u_[i], v_[i]);
  }
}

}  // namespace dynsld::engine

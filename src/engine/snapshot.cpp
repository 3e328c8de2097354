#include "engine/snapshot.hpp"

#include <algorithm>
#include <array>
#include <cassert>
#include <cstring>
#include <map>

namespace dynsld::engine {

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
  s.weight_.resize(m);
  s.parent_.resize(m);
  for (size_t i = 0; i < m; ++i) {
    const Dendrogram::Node& nd = d.node(ids[i]);
    s.u_[i] = nd.u + base;
    s.weight_[i] = nd.weight;
    s.parent_[i] = nd.parent == kNoEdge ? kNoSlot : slot_of[nd.parent];
    assert(s.parent_[i] == kNoSlot || s.parent_[i] > static_cast<int32_t>(i));
  }

  // Leaf hooks: vertex v hangs off the node of e*_v.
  std::vector<edge_id> estar = sld.min_incident_all();
  s.leaf_parent_.resize(s.n_);
  for (vertex_id v = 0; v < s.n_; ++v)
    s.leaf_parent_[v] = estar[v] == kNoEdge ? kNoSlot : slot_of[estar[v]];

  s.derive_counts();

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

void DendrogramSnapshot::derive_counts() {
  // Leaves per slot, then subtree vertex counts in one ascending pass
  // (parent slot > child slot).
  const size_t m = parent_.size();
  count_.assign(m, 0);
  for (vertex_id v = 0; v < n_; ++v) {
    if (leaf_parent_[v] != kNoSlot) ++count_[leaf_parent_[v]];
  }
  for (size_t i = 0; i < m; ++i) {
    if (parent_[i] != kNoSlot) count_[parent_[i]] += count_[i];
  }
}

void DendrogramSnapshot::derive_csr() const {
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
  std::call_once(csr_once_, [this] { derive_csr(); });
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

DendrogramSnapshot::Histogram DendrogramSnapshot::flat_labels(
    double tau, std::span<vertex_id> label,
    std::span<const LabelOverride> overrides) const {
  assert(label.size() == n_);
  // Nodes are rank-sorted, so the nodes active at tau (weight <= tau)
  // are the slot prefix [0, a). A slot tops its cluster when its parent
  // lies outside the prefix; a root's kNoSlot, read unsigned, does too.
  const uint32_t a = static_cast<uint32_t>(
      std::upper_bound(weight_.begin(), weight_.end(), tau) - weight_.begin());
  // The sweep visits tops in descending slot order, so it consumes the
  // overrides sorted the same way with one cursor.
  std::vector<LabelOverride> ov(overrides.begin(), overrides.end());
  std::sort(ov.begin(), ov.end(),
            [](const LabelOverride& x, const LabelOverride& y) {
              return x.top > y.top;
            });
  size_t oi = 0;
  // Most clusters are small: their sizes count in a direct-indexed
  // array, and only the rare large sizes go through the ordered map.
  constexpr uint32_t kSmall = 64;
  std::array<uint64_t, kSmall> small{};
  std::map<uint64_t, uint64_t> large;
  uint64_t singletons = n_;
  // Descending pass over the active prefix: parents sit at larger
  // slots, so lab[parent] is final when slot i is visited. A slot
  // inherits its parent's label, or, as a top, takes its override or
  // its own u endpoint (a member vertex).
  std::vector<vertex_id> lab(a);
  for (uint32_t i = a; i-- > 0;) {
    const uint32_t p = static_cast<uint32_t>(parent_[i]);
    if (p < a) {
      lab[i] = lab[p];
      continue;
    }
    const int32_t top = static_cast<int32_t>(i);
    while (oi < ov.size() && ov[oi].top > top) ++oi;
    lab[i] = oi < ov.size() && ov[oi].top == top ? ov[oi].label : u_[i];
    const uint32_t c = count_[i];
    if (c < kSmall)
      ++small[c];
    else
      ++large[c];
    singletons -= c;
  }
  small[1] += singletons;
  // Vertex pass: one lookup per vertex, off e*_v's slot.
  for (vertex_id v = 0; v < n_; ++v) {
    const uint32_t lp = static_cast<uint32_t>(leaf_parent_[v]);
    label[v] = lp < a ? lab[lp] : v + base_;
  }
  Histogram hist;
  for (uint32_t c = 1; c < kSmall; ++c)
    if (small[c]) hist.emplace_back(c, small[c]);
  hist.insert(hist.end(), large.begin(), large.end());
  return hist;
}

std::vector<vertex_id> DendrogramSnapshot::flat_clustering(double tau) const {
  std::vector<vertex_id> label(n_);
  flat_labels(tau, label);
  return label;
}

}  // namespace dynsld::engine

// DynSLD plumbing + the sequential height-bounded update algorithms of
// Theorem 1.1 (Algorithm 2 in the paper): spine-walk insertion in O(h)
// and deletion by spine unmerge in O(h log(1+n/h)).
#include <algorithm>

#include "dynsld/dyn_sld.hpp"
#include "parallel/primitives.hpp"
#include "parallel/stats.hpp"
#include "rctree/rc_tree.hpp"

namespace dynsld {

DynSLD::DynSLD(vertex_id n, SpineIndex index)
    : n_(n), index_kind_(index), conn_(n) {
  incident_.resize(n);
  if (index_kind_ == SpineIndex::kRc) {
    rc_spine_ = std::make_unique<rctree::RcForest>(0);
  }
}

DynSLD::~DynSLD() = default;

edge_id DynSLD::alloc_edge(vertex_id u, vertex_id v, double w) {
  edge_id id;
  if (!free_ids_.empty()) {
    id = free_ids_.back();
    free_ids_.pop_back();
  } else {
    id = static_cast<edge_id>(edge_slots_.size());
    edge_slots_.emplace_back();
  }
  edge_slots_[id] = WeightedEdge{u, v, w, id};
  return id;
}

void DynSLD::register_edge(const WeightedEdge& e) {
  register_edge_node(e);
  add_to_incidence(e);
}

void DynSLD::add_to_incidence(const WeightedEdge& e) {
  incident_[e.u].insert(e.rank());
  incident_[e.v].insert(e.rank());
}

void DynSLD::register_edge_node(const WeightedEdge& e) {
  dendro_.add_node(e);
  conn_.grow(n_ + e.id + 1);
  conn_.set_key(conn_edge(e.id), e.rank());
  conn_.link(conn_vertex(e.u), conn_edge(e.id));
  conn_.link(conn_edge(e.id), conn_vertex(e.v));
  if (index_kind_ == SpineIndex::kLct) {
    spine_.grow(e.id + 1);
    spine_.set_key(static_cast<int>(e.id), e.rank());
  } else if (index_kind_ == SpineIndex::kRc) {
    rc_spine_->add_node(e.id, e.rank());
  }
}

void DynSLD::unregister_edge(const WeightedEdge& e) {
  incident_[e.u].erase(e.rank());
  incident_[e.v].erase(e.rank());
  conn_.cut(conn_vertex(e.u), conn_edge(e.id));
  conn_.cut(conn_edge(e.id), conn_vertex(e.v));
  if (index_kind_ == SpineIndex::kRc) rc_spine_->remove_node(e.id);
  free_ids_.push_back(e.id);
}

void DynSLD::set_parent_tracked(edge_id e, edge_id p) {
  if (dendro_.parent(e) == p) return;
  stats::bump(stats::counters().pointer_writes);
  if (index_kind_ == SpineIndex::kLct) {
    stats::bump(stats::counters().index_cuts);
    spine_.cut_from_parent(static_cast<int>(e));
    dendro_.set_parent(e, p);
    if (p != kNoEdge) {
      stats::bump(stats::counters().index_links);
      spine_.link_root(static_cast<int>(e), static_cast<int>(p));
    }
  } else if (index_kind_ == SpineIndex::kRc) {
    stats::bump(stats::counters().index_cuts);
    rc_spine_->cut_from_parent(e);
    dendro_.set_parent(e, p);
    if (p != kNoEdge) {
      stats::bump(stats::counters().index_links);
      rc_spine_->link_to_parent(e, p);
    }
  } else {
    dendro_.set_parent(e, p);
  }
}

void DynSLD::apply_changes_tracked(
    std::span<const std::pair<edge_id, edge_id>> changes) {
  // Filter to real changes first (batch producers may emit no-ops and
  // duplicates with identical targets).
  std::vector<std::pair<edge_id, edge_id>> real;
  real.reserve(changes.size());
  for (const auto& ch : changes) {
    if (dendro_.parent(ch.first) != ch.second) real.push_back(ch);
  }
  // Deduplicate (batch deletion: overlapping spines write identical values).
  std::sort(real.begin(), real.end());
  real.erase(std::unique(real.begin(), real.end()), real.end());
  stats::bump(stats::counters().pointer_writes, real.size());

  if (index_kind_ == SpineIndex::kLct) {
    for (const auto& [c, p] : real) {
      (void)p;
      spine_.cut_from_parent(static_cast<int>(c));
    }
  } else if (index_kind_ == SpineIndex::kRc) {
    for (const auto& [c, p] : real) {
      (void)p;
      rc_spine_->cut_from_parent(c);
    }
  }
  dendro_.apply_parent_changes(real);
  if (index_kind_ == SpineIndex::kLct) {
    for (const auto& [c, p] : real) {
      if (p != kNoEdge) spine_.link_root(static_cast<int>(c), static_cast<int>(p));
    }
  } else if (index_kind_ == SpineIndex::kRc) {
    for (const auto& [c, p] : real) {
      if (p != kNoEdge) rc_spine_->link_to_parent(c, p);
    }
  }
}

DynSLD::InsertPlan DynSLD::prepare_insert(vertex_id u, vertex_id v, double w) {
  assert(u < n_ && v < n_ && u != v);
  assert(!connected(u, v) && "insert would create a cycle");
  InsertPlan plan;
  plan.eu = min_incident_edge(u);
  plan.ev = min_incident_edge(v);
  plan.e = alloc_edge(u, v, w);
  register_edge(edge_slots_[plan.e]);
  return plan;
}

// ---------------------------------------------------------------------
// Theorem 1.1: insertion by spine-walk merge.
// ---------------------------------------------------------------------

void DynSLD::merge_spines_walk(edge_id a, edge_id b) {
  // Merge the root chains whose bottoms are a and b (distinct trees) so
  // that parent pointers follow increasing rank. Classic two-pointer
  // list merge; only interleave points change pointers.
  if (rank_of(b) < rank_of(a)) std::swap(a, b);
  while (b != kNoEdge) {
    stats::bump(stats::counters().spine_nodes_touched);
    // Advance a to the highest node of its chain with rank < rank(b).
    edge_id pa = dendro_.parent(a);
    while (pa != kNoEdge && rank_of(pa) < rank_of(b)) {
      stats::bump(stats::counters().spine_nodes_touched);
      a = pa;
      pa = dendro_.parent(a);
    }
    set_parent_tracked(a, b);
    a = b;
    b = pa;
  }
}

edge_id DynSLD::insert(vertex_id u, vertex_id v, double w) {
  InsertPlan plan = prepare_insert(u, v, w);
  // Two-step SLD-Merge (Algorithm 1/2): first merge the singleton chain
  // {e} with Spine(e*_u), then Spine(e) with Spine(e*_v).
  if (plan.eu != kNoEdge) merge_spines_walk(plan.e, plan.eu);
  if (plan.ev != kNoEdge) merge_spines_walk(plan.e, plan.ev);
  return plan.e;
}

// ---------------------------------------------------------------------
// Theorem 1.1: deletion by spine unmerge.
// ---------------------------------------------------------------------

void DynSLD::unmerge_changes(edge_id e, const std::vector<char>& deleted,
                             bool parallel,
                             std::vector<std::pair<edge_id, edge_id>>& out) {
  const WeightedEdge ed = edge_slots_[e];
  // The connectivity structure reflects the post-deletion forest here.
  for (int side = 0; side < 2; ++side) {
    vertex_id sv = side == 0 ? ed.u : ed.v;
    edge_id estar = min_incident_edge(sv);
    if (estar == kNoEdge) continue;  // this side has no edges left
    // Characteristic spine: every cluster containing sv lies on it.
    std::vector<edge_id> kept;
    if (!parallel) {
      for (edge_id x = estar; x != kNoEdge; x = dendro_.parent(x)) {
        stats::bump(stats::counters().spine_nodes_touched);
        if (deleted[x]) continue;
        const auto& nd = dendro_.node(x);
        stats::bump(stats::counters().connectivity_queries);
        if (conn_.connected(conn_vertex(nd.u), conn_vertex(sv))) kept.push_back(x);
      }
    } else {
      // §3.2 shape: extract the spine, batch the side queries, then an
      // order-preserving parallel filter.
      std::vector<edge_id> spine = extract_spine(estar);
      stats::bump(stats::counters().spine_nodes_touched, spine.size());
      std::vector<char> keep(spine.size());
      // Connectivity side tests (batched against the cut forest; the
      // LCT backend answers them one by one — see DESIGN.md).
      for (size_t i = 0; i < spine.size(); ++i) {
        edge_id x = spine[i];
        if (deleted[x]) {
          keep[i] = 0;
          continue;
        }
        stats::bump(stats::counters().connectivity_queries);
        keep[i] = conn_.connected(conn_vertex(dendro_.node(x).u),
                                  conn_vertex(sv))
                      ? 1
                      : 0;
      }
      kept = par::pack<edge_id>(spine, keep);
    }
    for (size_t i = 0; i + 1 < kept.size(); ++i) out.emplace_back(kept[i], kept[i + 1]);
    if (!kept.empty()) out.emplace_back(kept.back(), kNoEdge);
  }
  out.emplace_back(e, kNoEdge);
}

void DynSLD::erase(edge_id e) {
  assert(dendro_.alive(e));
  const WeightedEdge ed = edge_slots_[e];
  // Remove e from the incidence sets and the connectivity forest first:
  // e*_u / e*_v and the side tests are defined on the cut forest.
  unregister_edge(ed);
  if (deleted_mark_.size() < edge_slots_.size()) deleted_mark_.resize(edge_slots_.size(), 0);
  deleted_mark_[e] = 1;
  std::vector<std::pair<edge_id, edge_id>> changes;
  unmerge_changes(e, deleted_mark_, /*parallel=*/false, changes);
  deleted_mark_[e] = 0;
  apply_changes_tracked(changes);
  dendro_.remove_node(e);
}

// ---------------------------------------------------------------------
// Introspection.
// ---------------------------------------------------------------------

bool DynSLD::connected(vertex_id u, vertex_id v) {
  return conn_.connected(conn_vertex(u), conn_vertex(v));
}

std::vector<WeightedEdge> DynSLD::edges() const {
  std::vector<WeightedEdge> out;
  out.reserve(dendro_.size());
  for (edge_id e = 0; e < edge_slots_.size(); ++e) {
    if (dendro_.alive(e)) out.push_back(edge_slots_[e]);
  }
  return out;
}

edge_id DynSLD::min_incident_edge(vertex_id v) const {
  const auto& set = incident_[v];
  return set.empty() ? kNoEdge : set.begin()->id;
}

std::vector<edge_id> DynSLD::min_incident_all() const {
  std::vector<edge_id> out(n_);
  for (vertex_id v = 0; v < n_; ++v) out[v] = min_incident_edge(v);
  return out;
}

int DynSLD::component_id(vertex_id v) { return conn_.find_root(conn_vertex(v)); }

vertex_id DynSLD::component_size(vertex_id v) {
  // conn_ holds one node per vertex and one per edge: 2k - 1 for k vertices.
  return static_cast<vertex_id>((conn_.tree_size(conn_vertex(v)) + 1) / 2);
}

WeightedEdge DynSLD::max_edge_on_path(vertex_id s, vertex_id t) {
  assert(s != t && connected(s, t));
  Rank mx = conn_.path_max(conn_vertex(s), conn_vertex(t));
  assert(mx.id != kNoEdge);
  return edge_slots_[mx.id];
}

void DynSLD::check_invariants() {
  size_t alive = 0;
  for (edge_id e = 0; e < edge_slots_.size(); ++e) {
    if (!dendro_.alive(e)) continue;
    ++alive;
    const auto& nd = dendro_.node(e);
    // Heap order along spines.
    if (nd.parent != kNoEdge) {
      assert(dendro_.alive(nd.parent));
      assert(dendro_.rank(e) < dendro_.rank(nd.parent));
    }
    // Child <-> parent consistency.
    for (edge_id c : nd.child) {
      if (c != kNoEdge) {
        assert(dendro_.alive(c));
        assert(dendro_.parent(c) == e);
      }
    }
    // Incidence sets contain this edge.
    assert(incident_[nd.u].count(dendro_.rank(e)) == 1);
    assert(incident_[nd.v].count(dendro_.rank(e)) == 1);
    // Endpoints connected in the connectivity forest.
    assert(conn_.connected(conn_vertex(nd.u), conn_vertex(nd.v)));
    // Spine index agrees on spine length.
    if (index_kind_ == SpineIndex::kLct) {
      assert(static_cast<size_t>(spine_.spine_length(static_cast<int>(e))) ==
             dendro_.spine(e).size());
    } else if (index_kind_ == SpineIndex::kRc) {
      assert(rc_spine_->spine_length(e) == dendro_.spine(e).size());
    }
  }
  assert(alive == dendro_.size());
  (void)alive;
}

}  // namespace dynsld

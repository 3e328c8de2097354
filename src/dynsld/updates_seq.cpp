// DynSLD plumbing + the sequential height-bounded update algorithms of
// Theorem 1.1 (Algorithm 2 in the paper): spine-walk insertion in O(h)
// and deletion by spine unmerge in O(h log(1+n/h)).
#include <algorithm>

#include "dendrogram/static_sld.hpp"
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
  std::vector<std::pair<edge_id, edge_id>>& real = real_;
  real.clear();
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

void DynSLD::find_pieces(std::span<const WeightedEdge> cut) {
  CutPieces& c = pieces_;
  const size_t m = 2 * cut.size();
  // Connectivity roots are stable until the next link or cut: find_root
  // and tree_size never re-root.
  c.end_piece_.resize(m);
  c.root_.resize(m);
  c.seed_.assign(m, kNoVertex);
  for (size_t i = 0; i < m; ++i) {
    c.root_[i] = conn_.find_root(conn_vertex(cut_end(cut, i)));
    c.end_piece_[i] = static_cast<uint32_t>(c.root_[i]);  // root, for now
  }
  std::sort(c.root_.begin(), c.root_.end());
  c.root_.erase(std::unique(c.root_.begin(), c.root_.end()), c.root_.end());
  const auto num = static_cast<uint32_t>(c.root_.size());
  for (size_t i = 0; i < m; ++i) {
    uint32_t& p = c.end_piece_[i];
    p = static_cast<uint32_t>(
        std::lower_bound(c.root_.begin(), c.root_.end(), static_cast<int>(p)) -
        c.root_.begin());
    if (c.seed_[p] == kNoVertex) c.seed_[p] = cut_end(cut, i);
  }
  c.seed_.resize(num);
  // The pieces of one pre-cut component are exactly those its cut
  // edges joined.
  UnionFind group(num);
  for (size_t i = 0; i < m; i += 2) group.unite(c.end_piece_[i], c.end_piece_[i + 1]);
  c.size_.resize(num);
  for (uint32_t p = 0; p < num; ++p) c.size_[p] = component_size(c.seed_[p]);
  c.big_of.assign(num, CutPieces::kNoPiece);  // by group root, for now
  for (uint32_t p = 0; p < num; ++p) {
    uint32_t& b = c.big_of[group.find(p)];
    if (b == CutPieces::kNoPiece || c.size_[p] > c.size_[b]) b = p;
  }
  c.num_groups = 0;
  for (uint32_t p = 0; p < num; ++p) {
    c.big_of[p] = c.big_of[group.find(p)];
    c.num_groups += c.big_of[p] == p;
  }
}

void DynSLD::label_pieces(bool every, size_t budget) {
  CutPieces& c = pieces_;
  const auto num = static_cast<uint32_t>(c.num_pieces());
  if (c.mark_.size() < n_) {
    c.mark_.resize(n_, 0);
    c.piece_.resize(n_, 0);
  }
  if (++c.stamp_ == 0) {  // wraparound: forget every old label
    std::fill(c.mark_.begin(), c.mark_.end(), 0u);
    std::fill(cut_ancestor_.begin(), cut_ancestor_.end(), 0u);
    std::fill(small_ancestor_.begin(), small_ancestor_.end(), 0u);
    c.stamp_ = 1;
  }
  c.vertices.clear();
  c.labeled_.assign(num, 0);
  c.complete_.assign(num, 1);
  order_.clear();
  for (uint32_t p = 0; p < num; ++p) {
    if (c.big_of[p] != p) order_.push_back(p);
  }
  std::stable_sort(order_.begin(), order_.end(),
                   [&c](uint32_t a, uint32_t b) { return c.size_[a] < c.size_[b]; });
  for (uint32_t p : order_) {
    if (!every && c.vertices.size() + c.size_[p] > budget) {
      c.complete_[c.big_of[p]] = 0;
      continue;
    }
    // BFS over tree adjacency; c.vertices doubles as the queue.
    size_t head = c.vertices.size();
    const vertex_id seed = c.seed_[p];
    c.mark_[seed] = c.stamp_;
    c.piece_[seed] = p;
    c.vertices.push_back(seed);
    while (head < c.vertices.size()) {
      const vertex_id x = c.vertices[head++];
      for (const Rank& r : incident_[x]) {
        const vertex_id y = edge_slots_[r.id].other(x);
        if (c.mark_[y] == c.stamp_) continue;
        c.mark_[y] = c.stamp_;
        c.piece_[y] = p;
        c.vertices.push_back(y);
      }
    }
    c.labeled_[p] = 1;
  }
  stats::bump(stats::counters().side_vertices_labeled, c.vertices.size());
}

uint32_t DynSLD::piece_of_vertex(vertex_id x, uint32_t b, bool maybe_small, bool resolve) {
  const CutPieces& c = pieces_;
  // x shares the pre-cut component of the group, so a labeled x's piece
  // is exact, and an unlabeled x lies in one of the group's unlabeled
  // pieces: the largest one, if every other piece is labeled.
  const uint32_t q = c.piece_of(x);
  if (q != CutPieces::kNoPiece || c.complete_[b] || !maybe_small) {
    stats::bump(stats::counters().side_tests_labeled);
    return q != CutPieces::kNoPiece ? q : b;
  }
  if (!resolve) return CutPieces::kNoPiece;
  stats::bump(stats::counters().connectivity_queries);
  const int root = conn_.find_root(conn_vertex(x));
  return static_cast<uint32_t>(std::lower_bound(c.root_.begin(), c.root_.end(), root) -
                               c.root_.begin());
}

void DynSLD::emit_chain(std::span<const edge_id> kept) {
  for (size_t i = 0; i + 1 < kept.size(); ++i) changes_.emplace_back(kept[i], kept[i + 1]);
  if (!kept.empty()) changes_.emplace_back(kept.back(), kNoEdge);
}

void DynSLD::erase_single(edge_id e, bool label_every_piece) {
  assert(dendro_.alive(e));
  const WeightedEdge ed = edge_slots_[e];
  // Remove e from the incidence sets and the connectivity forest first:
  // e*_u / e*_v and the side tests are defined on the cut forest.
  unregister_edge(ed);
  // Every cluster containing u (or v) lies on the characteristic spine
  // Spine(e*_u). Its nodes below e were formed from ranks < rank(e), so
  // they lie on u's side already; only e's ancestors hold vertices of
  // both sides, and each lands on exactly one.
  anc_.clear();  // e's ancestors, bottom-up
  for (edge_id x = dendro_.parent(e); x != kNoEdge; x = dendro_.parent(x)) {
    anc_.push_back(x);
  }
  stats::bump(stats::counters().spine_nodes_touched, anc_.size());
  cut_.assign(1, ed);
  find_pieces(cut_);
  label_pieces(label_every_piece, 4 * anc_.size() + 64);
  const uint32_t pu = pieces_.end_piece_[0];
  const uint32_t big = pieces_.big_of[pu];
  keep_.resize(anc_.size());
  for (size_t i = 0; i < anc_.size(); ++i) {
    keep_[i] = piece_of_vertex(dendro_.node(anc_[i]).u, big, true, true) == pu ? 1 : 0;
  }
  changes_.clear();
  for (int side = 0; side < 2; ++side) {
    kept_.clear();
    edge_id x = min_incident_edge(side == 0 ? ed.u : ed.v);
    for (; x != kNoEdge && rank_of(x) < rank_of(e); x = dendro_.parent(x)) {
      stats::bump(stats::counters().spine_nodes_touched);
      kept_.push_back(x);
    }
    for (size_t i = 0; i < anc_.size(); ++i) {
      if (keep_[i] == (side == 0 ? 1 : 0)) kept_.push_back(anc_[i]);
    }
    emit_chain(kept_);
  }
  changes_.emplace_back(e, kNoEdge);
  apply_changes_tracked(changes_);
  dendro_.remove_node(e);
}

void DynSLD::erase(edge_id e) { erase_single(e, /*label_every_piece=*/false); }

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

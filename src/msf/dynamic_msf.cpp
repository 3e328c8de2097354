#include "msf/dynamic_msf.hpp"

#include <algorithm>
#include <cassert>
#include <unordered_map>

#include "dendrogram/static_sld.hpp"

namespace dynsld {

DynamicClustering::DynamicClustering(vertex_id n, SpineIndex index)
    : n_(n), sld_(n, index), nontree_(n) {}

void DynamicClustering::add_nontree(graph_edge g) {
  GraphEdge& e = edges_[g];
  e.slot_u = static_cast<uint32_t>(nontree_[e.u].size());
  nontree_[e.u].push_back({g, e.v});
  e.slot_v = static_cast<uint32_t>(nontree_[e.v].size());
  nontree_[e.v].push_back({g, e.u});
}

void DynamicClustering::unlink_nontree(vertex_id x, uint32_t slot) {
  std::vector<NontreeRef>& list = nontree_[x];
  const NontreeRef moved = list.back();
  list[slot] = moved;
  list.pop_back();
  GraphEdge& m = edges_[moved.g];
  (m.u == x ? m.slot_u : m.slot_v) = slot;
}

void DynamicClustering::remove_nontree(graph_edge g) {
  const GraphEdge& e = edges_[g];
  unlink_nontree(e.u, e.slot_u);
  unlink_nontree(e.v, e.slot_v);
}

void DynamicClustering::bind_tree(graph_edge g, edge_id sld_id) {
  edges_[g].sld_id = sld_id;
  if (sld_to_graph_.size() <= sld_id) sld_to_graph_.resize(sld_id + 1);
  sld_to_graph_[sld_id] = g;
}

void DynamicClustering::make_tree(graph_edge g) {
  const GraphEdge& e = edges_[g];
  const DynSLD::EdgeInsert one{e.u, e.v, e.w};
  bind_tree(g, sld_.insert_batch(std::span<const DynSLD::EdgeInsert>(&one, 1))[0]);
}

DynamicClustering::graph_edge DynamicClustering::alloc_handle(vertex_id u,
                                                              vertex_id v,
                                                              double w) {
  assert(u < n_ && v < n_ && u != v);
  graph_edge g;
  if (!free_ids_.empty()) {
    g = free_ids_.back();
    free_ids_.pop_back();
  } else {
    g = static_cast<graph_edge>(edges_.size());
    edges_.emplace_back();
  }
  edges_[g] = GraphEdge{u, v, w, kNoEdge, 0, 0, true};
  ++num_alive_;
  return g;
}

void DynamicClustering::release_handle(graph_edge g) {
  edges_[g] = GraphEdge{};
  --num_alive_;
  free_ids_.push_back(g);
}

void DynamicClustering::route_insert(graph_edge g) {
  const GraphEdge& e = edges_[g];
  if (!sld_.connected(e.u, e.v)) {
    make_tree(g);
    return;
  }
  // Cycle: compare against the heaviest tree edge on the u..v path,
  // under the (weight, graph id) total order.
  WeightedEdge heavy = sld_.max_edge_on_path(e.u, e.v);
  graph_edge hg = sld_to_graph_[heavy.id];
  if (grank(g) < grank(hg)) {
    sld_.erase(heavy.id);
    edges_[hg].sld_id = kNoEdge;
    add_nontree(hg);
    make_tree(g);
  } else {
    add_nontree(g);
  }
}

DynamicClustering::graph_edge DynamicClustering::insert_edge(vertex_id u,
                                                             vertex_id v,
                                                             double w) {
  graph_edge g = alloc_handle(u, v, w);
  route_insert(g);
  return g;
}

std::vector<DynamicClustering::graph_edge> DynamicClustering::insert_edges(
    std::span<const EdgeUpdate> batch) {
  std::vector<graph_edge> out;
  out.reserve(batch.size());
  if (batch.size() == 1) {
    out.push_back(insert_edge(batch[0].u, batch[0].v, batch[0].w));
    return out;
  }
  for (const EdgeUpdate& e : batch) out.push_back(alloc_handle(e.u, e.v, e.w));

  // Classify by component: a local union-find keyed on the ephemeral
  // component representatives of the endpoints. Edges joining two
  // distinct components (considering earlier accepted batch edges) are
  // guaranteed MSF edges and form an acyclic batch for Thm 1.5; the
  // rest close cycles and take the sequential swap path afterwards.
  std::unordered_map<int, vertex_id> comp;  // lct root -> dsu slot
  UnionFind dsu(2 * batch.size());
  vertex_id next_slot = 0;
  auto slot_of = [&](vertex_id x) {
    auto [it, fresh] = comp.try_emplace(sld_.component_id(x), next_slot);
    if (fresh) ++next_slot;
    return it->second;
  };
  std::vector<DynSLD::EdgeInsert> tree;
  std::vector<size_t> tree_pos;
  std::vector<graph_edge> fallback;
  for (size_t i = 0; i < batch.size(); ++i) {
    vertex_id cu = dsu.find(slot_of(batch[i].u));
    vertex_id cv = dsu.find(slot_of(batch[i].v));
    if (cu != cv) {
      dsu.unite(cu, cv);
      tree.push_back({batch[i].u, batch[i].v, batch[i].w});
      tree_pos.push_back(i);
    } else {
      fallback.push_back(out[i]);
    }
  }
  if (!tree.empty()) {
    std::vector<edge_id> ids = sld_.insert_batch(tree);
    for (size_t j = 0; j < ids.size(); ++j) bind_tree(out[tree_pos[j]], ids[j]);
  }
  for (graph_edge g : fallback) route_insert(g);
  return out;
}

void DynamicClustering::erase_edges(std::span<const graph_edge> batch) {
  std::vector<edge_id> cuts;
  for (graph_edge g : batch) {
    assert(edge_alive(g));
    const GraphEdge& e = edges_[g];
    if (e.sld_id == kNoEdge) {
      remove_nontree(g);
    } else {
      cuts.push_back(e.sld_id);
    }
    release_handle(g);
  }
  if (cuts.empty()) return;
  search_.tree_cuts += cuts.size();
  // With no non-tree edge alive nothing can replace a cut edge, and the
  // cut labels only what its own side tests can afford.
  const bool search = num_alive_ > sld_.num_edges() - cuts.size();
  // One batch cut (Thm 1.5) for every tree edge of the batch.
  sld_.erase_batch(cuts, /*label_every_piece=*/search);
  if (search) replace_across();
}

void DynamicClustering::erase_edge(graph_edge g) {
  erase_edges(std::span<const graph_edge>(&g, 1));
}

void DynamicClustering::replace_across() {
  // The cut labeled every piece but the largest of each pre-cut
  // component: every crossing edge has an endpoint in a labeled piece.
  const DynSLD::CutPieces& pieces = sld_.cut_pieces();
  search_.vertices_labeled += pieces.vertices.size();

  // One pass over the labeled vertices' non-tree lists. Non-tree edges
  // never leave their component, so an unlabeled endpoint lies in the
  // largest piece of the scanned vertex's component. An edge between
  // two labeled pieces is seen from both; keep it from the lower one.
  struct Candidate {
    Rank rank;
    uint32_t a, b;
  };
  std::vector<Candidate> cand;
  for (vertex_id x : pieces.vertices) {
    const uint32_t p = pieces.piece_of(x);
    search_.nontree_scanned += nontree_[x].size();
    for (const NontreeRef& r : nontree_[x]) {
      uint32_t q = pieces.piece_of(r.other);
      if (q == DynSLD::CutPieces::kNoPiece) {
        q = pieces.big_of[p];
      } else if (q <= p) {
        continue;
      }
      cand.push_back({grank(r.g), p, q});
    }
  }

  // Kruskal over the pieces: the winners are the replacement edges.
  std::sort(cand.begin(), cand.end(),
            [](const Candidate& x, const Candidate& y) { return x.rank < y.rank; });
  UnionFind joined(pieces.num_pieces());
  std::vector<graph_edge> won;
  const size_t max_won = pieces.num_pieces() - pieces.num_groups;
  for (const Candidate& c : cand) {
    if (won.size() == max_won) break;
    if (joined.connected(c.a, c.b)) continue;
    joined.unite(c.a, c.b);
    won.push_back(static_cast<graph_edge>(c.rank.id));
  }
  search_.replacements += won.size();
  std::vector<DynSLD::EdgeInsert> ins;
  ins.reserve(won.size());
  for (graph_edge g : won) {
    remove_nontree(g);
    ins.push_back({edges_[g].u, edges_[g].v, edges_[g].w});
  }
  std::vector<edge_id> made = sld_.insert_batch(ins);
  for (size_t j = 0; j < won.size(); ++j) bind_tree(won[j], made[j]);
}

std::vector<WeightedEdge> DynamicClustering::all_edges() const {
  std::vector<WeightedEdge> out;
  out.reserve(num_alive_);
  for (graph_edge g = 0; g < edges_.size(); ++g) {
    const GraphEdge& e = edges_[g];
    if (e.alive) out.push_back(WeightedEdge{e.u, e.v, e.w, g});
  }
  return out;
}

std::vector<WeightedEdge> DynamicClustering::forest_edges() const {
  std::vector<WeightedEdge> out;
  for (graph_edge g = 0; g < edges_.size(); ++g) {
    const GraphEdge& e = edges_[g];
    if (e.alive && e.sld_id != kNoEdge) {
      out.push_back(WeightedEdge{e.u, e.v, e.w, g});
    }
  }
  return out;
}

}  // namespace dynsld

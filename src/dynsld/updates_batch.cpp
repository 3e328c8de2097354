// Theorem 1.5 (§3.3): batch-parallel updates.
//
// Batch insertion runs tree contraction over the incidence graph (one
// round = deterministic coin-flip star contraction) and applies
// Star-Merge (Algorithm 3) to every contracted star. Our Star-Merge
// grouping refines the paper's description to cover two boundary cases
// the pseudocode glosses over:
//   * segment boundaries are the branching nodes of D0 *plus* every
//     characteristic-spine bottom e*_{y_i} that has a D0 child
//     (an interior spine bottom is exactly the join point below which
//     another satellite's chain must not interleave);
//   * the part of a satellite spine below its own e*_{y_i} joins a
//     per-center-vertex group (satellites sharing the center vertex y
//     interleave from the very bottom; satellites at different center
//     vertices may not interleave below the first cluster joining
//     them). Each such group's top links to e*_y.
// Every boundary node is the bottom *member* of the segment above it,
// so group merges position it correctly with no special casing.
//
// Batch deletion cuts all edges from the connectivity forest, then
// computes every unmerge against the shared pre-update dendrogram; the
// overlapping spines produce identical pointer writes, which
// apply_changes_tracked deduplicates (the paper's concurrency argument).
#include <algorithm>
#include <unordered_map>

#include "dendrogram/static_sld.hpp"
#include "dynsld/dyn_sld.hpp"
#include "parallel/primitives.hpp"
#include "parallel/random.hpp"
#include "parallel/stats.hpp"

namespace dynsld {

namespace {

/// Merge sorted-by-rank id sequences pairwise until one remains.
std::vector<edge_id> kway_merge(std::vector<std::vector<edge_id>>& seqs,
                                const Dendrogram& d) {
  auto by_rank = [&d](edge_id a, edge_id b) { return d.rank(a) < d.rank(b); };
  if (seqs.empty()) return {};
  while (seqs.size() > 1) {
    std::vector<std::vector<edge_id>> next((seqs.size() + 1) / 2);
    par::parallel_for(
        0, seqs.size() / 2,
        [&](size_t i) {
          next[i] = par::merge<edge_id>(seqs[2 * i], seqs[2 * i + 1], by_rank);
        },
        1);
    if (seqs.size() % 2 == 1) next.back() = std::move(seqs.back());
    seqs = std::move(next);
  }
  return std::move(seqs[0]);
}

}  // namespace

void DynSLD::star_merge(std::span<const edge_id> sat_edges,
                        std::span<const vertex_id> center_vertices) {
  const size_t k = sat_edges.size();
  assert(k == center_vertices.size());

  // Phase 1: anchors from the pre-star incidence state.
  std::vector<edge_id> ex(k), ey(k);
  std::vector<vertex_id> xv(k);
  for (size_t i = 0; i < k; ++i) {
    const WeightedEdge& ed = edge_slots_[sat_edges[i]];
    xv[i] = ed.other(center_vertices[i]);
    ex[i] = min_incident_edge(xv[i]);
    ey[i] = min_incident_edge(center_vertices[i]);
  }

  // Phase 2: make the new edges part of the forest and merge each into
  // its satellite's dendrogram ("merge the new edge nodes into the
  // dendrograms of the leaves"). Satellites are disjoint components.
  for (size_t i = 0; i < k; ++i) add_to_incidence(edge_slots_[sat_edges[i]]);
  for (size_t i = 0; i < k; ++i) {
    if (ex[i] != kNoEdge) merge_spines_walk(sat_edges[i], ex[i]);
  }

  // Phase 3: extract the characteristic spines.
  std::vector<std::vector<edge_id>> s(k), s0(k);
  for (size_t i = 0; i < k; ++i) {
    s[i] = extract_spine(sat_edges[i]);
    if (ey[i] != kNoEdge) s0[i] = extract_spine(ey[i]);
    stats::bump(stats::counters().spine_nodes_touched, s[i].size() + s0[i].size());
  }

  // Phase 4: D0 = union of the center spines; child counts; boundaries.
  struct D0Info {
    int child_count = 0;
    bool boundary = false;
    int seg = -1;
  };
  std::unordered_map<edge_id, D0Info> d0;
  for (const auto& sp : s0) {
    for (edge_id x : sp) d0.try_emplace(x);
  }
  for (const auto& [x, info] : d0) {
    (void)info;
    edge_id p = dendro_.parent(x);
    if (p != kNoEdge) {
      auto it = d0.find(p);
      assert(it != d0.end() && "D0 must be closed under parents");
      ++it->second.child_count;
    }
  }
  for (auto& [x, info] : d0) {
    (void)x;
    assert(info.child_count <= 2);
    if (info.child_count >= 2) info.boundary = true;
  }
  for (size_t i = 0; i < k; ++i) {
    if (ey[i] != kNoEdge) {
      auto& info = d0.at(ey[i]);
      if (info.child_count >= 1) info.boundary = true;  // interior spine bottom
    }
  }

  // Phase 5: segments — maximal chains cut *below* every boundary node,
  // each boundary being the bottom member of the segment above it.
  struct Segment {
    std::vector<edge_id> nodes;  // ascending rank; nodes[0] is the start
    edge_id above = kNoEdge;     // boundary node right above, if any
    std::vector<std::vector<edge_id>> frags;
  };
  std::vector<Segment> segs;
  for (auto& [x, info] : d0) {
    bool starts = info.boundary;
    if (!starts && info.child_count == 0) starts = true;
    if (!starts) continue;
    Segment seg;
    seg.nodes.push_back(x);
    info.seg = static_cast<int>(segs.size());
    edge_id t = dendro_.parent(x);
    while (t != kNoEdge) {
      auto& ti = d0.at(t);
      if (ti.boundary) break;
      seg.nodes.push_back(t);
      ti.seg = static_cast<int>(segs.size());
      t = dendro_.parent(t);
    }
    seg.above = t;
    segs.push_back(std::move(seg));
  }

  // Per-center-vertex groups for the sub-e*_y chain bottoms.
  struct VertexGroup {
    edge_id top_link = kNoEdge;  // e*_y, or none when the center is edgeless
    std::vector<std::vector<edge_id>> frags;
  };
  std::unordered_map<vertex_id, VertexGroup> vgroups;

  // Phase 6: split each satellite spine and assign fragments.
  for (size_t i = 0; i < k; ++i) {
    const auto& si = s[i];
    size_t pos = 0;
    // Sub-bottom fragment: ranks below rank(e*_{y_i}).
    {
      auto& vg = vgroups[center_vertices[i]];
      vg.top_link = ey[i];
      std::vector<edge_id> frag;
      if (ey[i] == kNoEdge) {
        frag.assign(si.begin(), si.end());
        pos = si.size();
      } else {
        Rank bound = rank_of(ey[i]);
        while (pos < si.size() && rank_of(si[pos]) < bound) frag.push_back(si[pos++]);
      }
      if (!frag.empty()) vg.frags.push_back(std::move(frag));
    }
    if (ey[i] == kNoEdge) continue;
    // Remaining fragments: split at the boundary nodes along s0_i
    // (strictly above e*_{y_i}); fragment below boundary c joins the
    // segment whose bottom-most member is the previous boundary (or
    // the segment containing e*_{y_i} itself for the first one).
    int cur_seg = d0.at(ey[i]).seg;
    for (size_t t = 1; t < s0[i].size() && pos < si.size(); ++t) {
      const D0Info& info = d0.at(s0[i][t]);
      if (!info.boundary) continue;
      Rank bound = rank_of(s0[i][t]);
      std::vector<edge_id> frag;
      while (pos < si.size() && rank_of(si[pos]) < bound) frag.push_back(si[pos++]);
      if (!frag.empty()) segs[static_cast<size_t>(cur_seg)].frags.push_back(std::move(frag));
      cur_seg = info.seg;
    }
    if (pos < si.size()) {
      std::vector<edge_id> frag(si.begin() + static_cast<long>(pos), si.end());
      segs[static_cast<size_t>(cur_seg)].frags.push_back(std::move(frag));
    }
  }

  // Phase 7: merge every group and emit the relink changes.
  std::vector<std::pair<edge_id, edge_id>> changes;
  for (auto& seg : segs) {
    if (seg.frags.empty()) continue;  // untouched chain piece
    std::vector<std::vector<edge_id>> inputs = std::move(seg.frags);
    inputs.push_back(seg.nodes);
    std::vector<edge_id> merged = kway_merge(inputs, dendro_);
    for (size_t i = 0; i + 1 < merged.size(); ++i) {
      changes.emplace_back(merged[i], merged[i + 1]);
    }
    changes.emplace_back(merged.back(), seg.above);
  }
  for (auto& [y, vg] : vgroups) {
    (void)y;
    if (vg.frags.empty()) continue;
    std::vector<edge_id> merged = kway_merge(vg.frags, dendro_);
    for (size_t i = 0; i + 1 < merged.size(); ++i) {
      changes.emplace_back(merged[i], merged[i + 1]);
    }
    changes.emplace_back(merged.back(), vg.top_link);
  }
  apply_changes_tracked(changes);
}

std::vector<edge_id> DynSLD::insert_batch(std::span<const EdgeInsert> batch) {
  const size_t k = batch.size();
  std::vector<edge_id> ids(k, kNoEdge);
  if (k == 0) return ids;
  if (k == 1) {
    // A single edge takes the fastest sequential insert: output-sensitive
    // (Thm 1.2) when a spine index exists, else the walk (Thm 1.1). Both
    // yield the identical dendrogram.
    const EdgeInsert& e = batch[0];
    ids[0] = index_kind_ != SpineIndex::kPointer
                 ? insert_output_sensitive(e.u, e.v, e.weight)
                 : insert(e.u, e.v, e.weight);
    return ids;
  }

  // Snapshot component representatives before the connectivity links.
  std::vector<int> cu(k), cv(k);
  for (size_t i = 0; i < k; ++i) {
    cu[i] = conn_.find_root(conn_vertex(batch[i].u));
    cv[i] = conn_.find_root(conn_vertex(batch[i].v));
  }
  for (size_t i = 0; i < k; ++i) {
    ids[i] = alloc_edge(batch[i].u, batch[i].v, batch[i].weight);
    register_edge_node(edge_slots_[ids[i]]);
  }

  // Dense component ids + union-find over the incidence graph.
  std::unordered_map<int, vertex_id> dense;
  auto dense_id = [&dense](int r) {
    auto [it, fresh] = dense.try_emplace(r, static_cast<vertex_id>(dense.size()));
    (void)fresh;
    return it->second;
  };
  std::vector<vertex_id> du(k), dv(k);
  for (size_t i = 0; i < k; ++i) {
    du[i] = dense_id(cu[i]);
    dv[i] = dense_id(cv[i]);
  }
  UnionFind cycle_check(dense.size());
  for (size_t i = 0; i < k; ++i) {
    assert(!cycle_check.connected(du[i], dv[i]) &&
           "insert_batch would create a cycle");
    cycle_check.unite(du[i], dv[i]);
  }

  UnionFind uf(dense.size());
  std::vector<size_t> pending(k);
  for (size_t i = 0; i < k; ++i) pending[i] = i;
  uint64_t round = 0;

  while (!pending.empty()) {
    // Deterministic coin per current component; tails components
    // contract into an adjacent heads component along their minimum
    // pending edge (one round of star contraction).
    auto heads = [round](vertex_id comp) {
      return (par::hash64(0x51ab5eedULL + round * 0x10001ULL + comp) & 1) != 0;
    };
    std::unordered_map<vertex_id, size_t> chosen;  // tails comp -> edge index
    for (size_t idx : pending) {
      vertex_id a = uf.find(du[idx]);
      vertex_id b = uf.find(dv[idx]);
      vertex_id tails;
      if (heads(a) && !heads(b)) {
        tails = b;
      } else if (heads(b) && !heads(a)) {
        tails = a;
      } else {
        continue;
      }
      auto [it, fresh] = chosen.try_emplace(tails, idx);
      if (!fresh && idx < it->second) it->second = idx;
    }
    if (chosen.empty()) {
      // Coins stalled this round: force progress with the first pending
      // edge as a one-satellite star.
      size_t idx = pending[0];
      chosen.emplace(uf.find(du[idx]), idx);
    }

    // Group the contracted satellites by center component.
    std::unordered_map<vertex_id, std::vector<size_t>> stars;
    for (auto [tails, idx] : chosen) {
      vertex_id a = uf.find(du[idx]);
      vertex_id center = (a == tails) ? uf.find(dv[idx]) : a;
      stars[center].push_back(idx);
    }
    std::vector<char> processed(k, 0);
    for (auto& [center, idxs] : stars) {
      std::sort(idxs.begin(), idxs.end());  // deterministic order
      std::vector<edge_id> sat_ids;
      std::vector<vertex_id> centers;
      for (size_t idx : idxs) {
        sat_ids.push_back(ids[idx]);
        // The center-side endpoint is the one whose component is `center`.
        bool u_center = uf.find(du[idx]) == center;
        centers.push_back(u_center ? edge_slots_[ids[idx]].u
                                   : edge_slots_[ids[idx]].v);
        processed[idx] = 1;
      }
      star_merge(sat_ids, centers);
      for (size_t idx : idxs) {
        vertex_id a = uf.find(du[idx]);
        vertex_id b = uf.find(dv[idx]);
        vertex_id sat = (a == center) ? b : a;
        // Attach the satellite under the center so the center stays the
        // representative for the rest of this round.
        uf.unite(sat, center);
      }
    }
    std::vector<size_t> rest;
    rest.reserve(pending.size());
    for (size_t idx : pending) {
      if (!processed[idx]) rest.push_back(idx);
    }
    pending = std::move(rest);
    ++round;
  }
  return ids;
}

void DynSLD::erase_batch(std::span<const edge_id> batch) {
  if (batch.empty()) return;
  if (batch.size() == 1) {
    erase(batch[0]);
    return;
  }
  if (deleted_mark_.size() < edge_slots_.size()) {
    deleted_mark_.resize(edge_slots_.size(), 0);
  }
  std::vector<WeightedEdge> eds;
  eds.reserve(batch.size());
  for (edge_id e : batch) {
    assert(dendro_.alive(e));
    assert(!deleted_mark_[e] && "duplicate edge in erase_batch");
    deleted_mark_[e] = 1;
    eds.push_back(edge_slots_[e]);
  }
  // Batch cut: the connectivity structure reflects the final forest
  // before any side test runs.
  for (const WeightedEdge& ed : eds) unregister_edge(ed);
  std::vector<std::pair<edge_id, edge_id>> changes;
  for (edge_id e : batch) {
    unmerge_changes(e, deleted_mark_, /*parallel=*/true, changes);
  }
  apply_changes_tracked(changes);
  for (edge_id e : batch) {
    deleted_mark_[e] = 0;
    dendro_.remove_node(e);
  }
}

// ---------------------------------------------------------------------
// Parallel static construction (declared in static_sld.hpp).
// ---------------------------------------------------------------------

Dendrogram build_batch_parallel(vertex_id n, std::span<const WeightedEdge> edges,
                                SpineIndex index) {
  DynSLD sld(n, index);
  std::vector<DynSLD::EdgeInsert> batch(edges.size());
  par::parallel_for(0, edges.size(), [&](size_t i) {
    batch[i] = DynSLD::EdgeInsert{edges[i].u, edges[i].v, edges[i].weight};
  });
  sld.insert_batch(batch);
  return sld.dendrogram();
}

}  // namespace dynsld

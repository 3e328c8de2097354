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
// Batch deletion cuts all edges from the connectivity forest, labels
// the cut's smaller pieces, then computes every unmerge against the
// shared pre-update dendrogram with the piece labels as side tests; the
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
  if (batch.size() > kSingleInsertMaxBatch) return insert_batch_star_merge(batch);
  // Each edge joins two components the earlier ones left apart, so the
  // singletons yield the Star-Merge dendrogram.
  std::vector<edge_id> ids;
  ids.reserve(batch.size());
  for (const EdgeInsert& e : batch) {
    ids.push_back(index_kind_ != SpineIndex::kPointer
                      ? insert_output_sensitive(e.u, e.v, e.weight)
                      : insert(e.u, e.v, e.weight));
  }
  return ids;
}

std::vector<edge_id> DynSLD::insert_batch_star_merge(
    std::span<const EdgeInsert> batch) {
  const size_t k = batch.size();
  std::vector<edge_id> ids(k, kNoEdge);
  if (k == 0) return ids;

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

void DynSLD::erase_batch(std::span<const edge_id> batch, bool label_every_piece) {
  if (batch.empty()) return;
  if (batch.size() == 1) {
    erase_single(batch[0], label_every_piece);
    return;
  }
  erase_cut(batch, label_every_piece);
}

void DynSLD::erase_cut(std::span<const edge_id> batch, bool label_every_piece) {
  if (deleted_mark_.size() < edge_slots_.size()) {
    deleted_mark_.resize(edge_slots_.size(), 0);
  }
  cut_.clear();
  for (edge_id e : batch) {
    assert(dendro_.alive(e));
    assert(!deleted_mark_[e] && "duplicate edge in erase_batch");
    deleted_mark_[e] = 1;
    cut_.push_back(edge_slots_[e]);
  }
  // Batch cut: the connectivity structure reflects the final forest
  // before any side test runs.
  for (const WeightedEdge& ed : cut_) unregister_edge(ed);
  find_pieces(cut_);
  // Characteristic spines of every cut endpoint, against the shared
  // pre-update dendrogram. Side tests run against the whole batch's cut,
  // so no node of a spine is on its side by construction: each is
  // checked with the piece oracle. The spine work bounds the labeling.
  const size_t m = 2 * cut_.size();
  if (spines_.size() < m) spines_.resize(m);
  size_t spine_nodes = 0;
  for (size_t i = 0; i < m; ++i) {
    const edge_id estar = min_incident_edge(cut_end(cut_, i));
    if (estar == kNoEdge) {
      spines_[i].clear();  // this side has no edges left
    } else if (index_kind_ == SpineIndex::kRc) {
      spines_[i] = extract_spine(estar);
    } else {
      spines_[i].clear();
      for (edge_id x = estar; x != kNoEdge; x = dendro_.parent(x)) spines_[i].push_back(x);
    }
    spine_nodes += spines_[i].size();
  }
  stats::bump(stats::counters().spine_nodes_touched, spine_nodes);
  label_pieces(label_every_piece, 4 * spine_nodes + 64);
  // Only the ancestors of cut nodes can hold vertices outside sv's
  // piece: a node whose subtree holds no cut edge is a cluster that
  // stays connected in the cut forest. Mark each ancestor once, with a
  // slot for its memoized piece.
  if (cut_ancestor_.size() < edge_slots_.size()) {
    cut_ancestor_.resize(edge_slots_.size(), 0);
    small_ancestor_.resize(edge_slots_.size(), 0);
    ancestor_piece_.resize(edge_slots_.size());
  }
  const uint32_t stamp = pieces_.stamp_;
  for (edge_id e : batch) {
    for (edge_id x = dendro_.parent(e); x != kNoEdge && cut_ancestor_[x] != stamp;
         x = dendro_.parent(x)) {
      cut_ancestor_[x] = stamp;
      ancestor_piece_[x] = CutPieces::kNoPiece;
    }
  }
  // Where the labeling stopped short, an unlabeled vertex lies in its
  // group's largest piece unless its node sits above a cut edge that
  // bounds an unlabeled smaller piece: a cluster reaching into a piece
  // from outside holds one of that piece's cut edges. Only those nodes
  // may need the connectivity fallback.
  for (size_t i = 0; i < m; ++i) {
    const uint32_t p = pieces_.end_piece_[i];
    if (pieces_.labeled_[p] || pieces_.big_of[p] == p) continue;
    for (edge_id x = dendro_.parent(batch[i / 2]); x != kNoEdge && small_ancestor_[x] != stamp;
         x = dendro_.parent(x)) {
      small_ancestor_[x] = stamp;
    }
  }
  // Side tests (sequential: the connectivity fallback is not
  // thread-safe), then an order-preserving parallel filter per spine.
  // A labeled piece never needs the fallback: an unlabeled vertex is
  // outside it.
  changes_.clear();
  for (size_t i = 0; i < m; ++i) {
    const std::vector<edge_id>& spine = spines_[i];
    const uint32_t p = pieces_.end_piece_[i];
    keep_.resize(spine.size());
    for (size_t j = 0; j < spine.size(); ++j) {
      const edge_id x = spine[j];
      if (deleted_mark_[x] || cut_ancestor_[x] != stamp) {
        keep_[j] = !deleted_mark_[x];
        continue;
      }
      uint32_t& q = ancestor_piece_[x];
      if (q == CutPieces::kNoPiece) {
        q = piece_of_vertex(dendro_.node(x).u, pieces_.big_of[p],
                            small_ancestor_[x] == stamp, !pieces_.labeled_[p]);
      }
      keep_[j] = q == p;
    }
    par::pack<edge_id>(spine, keep_, kept_);
    emit_chain(kept_);
  }
  for (edge_id e : batch) changes_.emplace_back(e, kNoEdge);
  apply_changes_tracked(changes_);
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
  sld.insert_batch_star_merge(batch);
  return sld.dendrogram();
}

}  // namespace dynsld

// End-to-end fully-dynamic single-linkage clustering (Problem 2):
// a dynamic weighted *graph* whose minimum spanning forest is maintained
// and fed into DynSLD, so the explicit dendrogram of the graph is
// available after every edge insertion/deletion.
//
// MSF maintenance (DESIGN.md substitution #4 for Holm et al. [33] /
// Tseng et al. [48]):
//   - insertion: if the endpoints are connected, find the maximum edge
//     on the tree path (O(log n) path query); if the new edge is
//     lighter, swap (one DynSLD erase + insert), else store it as a
//     non-tree edge. O(log n + dendrogram update).
//   - deletion of a non-tree edge: O(1) swap-remove from the flat
//     per-vertex non-tree lists.
//   - deletion of k tree edges (one batch, the batch-dynamic shape of
//     [48]): cut all k with one DynSLD::erase_batch (Thm 1.5), then
//     run one Kruskal pass over the non-tree edges that cross pieces.
//     The cut itself labels the pieces, once, for both layers: per cut
//     component, every piece but the largest (sizes from the
//     connectivity forest, O(log n) each) is BFS-labeled over tree
//     adjacency inside DynSLD's cut step, where the labels also answer
//     the dendrogram's side tests (DynSLD::cut_pieces). Only the
//     labeled vertices' non-tree lists are scanned: O(sum of the
//     non-largest pieces + their non-tree degree + c log c) for c
//     crossing candidates. Exact, because every surviving tree edge
//     stays in the new MSF (cycle property): MSF(G - D) = (T - D) +
//     Kruskal over the crossing candidates. With no non-tree edge alive
//     the cut labels only what its own side tests can afford (an O(kh)
//     budget) and the search is skipped.
// The forest is always a minimum spanning forest, and with distinct
// weights the exact MSF under the (weight, graph-edge-id) order. Among
// tied weights the insertion swap compares DynSLD's path maximum, which
// breaks ties by forest-edge id, so the tie-break may differ.
//
// Graph edges have their own id space (handles returned by insert_edge);
// the underlying forest-edge ids are internal.
#pragma once

#include <span>
#include <vector>

#include "dynsld/dyn_sld.hpp"

namespace dynsld {

class DynamicClustering {
 public:
  using graph_edge = uint32_t;
  static constexpr graph_edge kNoGraphEdge = static_cast<graph_edge>(-1);

  explicit DynamicClustering(vertex_id n, SpineIndex index = SpineIndex::kLct);

  vertex_id num_vertices() const { return n_; }
  size_t num_edges() const { return num_alive_; }
  size_t num_tree_edges() const { return sld_.num_edges(); }

  /// Insert a weighted graph edge; returns its handle.
  graph_edge insert_edge(vertex_id u, vertex_id v, double w);

  /// Delete a graph edge by handle (a one-edge erase_edges batch).
  void erase_edge(graph_edge g);

  // ---- batch front-end (engine flush path) ----

  struct EdgeUpdate {
    vertex_id u;
    vertex_id v;
    double w;
  };

  /// Batch insertion, dispatching per the paper's theorems by batch
  /// shape: a singleton goes through the single-update path (a tree
  /// edge goes in through a one-edge DynSLD::insert_batch); a larger
  /// batch is classified by component so the acyclic subset runs
  /// through one DynSLD::insert_batch and only cycle-closing edges take
  /// the sequential swap path. insert_batch runs Thm 1.2 singles (the
  /// Thm 1.1 walk without a spine index) up to
  /// DynSLD::kSingleInsertMaxBatch edges, Star-Merge (Thm 1.5) past it.
  /// Returns handles aligned with `batch`.
  std::vector<graph_edge> insert_edges(std::span<const EdgeUpdate> batch);

  /// Batch deletion. Non-tree deletions are local swap-removes. All
  /// tree deletions are cut at once through DynSLD::erase_batch
  /// (Thm 1.5); then, unless no non-tree edge is alive, one Kruskal
  /// pass over the non-tree edges crossing the cut's pieces (labeled
  /// once, by the cut itself) picks the replacements, which go back in
  /// through one insert_batch. Handles must be alive and distinct.
  void erase_edges(std::span<const graph_edge> batch);

  /// Cumulative replacement-search work (plain counters, never reset;
  /// callers diff two reads to get a batch's or a flush's share).
  struct SearchStats {
    uint64_t tree_cuts = 0;         // tree edges cut by erase batches
    uint64_t vertices_labeled = 0;  // labeled vertices the search consumed
    uint64_t nontree_scanned = 0;   // non-tree list entries examined
    uint64_t replacements = 0;      // non-tree edges promoted to the MSF
  };
  const SearchStats& search_stats() const { return search_; }

  bool edge_alive(graph_edge g) const {
    return g < edges_.size() && edges_[g].alive;
  }

  /// Is g currently part of the minimum spanning forest?
  bool is_tree_edge(graph_edge g) const {
    return edge_alive(g) && edges_[g].sld_id != kNoEdge;
  }

  /// Endpoints and weight of a live edge (id field = g).
  WeightedEdge edge(graph_edge g) const {
    const GraphEdge& e = edges_[g];
    return WeightedEdge{e.u, e.v, e.w, g};
  }

  /// The MSF edges as (u, v, w, graph id).
  std::vector<WeightedEdge> forest_edges() const;

  /// The maintained dendrogram of the graph (node ids are internal
  /// forest-edge ids; see sld() for queries).
  const Dendrogram& dendrogram() const { return sld_.dendrogram(); }

  /// The underlying DynSLD, for the §6.1 queries (same_cluster,
  /// cluster_size, cluster_report, flat_clustering).
  DynSLD& sld() { return sld_; }

  /// Const view of the maintained DynSLD (engine snapshot export).
  const DynSLD& sld() const { return sld_; }

  /// Every alive graph edge — tree and non-tree — with id = handle.
  /// Used by the engine to capture an epoch's exact edge set for
  /// verification against the static Kruskal reference.
  std::vector<WeightedEdge> all_edges() const;

 private:
  friend struct DynamicClusteringTestPeer;

  struct GraphEdge {
    vertex_id u = kNoVertex;
    vertex_id v = kNoVertex;
    double w = 0.0;
    edge_id sld_id = kNoEdge;  // forest edge id when in the MSF
    // Positions in nontree_[u] / nontree_[v] while a non-tree edge.
    uint32_t slot_u = 0;
    uint32_t slot_v = 0;
    bool alive = false;
  };

  Rank grank(graph_edge g) const { return Rank{edges_[g].w, g}; }
  void add_nontree(graph_edge g);
  void remove_nontree(graph_edge g);
  /// Swap-remove entry `slot` of nontree_[x], fixing the moved edge's slot.
  void unlink_nontree(vertex_id x, uint32_t slot);
  void make_tree(graph_edge g);
  /// Allocate a handle for (u, v, w) without routing it anywhere yet.
  graph_edge alloc_handle(vertex_id u, vertex_id v, double w);
  /// Route a freshly allocated edge: tree insert, swap, or non-tree.
  void route_insert(graph_edge g);
  /// Record that graph edge g is backed by forest edge `sld_id`.
  void bind_tree(graph_edge g, edge_id sld_id);
  /// Free a handle whose forest/non-tree residue is already gone.
  void release_handle(graph_edge g);
  /// After one batch cut whose pieces DynSLD labeled (see
  /// DynSLD::cut_pieces): collect the non-tree edges crossing pieces and
  /// reinstate the Kruskal winners among them.
  void replace_across();

  vertex_id n_;
  DynSLD sld_;
  std::vector<GraphEdge> edges_;
  std::vector<graph_edge> free_ids_;
  size_t num_alive_ = 0;
  // A non-tree list entry: the edge and its endpoint at the far side, so
  // the scan classifies internal entries without touching edges_.
  struct NontreeRef {
    graph_edge g;
    vertex_id other;
  };
  // Non-tree edges incident to each vertex, unordered (slots in GraphEdge).
  std::vector<std::vector<NontreeRef>> nontree_;
  // Reverse map: forest edge id -> graph edge id.
  std::vector<graph_edge> sld_to_graph_;
  SearchStats search_;
};

}  // namespace dynsld

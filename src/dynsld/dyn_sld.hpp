// DynSLD (§3): explicit maintenance of the single-linkage dendrogram of
// a fully-dynamic weighted forest. This class owns
//   - the explicit dendrogram (parent-pointer array, §2.1),
//   - the edge store and per-vertex incident-edge sets (for e*_v, the
//     minimum-rank edge incident to v),
//   - a dynamic-connectivity structure over the input forest (used by
//     deletions to find and size the pieces of a cut, as the fallback
//     side test, and by threshold queries for path-max),
//   - the piece labels of the last cut (see CutPieces): a BFS labeling
//     of the smaller pieces that turns a side test into an array read,
//     and that the dynamic-MSF replacement search consumes as is,
//   - an optional spine index over the dendrogram itself (LCT or RC
//     tree) maintained in lockstep with every parent change, enabling
//     the output-sensitive algorithms and O(log n) queries.
//
// Update algorithms implemented (one method per theorem):
//   insert / erase                      Thm 1.1  O(h) / O(h log(1+n/h))
//   insert_output_sensitive             Thm 1.2  O(c log(1+n/c))
//   insert_parallel / erase_parallel    Thm 1.3  O(h log(1+n/h)) work
//   insert_parallel_output_sensitive    Thm 1.4  O(c log(1+n/c)) work
//   insert_batch_star_merge / erase_batch
//                                       Thm 1.5  O(kh log(1+n/(kh))) work
// plus the dendrogram queries of §6.1 (threshold, cluster size, cluster
// report, flat clustering). insert_batch is the front door for batch
// insertion: small batches run as Thm 1.2 singletons, larger ones as
// Star-Merge.
//
// Deletion side tests (which side of the cut a spine node lies on)
// follow the smaller-half discipline of Even–Shiloach and
// Holm–de Lichtenberg–Thorup. The cut's pieces are found and sized in
// O(log n) each; a piece is BFS-labeled only while the labeling fits a
// budget proportional to the spine work (O(h) per single erase, O(kh)
// per batch), so Thm 1.1/1.5's bounds hold. A labeled side makes the
// test a mark lookup; otherwise it is one connectivity find_root,
// matched against the pieces' cached roots. Only the ancestors of cut
// nodes are tested, each once: a spine node whose subtree holds no cut
// edge is a cluster that stays connected, so it lies on its own side
// by construction. A batch memoizes each ancestor's piece across the
// spines that share it, and needs the find_root only for nodes above a
// cut edge that bounds an unlabeled smaller piece.
//
// All methods keep the structure exactly equal to the Kruskal-reference
// SLD of the current edge set (verified exhaustively in tests); the
// different update algorithms are interchangeable per call.
#pragma once

#include <cassert>
#include <memory>
#include <set>
#include <span>
#include <vector>

#include "dendrogram/dendrogram.hpp"
#include "dtree/link_cut_tree.hpp"
#include "dynsld/spine_index.hpp"
#include "graph/types.hpp"

namespace dynsld {

namespace rctree {
class RcForest;  // forward declaration (paper-faithful backend, src/rctree)
}

class DynSLD {
 public:
  /// A forest over vertices [0, n) with no edges yet.
  explicit DynSLD(vertex_id n, SpineIndex index = SpineIndex::kLct);
  ~DynSLD();

  DynSLD(const DynSLD&) = delete;
  DynSLD& operator=(const DynSLD&) = delete;

  vertex_id num_vertices() const { return n_; }
  size_t num_edges() const { return dendro_.size(); }
  const Dendrogram& dendrogram() const { return dendro_; }
  SpineIndex spine_index_kind() const { return index_kind_; }

  // ---- Theorem 1.1: sequential height-bounded updates ----

  /// Insert edge (u, v) with weight w; u and v must currently be
  /// disconnected. Two spine-walk merges (Algorithm 2), O(h) plus
  /// index maintenance. Returns the new edge's id.
  edge_id insert(vertex_id u, vertex_id v, double w);

  /// Delete edge e: unmerge its characteristic spines (Algorithm 2),
  /// O(h log(1+n/h)). The nodes below e keep their side untested; each
  /// ancestor of e is side-tested once and joins the chain of the side
  /// it lands on.
  void erase(edge_id e);

  // ---- Theorem 1.2: output-sensitive insertion ----

  /// Insert using PWS-query alternation (§4.2): O(c log n) with the LCT
  /// index (O(c log(1+n/c)) with the RC index), where c is the number
  /// of parent-pointer changes. Requires a spine index.
  edge_id insert_output_sensitive(vertex_id u, vertex_id v, double w);

  // ---- Theorem 1.3: parallel single updates ----

  /// Insert by extracting both characteristic spines, parallel-merging
  /// them by rank, and applying the changed pointers (§3.2).
  edge_id insert_parallel(vertex_id u, vertex_id v, double w);

  /// Delete by extracting spines, piece-label side queries, parallel
  /// filter, and bulk pointer application (§3.2): the one-edge case of
  /// erase_batch's shape.
  void erase_parallel(edge_id e);

  // ---- Theorem 1.4: parallel output-sensitive insertion ----

  /// Insert via the divide-and-conquer spine merge driven by path
  /// median + PWS queries (§4.3). Requires a spine index.
  edge_id insert_parallel_output_sensitive(vertex_id u, vertex_id v, double w);

  // ---- Theorem 1.5: batch-parallel updates ----

  struct EdgeInsert {
    vertex_id u;
    vertex_id v;
    double weight;
  };

  /// Batches of at most this many edges insert as singletons. Star-Merge
  /// extracts every satellite's and center's full spine, O(kh), while a
  /// Thm 1.2 insert costs O(c log n). bench_batch's E5-X section (a
  /// 65,536-vertex forest of perfbench ingest_forest's shape, LCT index,
  /// 4-vCPU Xeon VM) measured singles faster at every size it tried, in
  /// µs per edge Star-Merge vs singles: k = 16 45.8 vs 12.0; k = 64
  /// 28.4 vs 8.4; k = 4,096 10.7 vs 5.5; k = 16,384 8.3 vs 4.3; the
  /// whole forest into an empty structure 4.4 vs 1.6; alike with 4 pool
  /// workers. So the bound only keeps bulk loads (a shard's initial
  /// forest, ≥ 16,383 edges in both perfbench workloads) on the paper's
  /// batch path, with a 4x margin.
  static constexpr size_t kSingleInsertMaxBatch = 4096;

  /// Batch insertion front door. The batch together with the current
  /// forest must remain acyclic. Up to kSingleInsertMaxBatch edges go in
  /// one by one: insert_output_sensitive (Thm 1.2) with a spine index,
  /// insert (Thm 1.1) without one. Larger batches take
  /// insert_batch_star_merge.
  std::vector<edge_id> insert_batch(std::span<const EdgeInsert> batch);

  /// Batch insertion via tree contraction over the incidence graph and
  /// Star-Merge per contracted star (Algorithm 3), whatever the batch
  /// size. The batch together with the current forest must remain
  /// acyclic.
  std::vector<edge_id> insert_batch_star_merge(std::span<const EdgeInsert> batch);

  /// Batch deletion: batch connectivity cut, piece labeling, then
  /// concurrent spine unmerges whose (identical) pointer writes are
  /// deduplicated (Algorithm 3). A spine node stays on side sv iff its
  /// endpoint lies in sv's piece (see cut_pieces()). Pieces are labeled
  /// smallest first within an O(kh) budget; with `label_every_piece`
  /// every piece but the largest of each cut component is labeled, for
  /// a caller that scans the pieces afterwards. A one-edge batch takes
  /// erase.
  void erase_batch(std::span<const edge_id> batch, bool label_every_piece = false);

  /// The pieces of the last erase / erase_parallel / erase_batch: the
  /// components of the cut forest that hold a cut endpoint. The pieces
  /// of one pre-cut component form a group; the largest piece of a group
  /// is never labeled. Valid until the next update.
  struct CutPieces {
    static constexpr uint32_t kNoPiece = static_cast<uint32_t>(-1);
    std::vector<uint32_t> big_of;  // largest piece of the group, by piece
    uint32_t num_groups = 0;
    /// The labeled vertices, piece by piece, in BFS order.
    std::vector<vertex_id> vertices;

    size_t num_pieces() const { return root_.size(); }
    /// Piece of a labeled vertex; kNoPiece for an unlabeled one.
    uint32_t piece_of(vertex_id v) const {
      return mark_[v] == stamp_ ? piece_[v] : kNoPiece;
    }

   private:
    friend class DynSLD;
    friend class DynSldTestPeer;
    std::vector<uint32_t> end_piece_;  // piece of cut endpoint 2j (u), 2j+1 (v)
    std::vector<int> root_;            // connectivity root, by piece (sorted)
    std::vector<vertex_id> seed_;      // a cut endpoint in the piece
    std::vector<vertex_id> size_;      // vertex count, by piece
    std::vector<char> labeled_;        // piece fully labeled
    std::vector<char> complete_;       // at big pieces: every other piece labeled
    std::vector<uint32_t> mark_;       // v labeled iff mark_[v] == stamp_
    std::vector<uint32_t> piece_;      // piece of a labeled v
    uint32_t stamp_ = 0;
  };
  const CutPieces& cut_pieces() const { return pieces_; }

  // ---- Queries (§6.1) ----

  /// Threshold/LCA query: are s and t in one cluster after merging all
  /// edges of weight <= tau? O(log n) via path-max on the input forest.
  bool same_cluster(vertex_id s, vertex_id t, double tau);

  /// Size (vertex count) of the cluster of u at threshold tau.
  /// O(log n) with a spine index (PWS + subtree size), O(|S|) without.
  uint64_t cluster_size(vertex_id u, double tau);

  /// All vertices of the cluster of u at threshold tau. O(|S|).
  std::vector<vertex_id> cluster_report(vertex_id u, double tau);

  /// Flat clustering at threshold tau: label[v] identifies v's cluster
  /// (labels are arbitrary but equal within a cluster). O(n).
  std::vector<vertex_id> flat_clustering(double tau);

  /// Table 2 comparison points: the same queries answered with only the
  /// forest adjacency (what a dynamic-MSF-only pipeline supports):
  /// breadth-first crawl over sub-threshold edges, O(|S| log deg).
  uint64_t cluster_size_via_crawl(vertex_id u, double tau);
  std::vector<vertex_id> cluster_report_via_crawl(vertex_id u, double tau);

  // ---- Introspection (tests, benchmarks, applications) ----

  bool connected(vertex_id u, vertex_id v);
  bool edge_alive(edge_id e) const { return dendro_.alive(e); }
  WeightedEdge edge(edge_id e) const { return dendro_.edge(e); }
  std::vector<WeightedEdge> edges() const;

  /// Minimum-rank edge incident to v (e*_v), or kNoEdge.
  edge_id min_incident_edge(vertex_id v) const;

  /// All edges incident to v, ordered by rank (tree adjacency; used by
  /// the dynamic-MSF pipeline and the crawl-based query baselines).
  const std::set<Rank>& incident_edges(vertex_id v) const { return incident_[v]; }

  /// Max-rank edge on the forest path s..t (s, t must be connected).
  WeightedEdge max_edge_on_path(vertex_id s, vertex_id t);

  // ---- const snapshot-export surface (engine epoch snapshots) ----
  // Everything a consistent read snapshot needs is reachable without
  // mutating the structure: the dendrogram (parents/children/weights via
  // dendrogram()), and e*_v per vertex below. The engine materializes
  // these into an immutable DendrogramSnapshot between batch flushes.

  /// e*_v for every vertex in one pass (kNoEdge where isolated). O(n).
  std::vector<edge_id> min_incident_all() const;

  /// Enable the dendrogram's structural-change journal (see
  /// Dendrogram::Journal): records node adds/removes/re-parentings so an
  /// incremental snapshot builder can patch instead of rebuild. `cap`
  /// bounds raw entries between clears; past it the journal overflows.
  void enable_structure_journal(size_t cap) { dendro_.enable_journal(cap); }

  /// The structural-change journal accumulated since the last clear.
  const Dendrogram::Journal& structure_journal() const {
    return dendro_.journal();
  }

  /// Reset the structural-change journal (after consuming it).
  void clear_structure_journal() { dendro_.clear_journal(); }

  /// Ephemeral component representative of v's tree in the input forest:
  /// equal ids iff connected. Valid only until the next update (the
  /// underlying link-cut tree re-roots on access). Used by the batch
  /// front-end to group updates by component without pairwise
  /// connectivity queries.
  int component_id(vertex_id v);

  /// Vertex count of v's tree in the input forest, O(log n) amortized
  /// (virtual-subtree sizes of the connectivity tree). Leaves
  /// component_id values valid: it never re-roots.
  vertex_id component_size(vertex_id v);

  /// Exhaustive structural checks (children consistency, heap order,
  /// index agreement); O(n log n). Test-only.
  void check_invariants();

  // -- spine-index query dispatch (public: used by the merge helpers,
  //    queries, benchmarks and tests; kLct / kRc, with O(h) pointer
  //    fallbacks) --
  /// Max-rank node with rank < w on the root path of x (PWS, Def 4.1).
  edge_id idx_spine_search_below(edge_id x, Rank w);
  /// Min-rank node with rank > w on the root path of x.
  edge_id idx_spine_search_above(edge_id x, Rank w);
  /// Node count on the root path of x, inclusive.
  size_t idx_spine_length(edge_id x);
  /// i-th node (0-based from x itself, ascending rank) on x's root path.
  edge_id idx_spine_select_from_bottom(edge_id x, size_t i);
  /// Index from bottom of node t on the root path of anchor x.
  size_t idx_spine_index_from_bottom(edge_id x, edge_id t);
  /// Subtree size of e in the dendrogram (internal nodes, incl. e).
  uint64_t idx_subtree_size(edge_id e);
  /// Extract the spine of e bottom-up (walk or RC parallel expansion).
  std::vector<edge_id> extract_spine(edge_id e);

 private:
  friend class DynSldTestPeer;

  // -- edge store --
  edge_id alloc_edge(vertex_id u, vertex_id v, double w);
  void register_edge(const WeightedEdge& e);    // incident sets + conn + node
  void unregister_edge(const WeightedEdge& e);  // inverse, node must be detached
  /// Node-only registration (dendrogram node, connectivity link, spine
  /// index slot) without touching the incidence sets — batch insertion
  /// defers incidence so e*_v queries exclude not-yet-merged batch edges.
  void register_edge_node(const WeightedEdge& e);
  void add_to_incidence(const WeightedEdge& e);

  // -- spine-index-aware structural updates --
  void set_parent_tracked(edge_id e, edge_id p);
  void apply_changes_tracked(std::span<const std::pair<edge_id, edge_id>> changes);

  // -- shared algorithm pieces --
  /// Walk-based merge of the root chains with bottoms a and b (Thm 1.1).
  void merge_spines_walk(edge_id a, edge_id b);
  /// PWS-alternation merge (Thm 1.2); returns #pointer changes.
  size_t merge_spines_output_sensitive(edge_id a, edge_id b);
  /// Extract-and-parallel-merge (Thm 1.3).
  void merge_spines_parallel(edge_id a, edge_id b);
  /// Median/PWS divide-and-conquer merge (Thm 1.4).
  void merge_spines_dc(edge_id a, edge_id b);
  /// Thm 1.1 deletion (see erase); `label_every_piece` as in erase_batch.
  void erase_single(edge_id e, bool label_every_piece);
  /// The §3.2 / Algorithm 3 shape shared by erase_parallel and
  /// erase_batch: cut every edge, extract each endpoint's spine, filter
  /// it by the piece oracle, relink the survivors.
  void erase_cut(std::span<const edge_id> batch, bool label_every_piece);
  /// Emit the relink changes for one side's kept spine nodes.
  void emit_chain(std::span<const edge_id> kept);
  /// Endpoint i of a cut: u of edge i / 2 for even i, v for odd i.
  static vertex_id cut_end(std::span<const WeightedEdge> cut, size_t i) {
    return i % 2 == 0 ? cut[i / 2].u : cut[i / 2].v;
  }
  /// Find and size the pieces of a cut whose edges are already gone
  /// from the connectivity forest, and group them by pre-cut component.
  void find_pieces(std::span<const WeightedEdge> cut);
  /// BFS-label the non-largest pieces, smallest first, while the labeled
  /// vertex count stays within `budget` (all of them with `every`).
  void label_pieces(bool every, size_t budget);
  /// Side test: the piece of vertex x, which lies in the pre-cut
  /// component whose largest piece is b. Read off the labels when they
  /// tell, or b when x cannot lie in an unlabeled smaller piece
  /// (!maybe_small); otherwise one connectivity find_root if `resolve`,
  /// else kNoPiece.
  uint32_t piece_of_vertex(vertex_id x, uint32_t b, bool maybe_small, bool resolve);
  /// Insert preamble: allocate, register, and return the two merge
  /// anchors (e*_u before insertion, e*_v before insertion).
  struct InsertPlan {
    edge_id e;
    edge_id eu;  // min incident edge of u in T_u (pre-insert), or kNoEdge
    edge_id ev;  // min incident edge of v in T_v (pre-insert), or kNoEdge
  };
  InsertPlan prepare_insert(vertex_id u, vertex_id v, double w);

  /// Star-Merge (Algorithm 3): merge satellite components into a center
  /// component along `sat_edges` (already registered new edge nodes).
  void star_merge(std::span<const edge_id> sat_edges,
                  std::span<const vertex_id> center_vertices);

  Rank rank_of(edge_id e) const { return dendro_.rank(e); }

  // conn_ node mapping: vertex v -> v, edge e -> n_ + e.
  int conn_vertex(vertex_id v) const { return static_cast<int>(v); }
  int conn_edge(edge_id e) const { return static_cast<int>(n_ + e); }

  vertex_id n_ = 0;
  SpineIndex index_kind_;
  Dendrogram dendro_;
  std::vector<WeightedEdge> edge_slots_;
  std::vector<edge_id> free_ids_;
  std::vector<std::set<Rank>> incident_;  // per vertex, orders by rank
  LinkCutTree conn_;   // input forest: vertices + one node per edge
  LinkCutTree spine_;  // dendrogram spine index (kLct mode)
  std::vector<char> deleted_mark_;  // reusable scratch for unmerges
  CutPieces pieces_;
  // Erase-path scratch, reused across calls.
  std::vector<std::pair<edge_id, edge_id>> changes_;
  std::vector<std::pair<edge_id, edge_id>> real_;
  std::vector<WeightedEdge> cut_;
  std::vector<std::vector<edge_id>> spines_;
  std::vector<edge_id> anc_;
  std::vector<edge_id> kept_;
  std::vector<char> keep_;
  std::vector<uint32_t> order_;
  // Nodes above a cut node in the current batch cut (== pieces_.stamp_),
  // those above a cut edge bounding an unlabeled smaller piece, and the
  // memoized piece of each one's endpoint u (kNoPiece: unknown).
  std::vector<uint32_t> cut_ancestor_;
  std::vector<uint32_t> small_ancestor_;
  std::vector<uint32_t> ancestor_piece_;
  std::unique_ptr<rctree::RcForest> rc_spine_;  // kRc mode (see src/rctree)
};

}  // namespace dynsld

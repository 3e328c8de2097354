// Immutable epoch snapshot of one shard's dendrogram.
//
// DynSLD answers its §6.1 queries through dynamic trees that splay on
// every access, so a live structure cannot serve concurrent readers.
// Instead the engine freezes the dendrogram between batch flushes into
// a compact, read-only materialization:
//
//   - nodes densely renumbered in ascending rank order, so a node's
//     parent always has a larger slot and a single ascending pass
//     computes subtree vertex counts bottom-up;
//   - per vertex, the slot of its minimum incident edge e*_v (its leaf
//     hook);
//   - one skew-binary jump pointer per node (Myers, "An applicative
//     random-access stack", IPL 1983): because weights never decrease
//     towards the root, the top cluster node of v at threshold tau
//     ("highest ancestor of e*_v with weight <= tau") is found by
//     taking the jump while its weight is <= tau and the parent
//     otherwise — O(log h) steps, O(m) to build, 4 B per node.
//
// The primary arrays (label endpoints, weights, parents, leaf hooks)
// and the two derivations every read needs (subtree counts, jumps) are
// built eagerly. The CSR child and leaf lists serve only the §6.1 cluster
// report, so they are built lazily, once, by the first members_of()
// call: no flush pays for them, and the O(log h + |cluster|) bound
// holds from the second report on.
//
// Build is O(n + m log m) from const DynSLD accessors only; every query
// method is const and safe from any number of threads (the lazy CSR
// build is a std::call_once). Readers hold the snapshot via shared_ptr,
// which doubles as the epoch reclamation scheme: a superseded snapshot
// is freed when its last reader drops it.
//
// Shard-local vertex spaces: a sharded backend keeps each shard's
// DynamicClustering over local ids [0, stride). The snapshot is built
// with the shard's `base` offset and translates at the boundary — every
// public method takes and returns *global* vertex ids, while the
// internal leaf arrays stay sized to the shard's local range.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <vector>

#include "dynsld/dyn_sld.hpp"
#include "graph/types.hpp"

namespace dynsld::persist {
struct SnapshotCodec;  // persist/checkpoint.hpp
}

namespace dynsld::engine {

/// The frozen dendrogram of one shard at one epoch (see the header
/// comment). Immutable after build() (the lazy CSR only caches what
/// the arrays already determine); every method is const and
/// thread-safe. The engine shares untouched shards' snapshots across
/// epochs by pointer — pointer identity IS the cleanliness test the
/// view refresh relies on.
class DendrogramSnapshot {
 public:
  /// Sentinel slot: "no node" (singleton vertex / no parent).
  static constexpr int32_t kNoSlot = -1;

  /// Freeze the current dendrogram of `sld`. Uses only const accessors;
  /// the caller guarantees no concurrent mutation during the build
  /// (the engine builds under its writer lock). `base` is the global id
  /// of the sld's local vertex 0 (shard-local vertex spaces). A non-null
  /// `ids_out` receives the slot -> edge-id mapping the build chose
  /// (ascending rank order): the incremental builder (ShardContraction)
  /// retains it to translate the dendrogram's structural-change journal
  /// into slot-space patches on the next epoch.
  static std::shared_ptr<const DendrogramSnapshot> build(
      const DynSLD& sld, vertex_id base = 0,
      std::vector<edge_id>* ids_out = nullptr);

  /// Local vertex count (the shard's range size, not the global n).
  vertex_id num_vertices() const { return n_; }
  /// Global id of local vertex 0.
  vertex_id base() const { return base_; }
  size_t num_nodes() const { return weight_.size(); }

  /// Dense slot of the top cluster node of v at threshold tau, or
  /// kNoSlot when v is a singleton at tau. O(log h).
  int32_t top_of(vertex_id v, double tau) const;

  /// §6.1 threshold query. O(log h).
  bool same_cluster(vertex_id s, vertex_id t, double tau) const;

  /// Vertex count of v's cluster at tau. O(log h).
  uint64_t cluster_size(vertex_id u, double tau) const;

  /// Number of clusters of the shard's subgraph at threshold tau,
  /// singletons included. Each dendrogram node is one MSF edge and
  /// each sub-tau edge merges two clusters, so the count is n minus
  /// the rank-sorted node table's sub-tau prefix — one binary search,
  /// O(log |nodes|), no bins or labels materialized.
  uint64_t num_clusters(double tau) const;

  /// Append the members of slot `top`'s cluster to `out`. O(|cluster|)
  /// once the CSR exists; the first call on a snapshot builds it,
  /// O(n + |nodes|). Cluster reports are its only callers.
  void members_of(int32_t top, std::vector<vertex_id>& out) const;

  /// §6.1 cluster report. O(log h + |cluster|).
  std::vector<vertex_id> cluster_report(vertex_id u, double tau) const;

  /// A caller-chosen label for the cluster topped by slot `top` (the
  /// cross-shard merge relabels a blob to its group's label).
  struct LabelOverride {
    int32_t top;
    vertex_id label;
  };
  /// Cluster-size histogram: size -> clusters, ascending.
  using Histogram = std::vector<std::pair<uint64_t, uint64_t>>;

  /// One shard's flat-label block at threshold tau, written into
  /// `label` (local index -> global label, size num_vertices()), and
  /// the shard's cluster-size histogram (singletons included). The
  /// label of a cluster is the `u` endpoint of its top node — a member
  /// vertex, and a pure function of (snapshot, tau), so two passes over
  /// the same snapshot agree bit-for-bit — unless `overrides` names its
  /// top slot. One linear sweep: a descending slot pass carries each
  /// active node's final label down from its parent (the parent slot is
  /// always larger), then a vertex pass reads the label off e*_v with
  /// one lookup. O(n + |nodes| + |overrides| log |overrides|) — no
  /// per-vertex ancestor search, no member lists.
  Histogram flat_labels(double tau, std::span<vertex_id> label,
                        std::span<const LabelOverride> overrides = {}) const;

  /// §6.1 flat clustering over the local vertex range; label[i] is a
  /// member vertex (global id) of local vertex i's cluster — the
  /// canonical label of flat_labels() without overrides.
  /// O(n + |nodes|).
  std::vector<vertex_id> flat_clustering(double tau) const;

  /// Label endpoint (global id; flat_labels() names the slot's cluster
  /// by it)/weight/vertex-count of a dense slot (merged-query plumbing).
  vertex_id slot_u(int32_t s) const { return u_[s]; }
  double slot_weight(int32_t s) const { return weight_[s]; }
  uint64_t slot_count(int32_t s) const { return count_[s]; }

 private:
  // The checkpoint byte codec rebuilds snapshots array-for-array
  // (persist/checkpoint.hpp); the incremental builder patches a copy of
  // the arrays instead of rebuilding them (engine/contraction.hpp).
  friend struct persist::SnapshotCodec;
  friend class ShardContraction;
  DendrogramSnapshot() = default;

  /// Derive subtree counts from parent_ and leaf_parent_ (already
  /// filled): leaves per slot, then one ascending pass over parent_.
  /// Shared by the fresh build, the incremental patch and the
  /// checkpoint decoder, so counts are bit-identical across the three
  /// by construction.
  void derive_counts();

  /// Derive jump_ from parent_ in one descending slot pass (parents
  /// sit at larger slots), using `depth` as scratch. Shared by the
  /// same three paths as derive_counts(), for the same reason.
  void derive_jumps(std::vector<uint32_t>& depth);

  /// Build the child and leaf CSR from parent_ and leaf_parent_. Runs
  /// once per snapshot, under csr_once_, from members_of().
  void derive_csr() const;

  vertex_id n_ = 0;
  vertex_id base_ = 0;
  // Per dense slot, ascending rank order. u_ is the node's first
  // endpoint (global id), the label flat_labels() gives its cluster.
  std::vector<vertex_id> u_;
  std::vector<double> weight_;
  std::vector<int32_t> parent_;
  std::vector<uint32_t> count_;  // vertices in the slot's cluster (<= n_)
  std::vector<int32_t> leaf_parent_;  // per vertex: slot of e*_v or kNoSlot
  std::vector<int32_t> jump_;  // skew-binary ancestor; a root jumps to itself
  // Cluster-report CSR, built on first use (see derive_csr()).
  mutable std::once_flag csr_once_;
  mutable std::vector<uint32_t> child_off_, child_list_;
  mutable std::vector<uint32_t> leaf_off_, leaf_list_;
};

}  // namespace dynsld::engine

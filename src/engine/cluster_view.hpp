// ThresholdView: one epoch snapshot resolved at one threshold — the
// unit the read plane serves every query from.
//
//   submit(QueryRequest) ──> QueryBroker (groups by (epoch, tau))
//                               │ standing per-tau cache, carried
//                               │ across epochs by refreshed()
//                               v
//                            ThresholdView (merge resolved ONCE at tau)
//                               │ same_cluster / cluster_size /
//                               │ cluster_report / flat_clustering /
//                               │ size_histogram / run(Query)
//
// A ThresholdView resolves everything tau-dependent up front, exactly
// once: it scans the weight-ascending cross-edge prefix (w <= tau),
// computes the per-shard top cluster node of every cross endpoint
// (O(log h) each), and runs a union-find over those *blobs* — a blob
// being one shard's cluster (shard, top slot) or a cross-touched
// singleton vertex. The flattened result (dense groups with aggregate
// sizes and member-blob lists) is immutable, so any number of threads
// then answer:
//
//   same_cluster   O(log h)         two top_of lookups + group compare
//   cluster_size   O(log h)         one top_of + group aggregate
//   cluster_report O(log h + |S|)   walk the group's blob member lists
//   flat_clustering / size_histogram  O(n) label materialization,
//                                     computed lazily once per view
//
// The build is O(X log h + X alpha) for X sub-tau cross edges —
// independent of n and of the query count: thousands of queries at one
// tau share a single merge resolution instead of re-deriving it per
// call.
//
// Refresh (the broker's standing cache): the resolution is an
// immutable block, and ThresholdView::refreshed(prev, snap) carries it
// across epochs when nothing it read changed. It reads only the sub-tau
// cross prefix and the shards hosting that prefix's blobs, and an epoch
// reuses untouched shards' DendrogramSnapshots by pointer, so the test
// needs no bookkeeping. Two refresh grades:
//
//   reused   sub-tau cross prefix unchanged and no blob lives in a
//            shard whose snapshot pointer changed -> share the
//            resolution block wholesale (zero work);
//   rebuilt  otherwise -> resolve from scratch. The stats count it as
//            refresh_views_incremental when the prefix held (a hosting
//            shard changed) and refresh_views_full when the prefix
//            itself moved (cross churn at or below tau).
//
// Flat labels are canonical — a cluster's label is a pure function of
// the shard snapshots and the resolution (DendrogramSnapshot::
// flat_labels with min-over-group label overrides), never of order or
// refresh history — so a refreshed view and a fresh one materialize
// bit-identical arrays. The size histogram assembles from per-shard
// histograms and cross-group sizes without touching the O(n) array.
#pragma once

#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "engine/epoch.hpp"
#include "engine/query.hpp"

namespace dynsld::engine {

/// One epoch resolved at one threshold: the unit of amortization of
/// the read plane. Construction pins the epoch (holds the snapshot
/// shared_ptr) and pays all tau-dependent merge work exactly once;
/// every query afterwards is a pure read on immutable state, safe from
/// any number of threads with no further synchronization — except the
/// two flat materializations, which build lazily once under an
/// internal mutex and are immutable after that.
class ThresholdView {
 public:
  /// Resolve `snap` at threshold tau (one cross-shard union-find
  /// build). The broker holds one per queried tau and carries it
  /// across epochs with refreshed().
  ThresholdView(EpochManager::Snap snap, double tau);

  /// Refresh `prev` onto `snap` (same threshold, newer epoch): shares
  /// the merge resolution when the epochs in between left everything
  /// it read untouched, else resolves afresh — see the header comment.
  /// Returns `prev` itself when the epoch did not advance. Thread-safe.
  static std::shared_ptr<const ThresholdView> refreshed(
      const std::shared_ptr<const ThresholdView>& prev,
      EpochManager::Snap snap);

  double tau() const { return tau_; }
  uint64_t epoch() const { return snap_->epoch(); }
  const EngineSnapshot& snapshot() const { return *snap_; }

  // ---- §6.1 queries, all const and thread-safe ----

  /// Are s and t in one cluster at tau()? O(log h).
  bool same_cluster(vertex_id s, vertex_id t) const;
  /// Vertex count of u's cluster at tau(). O(log h).
  uint64_t cluster_size(vertex_id u) const;
  /// All members of u's cluster at tau(). O(log h + |cluster|).
  std::vector<vertex_id> cluster_report(vertex_id u) const;
  /// Canonical label per vertex (equal within a cluster; the label is a
  /// member vertex). Materialized lazily, once per view; the reference
  /// stays valid for the view's lifetime — copy if you outlive it.
  const std::vector<vertex_id>& flat_clustering() const;
  /// Cluster-size distribution at tau(), singletons included. Shares
  /// the flat-label materialization (assembled from per-shard
  /// histograms + cross-group sizes, not from the O(n) array).
  const SizeHistogram& size_histogram() const;

  /// Number of clusters at tau(), singletons included — equal to
  /// size_histogram().num_clusters() but assembled directly from the
  /// per-shard rank-prefix counts corrected by the cross merge
  /// (Σ shard clusters − blobs + groups): O(K log |nodes|), touching
  /// neither histogram bins nor the O(n) label array.
  uint64_t num_clusters() const;

  /// Dispatch one typed query. The view's threshold is authoritative:
  /// the request is answered at tau() regardless of its own tau field
  /// (which only the broker uses, to route each query to the right
  /// view). Passing a mismatched query is a caller bug — asserted in
  /// debug builds; route through submit() when in doubt.
  QueryResult run(const Query& q) const;

  /// Number of merged cross-shard groups (introspection/tests).
  size_t num_cross_groups() const { return res_ ? res_->group_size.size() : 0; }

 private:
  // A blob is the unit the cross merge unites: one shard-local cluster
  // (shard, top slot) or a vertex that is a singleton at tau but has a
  // sub-tau cross edge.
  struct Blob {
    int32_t shard;
    int32_t top;    // kNoSlot for a singleton blob
    vertex_id vtx;  // the singleton vertex (unused otherwise)
  };

  /// Everything the sub-tau cross prefix determines, as one immutable
  /// block a reused refresh shares: the blob table, which shards host
  /// blobs, and the flattened union-find groups. Null on a view in
  /// trivial mode (no sub-tau cross edge).
  struct Resolution {
    std::unordered_map<int64_t, uint32_t> blob_of;  // blob_key -> blob id
    std::vector<Blob> blobs;
    std::vector<char> shard_hosts;  // per shard: does a blob live here?
    std::vector<int32_t> blob_group;
    std::vector<uint64_t> group_size;               // per group: vertices
    std::vector<uint32_t> group_off, group_blobs;   // CSR group -> blobs
  };

  /// Adopt the previous view's resolution for a new epoch; used only
  /// by refreshed().
  ThresholdView(EpochManager::Snap snap, double tau,
                std::shared_ptr<const Resolution> res);

  /// Build the resolution of `es` at tau: O(log h) top per sub-tau
  /// cross endpoint, then the blob union-find.
  static std::shared_ptr<const Resolution> resolve(const EngineSnapshot& es,
                                                   double tau);

  /// Key of the blob of vertex x (homed in `shard`, top slot `top`).
  static int64_t blob_key(int shard, int32_t top, vertex_id x);

  /// Group of vertex x's blob, or -1 when no sub-tau cross edge touches
  /// it (the blob then IS the cluster). Also yields shard and top slot.
  int32_t resolve_vertex(vertex_id x, int& shard, int32_t& top) const;

  /// The materialized flat-label state: the flat global array with
  /// cross-group fixups applied, and the assembled size histogram.
  /// Immutable once built.
  struct LabelSet {
    std::vector<vertex_id> flat;  // size n; canonical label per vertex
    SizeHistogram hist;
  };

  /// Materialize the labels of this view: every shard re-labels at
  /// tau, the blocks concatenate, and cross-group fixups apply.
  LabelSet build_labels() const;

  /// The lazily materialized label state (flat_clustering and
  /// size_histogram both land here), built once on first use.
  const LabelSet& label_set() const;

  EpochManager::Snap snap_;
  double tau_ = 0.0;
  std::shared_ptr<const Resolution> res_;  // null => trivial mode
  mutable std::once_flag labels_once_;
  mutable LabelSet labels_;  // written once, under labels_once_
};

}  // namespace dynsld::engine

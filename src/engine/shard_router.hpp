// Sharded backend: vertex-range shards, each owning an independent
// DynamicClustering over its intra-shard edges, plus the cross-shard
// edge table.
//
// An edge whose endpoints share a home shard is routed there and
// participates in that shard's MSF + dendrogram maintenance; an edge
// spanning two shards lands in the cross table, which is kept raw (no
// MSF filtering) so the merged queries stay exact. Shards are
// independent structures, so a flush applies their sub-batches in
// parallel on the fork-join scheduler, and snapshot rebuilds touch
// only the shards an epoch actually changed — the rest of the epoch
// reuses the previous per-shard snapshots by pointer.
//
// Ticket resolution lives here: the router records where every applied
// insertion landed (shard handle or cross slot), so later erases route
// to the right place by ticket alone.
//
// Shard-local vertex spaces: ranges are contiguous, so shard k's
// DynamicClustering spans only its own range remapped to [0,
// local_size(k)) — global ids are translated by base(k) on the way in
// (apply) and back out at the snapshot boundary (DendrogramSnapshot
// carries the base). Per-shard memory and a dirty shard's snapshot
// rebuild are O(n/K), not O(n).
#pragma once

#include <cstdint>
#include <limits>
#include <memory>
#include <vector>

#include "engine/contraction.hpp"
#include "engine/epoch.hpp"
#include "engine/mutation_queue.hpp"
#include "engine/stats.hpp"
#include "msf/dynamic_msf.hpp"

namespace dynsld::engine {

/// The sharded write-side backend (see the header comment). NOT
/// thread-safe — the service serializes apply/build_snapshot under its
/// flush lock; the snapshots it produces are immutable and safe to
/// read from anywhere.
class ShardRouter {
 public:
  /// Stand up `num_shards` empty per-shard clusterings over n vertices.
  /// `obs` (nullable in unit contexts) is the owning service's
  /// observability bundle: counters are bumped through its stats block
  /// and snapshot builds record stage timings into its histograms.
  /// `incremental` arms the per-shard incremental snapshot builders
  /// (ShardContraction): dirty shards patch the previous epoch's
  /// arrays copy-on-write when the batch's structural footprint is
  /// small; off, every dirty shard rebuilds from scratch (the baseline
  /// the benchmark and the fuzz twin-service compare against).
  ShardRouter(vertex_id n, int num_shards, SpineIndex index,
              std::shared_ptr<EngineObs> obs, bool incremental = true);

  const ShardMap& shard_map() const { return map_; }
  int num_shards() const { return map_.num_shards; }

  /// Apply one drained batch: route, group by shard, apply erases then
  /// inserts per shard (in parallel across shards). Not thread-safe —
  /// the service serializes flushes.
  void apply(const MutationQueue::Drained& batch);

  /// Materialize the epoch snapshot after apply(). Shards untouched
  /// since `prev` reuse prev's per-shard snapshots; `capture_edges`
  /// additionally copies the full alive edge set into the snapshot for
  /// reference verification. The snapshot carries an EpochDelta (shard
  /// rebuild flags + cross-edge churn accumulated since the previous
  /// build) for view refreshes, and an EpochTrace: the caller
  /// seeds the pre-build stages (drain/apply) in `seed`, the router
  /// fills the shard-rebuild and cross-rebuild stages and freezes the
  /// whole record into the snapshot. Clears the dirty flags and delta
  /// accumulators.
  std::shared_ptr<const EngineSnapshot> build_snapshot(
      uint64_t epoch, const EngineSnapshot* prev, bool capture_edges,
      obs::EpochTrace seed = {});

 private:
  struct Loc {
    enum Kind : uint8_t { kDead = 0, kShard, kCross };
    Kind kind = kDead;
    int32_t shard = -1;
    uint32_t id = 0;  // graph handle or cross-table slot
  };

  Loc* loc(ticket_t t) {
    return t < locs_.size() ? &locs_[t] : nullptr;
  }
  void record(ticket_t t, Loc l) {
    if (locs_.size() <= t) locs_.resize(t + 1);
    locs_[t] = l;
  }

  ShardMap map_;
  std::vector<std::unique_ptr<DynamicClustering>> shards_;
  // Per-shard incremental snapshot builders (retained slot order;
  // contraction.hpp), 1:1 with shards_.
  std::vector<ShardContraction> contraction_;
  std::vector<char> dirty_;
  // Cross-shard edge table (mutable side; CrossEdgeView is the frozen one).
  struct CrossSlot {
    vertex_id u, v;
    double w;
    bool alive = false;
  };
  std::vector<CrossSlot> cross_;
  std::vector<uint32_t> cross_free_;
  size_t cross_alive_ = 0;
  bool cross_dirty_ = false;
  // Lightest changed cross-edge weight since the last build_snapshot,
  // published with the epoch for view refreshes.
  double delta_cross_min_w_ = std::numeric_limits<double>::infinity();
  std::shared_ptr<const CrossEdgeView> cross_view_;
  std::vector<Loc> locs_;  // by ticket
  std::shared_ptr<EngineObs> obs_;
  // Aliasing handle on obs_->stats, so counter bumps stay one `->`.
  std::shared_ptr<EngineStats> stats_;
};

}  // namespace dynsld::engine

// Epoch-based read snapshots.
//
// The engine publishes a new EngineSnapshot after every batch flush.
// Readers acquire() the current snapshot (a shared_ptr copy) and run
// any number of queries against it — the answers are mutually
// consistent and correspond to exactly one prefix of the applied update
// stream, no matter how many flushes happen meanwhile. Reclamation is
// the shared_ptr refcount: a superseded epoch is destroyed when its
// last reader releases it, which is precisely epoch-based reclamation
// without a separate quiescence protocol.
//
// An EngineSnapshot combines the per-shard DendrogramSnapshots with the
// cross-shard edge view and answers the merged §6.1 queries exactly:
// single-linkage clusters at threshold tau are the connected components
// of the sub-tau edges, and the edge set is partitioned into intra-
// shard edges (each shard's clusters are exact for its subgraph) plus
// the cross table, so merging per-shard clusters along sub-tau cross
// edges reproduces the global clustering. With no sub-tau cross edges
// the queries collapse to the owning shard's O(log h) lookups.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <limits>
#include <memory>
#include <mutex>
#include <vector>

#include "engine/snapshot.hpp"
#include "engine/stats.hpp"
#include "graph/types.hpp"

namespace dynsld::persist {
struct SnapshotCodec;  // persist/checkpoint.hpp
}

namespace dynsld::engine {

/// Vertex-range shard assignment: shard k owns [k*stride, (k+1)*stride).
struct ShardMap {
  vertex_id n = 0;
  int num_shards = 1;
  vertex_id stride = 0;

  static ShardMap make(vertex_id n, int num_shards) {
    ShardMap m;
    m.n = n;
    m.num_shards = num_shards < 1 ? 1 : num_shards;
    m.stride = (n + m.num_shards - 1) / m.num_shards;
    if (m.stride == 0) m.stride = 1;
    return m;
  }

  int home(vertex_id v) const { return static_cast<int>(v / stride); }
  bool intra(vertex_id u, vertex_id v) const { return home(u) == home(v); }
  /// Global id of shard k's local vertex 0 (shard-local vertex spaces).
  vertex_id base(int k) const { return static_cast<vertex_id>(k) * stride; }
  /// Size of shard k's vertex range (the last shards may be short/empty).
  vertex_id local_size(int k) const {
    vertex_id b = base(k);
    if (b >= n) return 0;
    return n - b < stride ? n - b : stride;
  }
};

/// Immutable view of the cross-shard edge table, rebuilt on epochs whose
/// flush touched it: alive cross edges sorted by weight, so threshold
/// consumers (ThresholdView) scan exactly the sub-tau prefix.
class CrossEdgeView {
 public:
  /// One alive cross-shard edge (global endpoint ids).
  struct Edge {
    vertex_id u, v;
    double w;
  };

  CrossEdgeView() = default;
  /// `edges` need not be sorted; the view sorts by weight.
  explicit CrossEdgeView(std::vector<Edge> edges);

  bool empty() const { return edges_.empty(); }
  size_t size() const { return edges_.size(); }
  const std::vector<Edge>& edges() const { return edges_; }

  /// Number of edges with w <= tau (the prefix threshold consumers
  /// scan). O(log X).
  size_t sub_tau_prefix(double tau) const;

 private:
  std::vector<Edge> edges_;  // weight-ascending
};

/// What changed between an epoch and the one it was built from,
/// recorded by the router at flush time and published with the
/// snapshot. View refresh keys shard reuse off DendrogramSnapshot
/// pointer identity (robust across skipped epochs) and reads
/// base_epoch/cross_min_w to prove a sub-tau cross prefix unchanged;
/// the rebuild flags record which shards the flush touched.
struct EpochDelta {
  /// The epoch this delta is relative to (the previously published
  /// snapshot; equals this snapshot's own epoch for the initial build).
  uint64_t base_epoch = 0;
  /// Per shard: was this shard's dendrogram snapshot rebuilt?
  std::vector<char> shard_rebuilt;
  /// Lightest weight among the changed cross edges: a view resolved at
  /// tau < cross_min_w reads the same sub-tau prefix before and after,
  /// so its cross merge is untouched even though the table changed.
  double cross_min_w = std::numeric_limits<double>::infinity();

  int num_rebuilt() const {
    int k = 0;
    for (char c : shard_rebuilt) k += c != 0;
    return k;
  }
};

/// One published epoch: the per-shard DendrogramSnapshots, the frozen
/// cross-edge table, and the delta vs the epoch it was built from.
/// Entirely immutable — every method is const and thread-safe; readers
/// hold it via shared_ptr (EpochManager::Snap) for as long as they
/// like, which is also the reclamation scheme.
class EngineSnapshot {
 public:
  /// Monotone publication counter (0 = the empty initial snapshot).
  uint64_t epoch() const { return epoch_; }
  const ShardMap& shard_map() const { return map_; }
  const DendrogramSnapshot& shard(int k) const { return *shards_[k]; }
  const CrossEdgeView& cross() const { return *cross_; }
  /// What this epoch changed relative to the one it was built from
  /// (per-shard rebuild flags + lightest changed cross weight).
  const EpochDelta& delta() const { return delta_; }
  /// Stage breakdown of the flush that built this epoch — what the
  /// epoch you are reading cost to produce (drain/apply/shard-rebuild/
  /// cross timings; obs/trace.hpp). Zero-filled for snapshots built
  /// outside a service flush (the epoch-0 initial build).
  const obs::EpochTrace& trace() const { return trace_; }
  /// Dendrogram nodes across the shard snapshots — intra-shard forest
  /// edges only; cross-table edges are raw and counted by cross().
  size_t num_tree_edges() const;

  // ---- merged §6.1 queries (exact across shards) ----
  // Single-shot convenience wrappers: each builds a transient
  // ThresholdView (cluster_view.hpp) over this snapshot and asks it.
  // Batch traffic should go through SldService::submit() (or hold a
  // ThresholdView) so the per-threshold merge resolution is paid once,
  // not per call.
  bool same_cluster(vertex_id s, vertex_id t, double tau) const;
  uint64_t cluster_size(vertex_id u, double tau) const;
  std::vector<vertex_id> cluster_report(vertex_id u, double tau) const;
  std::vector<vertex_id> flat_clustering(double tau) const;

  /// The epoch's full alive edge set (tree + non-tree + cross), present
  /// only when the service runs with capture_edges (verification mode);
  /// ids are dense positions.
  const std::vector<WeightedEdge>& captured_edges() const { return edges_; }

  /// Query accounting sink shared with the publishing service (may be
  /// null in unit contexts); views bump their counters through it.
  const std::shared_ptr<EngineStats>& stats() const { return stats_; }

  /// The publishing engine's full observability bundle (registry,
  /// trace ring, histograms) — null in unit contexts. Shared ownership:
  /// a reader holding the snapshot keeps the scrape surface alive even
  /// past the service, exactly like stats().
  const std::shared_ptr<EngineObs>& obs() const { return obs_; }

 private:
  friend class ShardRouter;
  // The checkpoint byte codec: the one place these private arrays
  // cross the process boundary (persist/checkpoint.hpp).
  friend struct persist::SnapshotCodec;
  EngineSnapshot() = default;

  uint64_t epoch_ = 0;
  ShardMap map_;
  std::vector<std::shared_ptr<const DendrogramSnapshot>> shards_;
  std::shared_ptr<const CrossEdgeView> cross_;
  EpochDelta delta_;
  obs::EpochTrace trace_;
  std::vector<WeightedEdge> edges_;
  // Query accounting: shared with the publishing service so counting
  // stays safe even for readers that outlive it.
  std::shared_ptr<EngineStats> stats_;
  std::shared_ptr<EngineObs> obs_;
};

/// Publication point between the writer and the readers.
class EpochManager {
 public:
  /// A reader's handle on an epoch: holding it pins the snapshot (and
  /// everything it shares) until released.
  using Snap = std::shared_ptr<const EngineSnapshot>;

  /// Current snapshot; never null once the service has constructed
  /// (epoch 0 is the empty snapshot). Wait-free for readers modulo the
  /// shared_ptr control-block increment.
  Snap acquire() const {
    std::lock_guard<std::mutex> lk(mu_);
    return cur_;
  }

  void publish(Snap s) {
    uint64_t e = s->epoch();
    {
      std::lock_guard<std::mutex> lk(mu_);
      if (retain_ > 0 && cur_) {
        ring_.push_back(cur_);
        while (ring_.size() > retain_) ring_.pop_front();
      }
      cur_ = std::move(s);
    }
    epoch_.store(e, std::memory_order_release);
  }

  uint64_t cur_epoch() const { return epoch_.load(std::memory_order_acquire); }

  /// Keep the last `n` superseded snapshots alive for AsOf time travel
  /// (0 = current epoch only). The ring pins memory: each retained
  /// epoch holds its rebuilt shards and cross table.
  void set_retention(size_t n) {
    std::lock_guard<std::mutex> lk(mu_);
    retain_ = n;
    while (ring_.size() > retain_) ring_.pop_front();
  }

  /// The retained snapshot of exactly `epoch` (current included), or
  /// null when it fell off the ring. O(retention) scan — the ring is
  /// small by construction.
  Snap at_epoch(uint64_t epoch) const {
    std::lock_guard<std::mutex> lk(mu_);
    if (cur_ && cur_->epoch() == epoch) return cur_;
    for (auto it = ring_.rbegin(); it != ring_.rend(); ++it)
      if ((*it)->epoch() == epoch) return *it;
    return nullptr;
  }

 private:
  mutable std::mutex mu_;
  Snap cur_;
  // Recently superseded epochs, oldest first (guarded by mu_).
  std::deque<Snap> ring_;
  size_t retain_ = 0;
  std::atomic<uint64_t> epoch_{0};
};

}  // namespace dynsld::engine

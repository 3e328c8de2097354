#include "engine/shard_router.hpp"

#include <cassert>
#include <chrono>

#include "parallel/par.hpp"

namespace dynsld::engine {

ShardRouter::ShardRouter(vertex_id n, int num_shards, SpineIndex index,
                         std::shared_ptr<EngineObs> obs)
    : map_(ShardMap::make(n, num_shards)),
      obs_(std::move(obs)),
      stats_(obs_ ? &obs_->stats : nullptr) {
  shards_.reserve(map_.num_shards);
  contraction_.resize(map_.num_shards);
  for (int k = 0; k < map_.num_shards; ++k) {
    // Shard-local vertex space: size each clustering to the shard's own
    // range (min 1 — trailing shards can own an empty range and never
    // receive edges, but the structures want n >= 1).
    vertex_id local_n = map_.local_size(k);
    shards_.push_back(
        std::make_unique<DynamicClustering>(local_n ? local_n : 1, index));
  }
  dirty_.assign(map_.num_shards, 0);
  cross_view_ = std::make_shared<CrossEdgeView>(std::vector<CrossEdgeView::Edge>{});
}

void ShardRouter::apply(const MutationQueue::Drained& batch) {
  // Route. Erases resolve through the ticket ledger; inserts split into
  // per-shard sub-batches and cross-table appends.
  std::vector<std::vector<DynamicClustering::graph_edge>> shard_erases(
      shards_.size());
  std::vector<std::vector<DynamicClustering::EdgeUpdate>> shard_inserts(
      shards_.size());
  std::vector<std::vector<ticket_t>> shard_insert_tickets(shards_.size());

  for (const MutationQueue::EraseOp& eop : batch.erases) {
    Loc* l = loc(eop.ticket);
    if (!l || l->kind == Loc::kDead) {
      if (stats_) stats_->invalid_erases.fetch_add(1, std::memory_order_relaxed);
      continue;
    }
    if (l->kind == Loc::kCross) {
      CrossSlot& slot = cross_[l->id];
      slot.alive = false;
      cross_free_.push_back(l->id);
      --cross_alive_;
      cross_dirty_ = true;
      if (slot.w < delta_cross_min_w_) delta_cross_min_w_ = slot.w;
      if (stats_) stats_->cross_ops.fetch_add(1, std::memory_order_relaxed);
    } else {
      shard_erases[l->shard].push_back(l->id);
      dirty_[l->shard] = 1;
    }
    *l = Loc{};
  }

  for (const MutationQueue::InsertOp& op : batch.inserts) {
    if (map_.intra(op.u, op.v)) {
      int k = map_.home(op.u);
      vertex_id base = map_.base(k);
      shard_inserts[k].push_back({op.u - base, op.v - base, op.w});
      shard_insert_tickets[k].push_back(op.ticket);
      dirty_[k] = 1;
    } else {
      uint32_t slot;
      if (!cross_free_.empty()) {
        slot = cross_free_.back();
        cross_free_.pop_back();
      } else {
        slot = static_cast<uint32_t>(cross_.size());
        cross_.emplace_back();
      }
      cross_[slot] = CrossSlot{op.u, op.v, op.w, true};
      ++cross_alive_;
      cross_dirty_ = true;
      if (op.w < delta_cross_min_w_) delta_cross_min_w_ = op.w;
      record(op.ticket, Loc{Loc::kCross, -1, slot});
      if (stats_) stats_->cross_ops.fetch_add(1, std::memory_order_relaxed);
    }
  }

  // Apply per-shard sub-batches in parallel: shards are independent
  // structures, and the batch algorithms inside each shard fork further
  // on the same scheduler.
  std::vector<std::vector<DynamicClustering::graph_edge>> handles(
      shards_.size());
  // Replacement-search work per shard (the erase's counter deltas).
  std::vector<DynamicClustering::SearchStats> search(shards_.size());
  par::parallel_for(
      0, shards_.size(),
      [&](size_t k) {
        if (!shard_erases[k].empty()) {
          const DynamicClustering::SearchStats before = shards_[k]->search_stats();
          shards_[k]->erase_edges(shard_erases[k]);
          const DynamicClustering::SearchStats& after = shards_[k]->search_stats();
          search[k].vertices_labeled = after.vertices_labeled - before.vertices_labeled;
          search[k].nontree_scanned = after.nontree_scanned - before.nontree_scanned;
        }
        if (!shard_inserts[k].empty())
          handles[k] = shards_[k]->insert_edges(shard_inserts[k]);
      },
      /*grain=*/1);

  for (size_t k = 0; k < shards_.size(); ++k) {
    if (stats_ && search[k].vertices_labeled) {
      stats_->msf_search_vertices.fetch_add(search[k].vertices_labeled,
                                            std::memory_order_relaxed);
      stats_->msf_search_scanned.fetch_add(search[k].nontree_scanned,
                                           std::memory_order_relaxed);
    }
    for (size_t i = 0; i < handles[k].size(); ++i) {
      record(shard_insert_tickets[k][i],
             Loc{Loc::kShard, static_cast<int32_t>(k), handles[k][i]});
    }
    if (stats_ && (!shard_erases[k].empty() || !shard_inserts[k].empty()))
      stats_->shard_batches.fetch_add(1, std::memory_order_relaxed);
  }
}

std::shared_ptr<const EngineSnapshot> ShardRouter::build_snapshot(
    uint64_t epoch, const EngineSnapshot* prev, bool capture_edges,
    obs::EpochTrace seed) {
  auto t0 = std::chrono::steady_clock::now();
  auto snap = std::shared_ptr<EngineSnapshot>(new EngineSnapshot());
  snap->epoch_ = epoch;
  snap->map_ = map_;
  snap->obs_ = obs_;
  snap->shards_.resize(shards_.size());
  obs::TraceRing* ring = obs_ ? &obs_->trace : nullptr;

  // Record the delta before the dirty flags are consumed below. The
  // initial build (no prev) marks everything rebuilt and is its own
  // base, so view refreshes can never mistake it for an increment.
  snap->delta_.base_epoch = prev ? prev->epoch() : epoch;
  snap->delta_.shard_rebuilt.assign(shards_.size(), 1);
  if (prev) {
    for (size_t k = 0; k < shards_.size(); ++k)
      snap->delta_.shard_rebuilt[k] = dirty_[k];
  }
  snap->delta_.cross_min_w = delta_cross_min_w_;
  delta_cross_min_w_ = std::numeric_limits<double>::infinity();

  uint64_t built = 0, reused = 0;
  std::vector<ShardContraction::PatchStats> patch_stats(shards_.size());
  {
    // The stage span covers all rebuilds of the epoch; each rebuilt
    // shard additionally records its own build into flush.shard_build
    // (or flush.shard_patch when the builder patched) from
    // inside the parallel loop (per-thread histogram shards make that
    // wait-free even when every worker lands at once).
    obs::ScopedSpan shards_span(ring, "flush.shards", epoch,
                                obs_ ? obs_->flush_shards : nullptr);
    par::parallel_for(
        0, shards_.size(),
        [&](size_t k) {
          if (prev && !dirty_[k]) {
            snap->shards_[k] = prev->shards_[k];
          } else {
            uint64_t b0 = obs::now_ns();
            snap->shards_[k] = contraction_[k].advance(
                shards_[k]->sld(), map_.base(static_cast<int>(k)),
                prev ? prev->shards_[k].get() : nullptr, patch_stats[k]);
            uint64_t dt = obs::now_ns() - b0;
            if (obs_)
              (patch_stats[k].patched ? obs_->flush_shard_patch
                                      : obs_->flush_shard_build)
                  ->record(dt);
          }
        },
        /*grain=*/1);
    seed.shards_ns = shards_span.stop();
  }
  uint64_t patched = 0, fallbacks = 0;
  for (size_t k = 0; k < shards_.size(); ++k) {
    if (prev && !dirty_[k]) {
      ++reused;
    } else {
      ++built;
      patched += patch_stats[k].patched;
      fallbacks += patch_stats[k].fallback;
    }
    dirty_[k] = 0;
  }

  if (cross_dirty_ || !prev) {
    obs::ScopedSpan cross_span(ring, "flush.cross", epoch,
                               obs_ ? obs_->flush_cross : nullptr);
    std::vector<CrossEdgeView::Edge> alive;
    alive.reserve(cross_alive_);
    for (const CrossSlot& s : cross_) {
      if (s.alive) alive.push_back({s.u, s.v, s.w});
    }
    cross_view_ = std::make_shared<CrossEdgeView>(std::move(alive));
    cross_dirty_ = false;
    seed.cross_ns = cross_span.stop();
  }
  snap->cross_ = cross_view_;

  seed.epoch = epoch;
  seed.shards_rebuilt = static_cast<int>(built);
  snap->trace_ = seed;

  if (capture_edges) {
    for (size_t k = 0; k < shards_.size(); ++k) {
      vertex_id base = map_.base(static_cast<int>(k));
      for (const WeightedEdge& e : shards_[k]->all_edges()) {
        snap->edges_.push_back(
            WeightedEdge{e.u + base, e.v + base, e.weight,
                         static_cast<edge_id>(snap->edges_.size())});
      }
    }
    for (const CrossSlot& s : cross_) {
      if (s.alive)
        snap->edges_.push_back(WeightedEdge{
            s.u, s.v, s.w, static_cast<edge_id>(snap->edges_.size())});
    }
  }

  if (stats_) {
    auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                  std::chrono::steady_clock::now() - t0)
                  .count();
    stats_->snapshot_build_ns.fetch_add(ns, std::memory_order_relaxed);
    stats_->shard_snapshots_built.fetch_add(built, std::memory_order_relaxed);
    stats_->shard_snapshots_reused.fetch_add(reused, std::memory_order_relaxed);
    stats_->shard_snapshots_patched.fetch_add(patched,
                                              std::memory_order_relaxed);
    stats_->shard_patch_fallbacks.fetch_add(fallbacks,
                                            std::memory_order_relaxed);
    stats_->epochs_published.fetch_add(1, std::memory_order_relaxed);
  }
  return snap;
}

}  // namespace dynsld::engine

// Engine observability: lock-free counters covering both front-ends
// (update coalescing, batch flushes, epoch publication, query traffic),
// bundled with the metrics registry and trace ring into EngineObs — the
// engine's one scrape surface.
//
// The counter set is defined ONCE, in the DYNSLD_ENGINE_COUNTERS
// X-macro list below. The struct fields, the plain Report copy,
// report()'s field-by-field load, the for_each() visitor that drives
// registry registration and exposition names, and the coverage
// static_assert are all generated from that single list — adding a
// counter is one line, and it is impossible to add one that report()
// or the scrape surface silently drops (the PR-5-era Report hand-copied
// 44 fields positionally; one missed field compiled fine).
#pragma once

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <map>
#include <memory>
#include <shared_mutex>
#include <string>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace dynsld::engine {

/// The engine's counter list — the single source of truth for
/// EngineStats' fields, Report, report(), for_each(), and the metric
/// names the registry scrapes. X is applied to each counter name.
#define DYNSLD_ENGINE_COUNTERS(X)                                         \
  /* -- update front-end -- */                                            \
  X(inserts_enqueued)                                                     \
  X(erases_enqueued)                                                      \
  X(coalesced_pairs)      /* insert+erase annihilated */                  \
  X(duplicate_erases)     /* dropped in the queue */                      \
  X(erase_ledger_misses)  /* endpoint erase with no live ledger entry */  \
  X(invalid_erases)       /* unknown/dead ticket at apply */              \
  /* -- flush path -- */                                                  \
  X(flushes)              /* non-empty batch applications */              \
  X(ops_applied)                                                          \
  X(max_batch)                                                            \
  X(shard_batches)        /* per-shard sub-batches applied */             \
  X(cross_ops)            /* ops landing in the cross table */            \
  X(msf_search_vertices)  /* vertices MSF replacement search labeled */ \
  X(msf_search_scanned)   /* non-tree entries it scanned */               \
  /* -- epochs -- */                                                      \
  X(epochs_published)                                                     \
  X(snapshot_build_ns)                                                    \
  X(shard_snapshots_built)   /* materialized fresh or by patching */      \
  X(shard_snapshots_reused)                                               \
  X(shard_snapshots_patched) /* built by COW-patching the prev arrays */  \
  X(shard_patch_fallbacks)   /* patch gate failed at materialization */   \
  /* Retired with the snapshot lifting table: never incremented, */       \
  /* kept only for readers that still name them. */                       \
  X(contraction_rounds_total)                                             \
  X(contraction_rounds_rerun)                                             \
  /* -- query front-end -- */                                             \
  X(q_same_cluster)                                                       \
  X(q_cluster_size)                                                       \
  X(q_cluster_report)                                                     \
  X(q_flat_clustering)                                                    \
  X(q_size_histogram)                                                     \
  X(q_num_clusters)                                                       \
  /* -- view plane: fresh resolutions and refresh grades -- */            \
  X(views_built)          /* ThresholdView resolutions */                 \
  X(cross_uf_builds)      /* full cross-shard union-find builds */        \
  X(refresh_views_reused) /* resolution shared wholesale */               \
  X(refresh_views_incremental) /* hosting shard changed: re-resolved */   \
  X(refresh_views_full)   /* cross prefix changed: re-resolved */         \
  /* -- flat labels -- */                                                 \
  X(labels_rebuilt)       /* global label materializations */             \
  /* Retired with the flat-label patch path: never incremented, */        \
  /* kept only for readers that still name them. */                       \
  X(labels_patched)                                                       \
  X(labels_reused)                                                        \
  /* -- broker (async request plane) -- */                                \
  X(broker_submits)       /* accepted (inline or queued) */               \
  X(broker_inline_served) /* answered on the submitting thread */         \
  X(broker_batches)       /* dispatch cycles with groups */               \
  X(broker_groups)        /* (epoch, tau) groups resolved */              \
  X(broker_group_requests) /* per-group distinct requests */              \
  X(broker_epoch_waits)   /* AtLeastEpoch requests parked */              \
  X(broker_admission_rejects) /* intake over queue depth */               \
  X(broker_quota_rejects)     /* over the client's weighted cap */        \
  X(broker_deadline_expired)  /* expired, never executed */               \
  X(broker_cancelled)         /* cancelled while queued */                \
  X(broker_shutdown_aborted)  /* resolved at shutdown */                  \
  X(broker_drain_aborted)     /* parked waiters cut loose by a drain */   \
  X(broker_max_depth)         /* queue-depth high-water */                \
  /* -- persistence (WAL + checkpoints + recovery + AsOf) -- */           \
  X(wal_records)          /* epoch records appended */                    \
  X(wal_bytes)            /* bytes appended (frames + payloads) */        \
  X(wal_fsyncs)           /* syncs the policy issued */                   \
  X(wal_segments)         /* segment files opened for append */           \
  X(checkpoints_written)                                                  \
  X(wal_segments_removed) /* compacted away */                            \
  X(checkpoints_removed)  /* past the retention count */                  \
  X(recovery_replayed)    /* WAL records replayed at recover() */         \
  X(asof_retained)        /* AsOf served from the in-memory ring */       \
  X(asof_rehydrated)      /* AsOf served from a checkpoint file */        \
  X(asof_unavailable)     /* AsOf outside the retained history */         \
  /* -- network front-end (src/net: RPC server + replication) -- */       \
  X(net_frames_in)        /* frames decoded off the wire */               \
  X(net_frames_out)       /* frames written to the wire */                \
  X(net_bytes_in)                                                         \
  X(net_bytes_out)                                                        \
  X(net_frame_rejects)    /* bad magic/version/CRC/oversize: conn cut */  \
  X(net_clients_accepted) /* connections accepted */                      \
  X(repl_snapshots_served) /* bootstrap checkpoints sent to replicas */   \
  X(repl_records_streamed) /* WAL records fanned out to replicas */       \
  X(repl_records_applied)  /* records applied on the replica side */

/// The engine's counter block (shared by the service, its snapshots
/// and the views built over them). Thread-safe: all counters are
/// relaxed atomics bumped from hot paths. Fields are generated from
/// DYNSLD_ENGINE_COUNTERS — see that list for per-counter meanings.
struct EngineStats {
#define DYNSLD_STATS_FIELD(name) std::atomic<uint64_t> name{0};
  DYNSLD_ENGINE_COUNTERS(DYNSLD_STATS_FIELD)
#undef DYNSLD_STATS_FIELD

  /// Number of counters in the block (generated; the coverage
  /// static_assert below keeps it honest).
  static constexpr size_t kNumCounters = 0
#define DYNSLD_STATS_PLUS1(name) +1
      DYNSLD_ENGINE_COUNTERS(DYNSLD_STATS_PLUS1)
#undef DYNSLD_STATS_PLUS1
      ;

  /// A plain (non-atomic) copy of every counter, for printing and test
  /// assertions. Fields mirror EngineStats one-for-one by generation,
  /// so a counter cannot exist without its Report field.
  struct Report {
#define DYNSLD_STATS_FIELD(name) uint64_t name;
    DYNSLD_ENGINE_COUNTERS(DYNSLD_STATS_FIELD)
#undef DYNSLD_STATS_FIELD

    uint64_t queries() const {
      return q_same_cluster + q_cluster_size + q_cluster_report +
             q_flat_clustering + q_size_histogram + q_num_clusters;
    }
    double avg_batch() const {
      return flushes ? static_cast<double>(ops_applied) / flushes : 0.0;
    }
    /// Mean number of distinct client requests sharing one (epoch, tau)
    /// group — the cross-client amortization factor of the broker.
    double avg_group_requests() const {
      return broker_groups
                 ? static_cast<double>(broker_group_requests) / broker_groups
                 : 0.0;
    }
  };

  /// Relaxed copy of every counter (generated field-by-field — no
  /// positional hand-copy to drift).
  Report report() const {
    Report rep;
#define DYNSLD_STATS_LOAD(name) \
  rep.name = name.load(std::memory_order_relaxed);
    DYNSLD_ENGINE_COUNTERS(DYNSLD_STATS_LOAD)
#undef DYNSLD_STATS_LOAD
    return rep;
  }

  /// Visit every counter as ("name", atomic&) — drives registry
  /// registration, exposition, and the coverage tests.
  template <class F>
  void for_each(F&& f) const {
#define DYNSLD_STATS_VISIT(name) f(#name, name);
    DYNSLD_ENGINE_COUNTERS(DYNSLD_STATS_VISIT)
#undef DYNSLD_STATS_VISIT
  }

  /// Raise a monotone high-water counter to at least `v`.
  static void bump_max(std::atomic<uint64_t>& a, uint64_t v) {
    uint64_t cur = a.load(std::memory_order_relaxed);
    while (v > cur &&
           !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
    }
  }

  void bump_max_batch(uint64_t sz) { bump_max(max_batch, sz); }
};

// Coverage guard: every atomic in EngineStats must come from the
// X-macro list. A field added by hand (outside DYNSLD_ENGINE_COUNTERS)
// changes sizeof and fails here instead of silently missing from
// report() and the scrape surface.
static_assert(sizeof(EngineStats) ==
                  EngineStats::kNumCounters * sizeof(std::atomic<uint64_t>),
              "EngineStats field added outside DYNSLD_ENGINE_COUNTERS");
// Same guard for the plain snapshot: Report must mirror the macro list
// field-for-field so the generated loads stay in sync.
static_assert(sizeof(EngineStats::Report) ==
                  EngineStats::kNumCounters * sizeof(uint64_t),
              "EngineStats::Report drifted from DYNSLD_ENGINE_COUNTERS");

/// Per-client request-plane accounting — the broker's QoS surface. One
/// block per client id (QueryRequest::client), created on first sight.
/// `weight`/`inflight` drive the weighted admission cap; the remaining
/// counters are scraped under "broker.client.<id>.*". All relaxed
/// atomics bumped from the submit/fulfill paths.
struct ClientStats {
  std::atomic<uint64_t> weight{1};           ///< admission weight (>= 1)
  std::atomic<uint64_t> inflight{0};         ///< admitted, unresolved
  std::atomic<uint64_t> submitted{0};        ///< requests admitted
  std::atomic<uint64_t> fulfilled{0};        ///< resolved with results
  std::atomic<uint64_t> quota_rejected{0};   ///< over the weighted cap
  std::atomic<uint64_t> deadline_expired{0};  ///< dropped by deadline
};

/// Registry-backed table of ClientStats blocks. Lives inside EngineObs
/// (not the broker) so the registered per-client counters share the
/// bundle's lifetime — snapshots can keep the registry alive past the
/// broker, and a late scrape must not chase freed counter storage.
/// Thread-safe: lookups take a shared lock, first-sight creation an
/// exclusive one; entries are never removed.
class ClientStatsTable {
 public:
  /// Wire the registry the per-client counters register into (done once
  /// by EngineObs's constructor, before any client can exist).
  void attach(obs::MetricRegistry* reg) { registry_ = reg; }

  /// The stats block of `client`, created — weight 1, counters
  /// registered under "broker.client.<id>.*" — on first sight. The
  /// pointer stays valid for the table's lifetime.
  ClientStats* get(uint64_t client) {
    {
      std::shared_lock<std::shared_mutex> lk(mu_);
      auto it = table_.find(client);
      if (it != table_.end()) return it->second.get();
    }
    std::unique_lock<std::shared_mutex> lk(mu_);
    auto [it, fresh] = table_.try_emplace(client);
    if (!fresh) return it->second.get();
    it->second = std::make_unique<ClientStats>();
    ClientStats* cs = it->second.get();
    total_weight_.fetch_add(1, std::memory_order_relaxed);
    if (registry_) {
      const std::string base = "broker.client." + std::to_string(client) + ".";
      registry_->add_counter(base + "submitted", &cs->submitted);
      registry_->add_counter(base + "fulfilled", &cs->fulfilled);
      registry_->add_counter(base + "quota_rejected", &cs->quota_rejected);
      registry_->add_counter(base + "deadline_expired", &cs->deadline_expired);
    }
    return cs;
  }

  /// Set a client's admission weight (0 clamps to 1), creating the
  /// block if unseen. The total adjusts so every cap recomputes on the
  /// next admission.
  void set_weight(uint64_t client, uint64_t weight) {
    if (weight == 0) weight = 1;
    ClientStats* cs = get(client);
    uint64_t old = cs->weight.exchange(weight, std::memory_order_relaxed);
    if (weight >= old)
      total_weight_.fetch_add(weight - old, std::memory_order_relaxed);
    else
      total_weight_.fetch_sub(old - weight, std::memory_order_relaxed);
  }

  /// Sum of every client's weight (0 until the first client appears).
  uint64_t total_weight() const {
    return total_weight_.load(std::memory_order_relaxed);
  }

  /// Distinct client ids seen.
  size_t size() const {
    std::shared_lock<std::shared_mutex> lk(mu_);
    return table_.size();
  }

 private:
  mutable std::shared_mutex mu_;
  std::map<uint64_t, std::unique_ptr<ClientStats>> table_;
  std::atomic<uint64_t> total_weight_{0};
  obs::MetricRegistry* registry_ = nullptr;
};

/// The engine's full observability bundle: the counter block, the
/// metric registry it is registered into (one scrape surface), the
/// span trace ring, and the pre-registered latency histograms the hot
/// paths record into. Owned by SldService via shared_ptr; snapshots
/// alias the stats member so readers outliving the service stay safe.
///
/// Histogram units are nanoseconds; the catalog with meanings lives in
/// docs/OBSERVABILITY.md.
struct EngineObs {
  EngineStats stats;
  obs::MetricRegistry registry;
  obs::TraceRing trace;
  /// Per-client QoS accounting (broker weighted admission); counters
  /// register lazily under "broker.client.<id>.*".
  ClientStatsTable clients;

  // -- flush pipeline stages (recorded per flush / per shard) --
  obs::LatencyHistogram* flush_drain;
  obs::LatencyHistogram* flush_apply;
  obs::LatencyHistogram* flush_shard_build;  // one record per rebuilt shard
  obs::LatencyHistogram* flush_shard_patch;  // one record per patched shard
  obs::LatencyHistogram* flush_shards;       // all rebuilds of one epoch
  obs::LatencyHistogram* flush_cross;
  obs::LatencyHistogram* flush_publish;
  obs::LatencyHistogram* flush_notify;
  obs::LatencyHistogram* flush_total;
  // -- broker request lifecycle --
  obs::LatencyHistogram* broker_intake_wait;  // submit -> dispatch pickup
  obs::LatencyHistogram* broker_park;         // parked (AtLeastEpoch) time
  obs::LatencyHistogram* broker_resolve;      // per-group view resolution
  obs::LatencyHistogram* broker_fulfill;      // submit -> future fulfilled
  obs::LatencyHistogram* broker_cycle;        // whole dispatch cycle
  // -- persistence (WAL append/fsync, checkpoint write, AsOf
  //    rehydration, whole-directory recovery) --
  obs::LatencyHistogram* persist_append;
  obs::LatencyHistogram* persist_fsync;
  obs::LatencyHistogram* persist_checkpoint;
  obs::LatencyHistogram* persist_rehydrate;
  obs::LatencyHistogram* persist_recover;

  /// Registers every EngineStats counter under "engine.<name>" and
  /// creates the histogram set. Gauges tied to a live service
  /// (epoch, queue depths) are added by SldService at construction.
  EngineObs() {
    clients.attach(&registry);
    stats.for_each([this](const char* name, const std::atomic<uint64_t>& c) {
      registry.add_counter(std::string("engine.") + name, &c);
    });
    flush_drain = registry.add_histogram("flush.drain");
    flush_apply = registry.add_histogram("flush.apply");
    flush_shard_build = registry.add_histogram("flush.shard_build");
    flush_shard_patch = registry.add_histogram("flush.shard_patch");
    flush_shards = registry.add_histogram("flush.shards");
    flush_cross = registry.add_histogram("flush.cross");
    flush_publish = registry.add_histogram("flush.publish");
    flush_notify = registry.add_histogram("flush.notify");
    flush_total = registry.add_histogram("flush.total");
    broker_intake_wait = registry.add_histogram("broker.intake_wait");
    broker_park = registry.add_histogram("broker.park");
    broker_resolve = registry.add_histogram("broker.resolve");
    broker_fulfill = registry.add_histogram("broker.fulfill");
    broker_cycle = registry.add_histogram("broker.cycle");
    persist_append = registry.add_histogram("persist.append");
    persist_fsync = registry.add_histogram("persist.fsync");
    persist_checkpoint = registry.add_histogram("persist.checkpoint");
    persist_rehydrate = registry.add_histogram("persist.rehydrate");
    persist_recover = registry.add_histogram("persist.recover");
  }
};

inline void print_report(const EngineStats::Report& r, std::FILE* out = stdout) {
  std::fprintf(out,
               "engine stats: enq %llu+/%llu-  coalesced %llu  flushes %llu "
               "(avg batch %.1f, max %llu)  epochs %llu  snapshots %llu built "
               "/ %llu reused (%.2f ms total)  queries %llu  cross ops %llu  "
               "views %llu (%llu cross-uf)\n",
               (unsigned long long)r.inserts_enqueued,
               (unsigned long long)r.erases_enqueued,
               (unsigned long long)r.coalesced_pairs,
               (unsigned long long)r.flushes, r.avg_batch(),
               (unsigned long long)r.max_batch,
               (unsigned long long)r.epochs_published,
               (unsigned long long)r.shard_snapshots_built,
               (unsigned long long)r.shard_snapshots_reused,
               r.snapshot_build_ns / 1e6, (unsigned long long)r.queries(),
               (unsigned long long)r.cross_ops,
               (unsigned long long)r.views_built,
               (unsigned long long)r.cross_uf_builds);
  if (r.refresh_views_reused || r.refresh_views_incremental ||
      r.refresh_views_full)
    std::fprintf(out,
                 "view refreshes: %llu reused / %llu incremental / %llu full\n",
                 (unsigned long long)r.refresh_views_reused,
                 (unsigned long long)r.refresh_views_incremental,
                 (unsigned long long)r.refresh_views_full);
  if (r.shard_snapshots_patched || r.shard_patch_fallbacks)
    std::fprintf(out,
                 "shard patching: %llu patched (%llu fallbacks)\n",
                 (unsigned long long)r.shard_snapshots_patched,
                 (unsigned long long)r.shard_patch_fallbacks);
  if (r.labels_rebuilt)
    std::fprintf(out, "flat labels: %llu materialized\n",
                 (unsigned long long)r.labels_rebuilt);
  if (r.broker_submits || r.broker_admission_rejects ||
      r.broker_deadline_expired)
    std::fprintf(out,
                 "broker: %llu submits (%llu inline)  %llu cycles  %llu "
                 "groups (%.1f reqs/group)  %llu epoch-waits  depth max "
                 "%llu  rejected %llu  expired %llu  cancelled %llu  "
                 "aborted %llu\n",
                 (unsigned long long)r.broker_submits,
                 (unsigned long long)r.broker_inline_served,
                 (unsigned long long)r.broker_batches,
                 (unsigned long long)r.broker_groups, r.avg_group_requests(),
                 (unsigned long long)r.broker_epoch_waits,
                 (unsigned long long)r.broker_max_depth,
                 (unsigned long long)r.broker_admission_rejects,
                 (unsigned long long)r.broker_deadline_expired,
                 (unsigned long long)r.broker_cancelled,
                 (unsigned long long)r.broker_shutdown_aborted);
  if (r.wal_records || r.checkpoints_written || r.recovery_replayed ||
      r.asof_retained || r.asof_rehydrated || r.asof_unavailable)
    std::fprintf(out,
                 "persistence: wal %llu records (%llu B, %llu fsyncs, %llu "
                 "segments)  checkpoints %llu written / %llu removed  "
                 "segments removed %llu  replayed %llu  asof %llu ring / "
                 "%llu rehydrated / %llu unavailable\n",
                 (unsigned long long)r.wal_records,
                 (unsigned long long)r.wal_bytes,
                 (unsigned long long)r.wal_fsyncs,
                 (unsigned long long)r.wal_segments,
                 (unsigned long long)r.checkpoints_written,
                 (unsigned long long)r.checkpoints_removed,
                 (unsigned long long)r.wal_segments_removed,
                 (unsigned long long)r.recovery_replayed,
                 (unsigned long long)r.asof_retained,
                 (unsigned long long)r.asof_rehydrated,
                 (unsigned long long)r.asof_unavailable);
  if (r.net_frames_in || r.net_frames_out || r.repl_records_applied)
    std::fprintf(out,
                 "network: %llu frames in (%llu B) / %llu out (%llu B)  "
                 "%llu rejects  %llu clients  quota rejects %llu  repl %llu "
                 "streamed / %llu applied / %llu bootstraps\n",
                 (unsigned long long)r.net_frames_in,
                 (unsigned long long)r.net_bytes_in,
                 (unsigned long long)r.net_frames_out,
                 (unsigned long long)r.net_bytes_out,
                 (unsigned long long)r.net_frame_rejects,
                 (unsigned long long)r.net_clients_accepted,
                 (unsigned long long)r.broker_quota_rejects,
                 (unsigned long long)r.repl_records_streamed,
                 (unsigned long long)r.repl_records_applied,
                 (unsigned long long)r.repl_snapshots_served);
}

}  // namespace dynsld::engine

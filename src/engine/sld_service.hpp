// SldService: the concurrent serving layer over the paper's dynamic
// SLD machinery — the piece that lets queries stream in *while* the
// dendrogram is being updated.
//
//   writer side                          reader side
//   -----------                          -----------
//   insert()/erase() -> MutationQueue    submit(QueryRequest)
//        | drain (coalesced)                  | -> future<ResultSet>
//        v                                    v
//   ShardRouter::apply  ---- publish ---> QueryBroker (intake ->
//   (per-shard batches,        |          dispatcher: group clients by
//    Thm 1.1/1.2/1.5)          |          (epoch, tau), one view per
//                              |          group, fulfill futures)
//                              +--------> EpochManager (snapshot()) +
//                                         SubscriptionHub (wakes the
//                                         broker's standing views)
//
// Mutations are cheap enqueues returning a ticket; a flush (caller-
// driven via flush(), or the background writer thread) drains the
// queue, applies the coalesced batch through the sharded backend with
// the per-theorem batch algorithms, freezes the changed shards into a
// new immutable snapshot, and publishes it as the next epoch. Readers
// never block writers and vice versa: a reader holds a shared_ptr to
// its epoch for as long as it likes.
//
// There is one read path: submit() a QueryRequest (deadline +
// consistency mode + cancellation token) and get a
// std::future<ResultSet>; the broker batches concurrent clients'
// requests into (epoch, tau) groups so the merge resolution is paid
// once per group fleet-wide, not per caller (broker.hpp). Explicit
// epoch pinning is a consistency mode — Pinned{svc.snapshot()} — not a
// separate surface. The sync surfaces — run() and the single-shot
// conveniences — are thin submit-and-wait wrappers over one request.
// Every publish notifies the SubscriptionHub, which wakes the broker's
// dispatcher so its standing per-tau ThresholdViews move to the new
// epoch: each either shares its previous resolution or resolves afresh
// (cluster_view.hpp).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <thread>

#include "engine/broker.hpp"
#include "engine/epoch.hpp"
#include "engine/mutation_queue.hpp"
#include "engine/query.hpp"
#include "engine/shard_router.hpp"
#include "engine/stats.hpp"
#include "engine/subscription.hpp"
#include "obs/export.hpp"
#include "persist/options.hpp"

namespace dynsld::persist {
class PersistenceManager;  // persist/persist.hpp
}

namespace dynsld::engine {

/// Construction-time knobs of an SldService.
struct ServiceConfig {
  vertex_id num_vertices = 0;
  int num_shards = 1;
  /// Background writer flushes when this many ops are pending...
  size_t flush_threshold = 256;
  /// ...or this much time passed since the last flush, whichever first.
  std::chrono::microseconds flush_interval{200};
  /// Epoch snapshots carry their full edge set (verification mode).
  bool capture_edges = false;
  /// Broker admission control: submits beyond this many in-flight
  /// requests are rejected with QueryError{kAdmissionRejected}.
  size_t broker_queue_depth = 4096;
  /// Broker dispatcher micro-batch timer (liveness fallback + parked
  /// deadline sweep granularity; submits and publishes wake it sooner).
  std::chrono::microseconds broker_interval{200};
  /// Superseded epochs kept alive in memory for AsOf{epoch} time
  /// travel (0 = current epoch only; each retained epoch pins its
  /// snapshot's memory).
  size_t retain_epochs = 8;
  /// Durability (persist/options.hpp): an empty dir disables the whole
  /// persistence plane. A non-empty dir must not hold prior WAL or
  /// checkpoint state — resume an existing directory through
  /// persist::recover() instead.
  persist::PersistOptions persist;
};

/// The serving engine's facade: thread-safe update enqueue + flush on
/// the writer side, the broker's submit() on the reader side. Readers
/// never block writers and vice versa; any state a reader obtains
/// (snapshot(), a ResultSet) stays valid and self-consistent no matter
/// how many flushes happen meanwhile.
class SldService {
 public:
  /// Construct with epoch 0 published (the empty snapshot) and the
  /// broker dispatcher running.
  explicit SldService(const ServiceConfig& cfg);
  /// Shuts the broker down (in-flight futures resolve with
  /// QueryError{kShutdown}) and stops the background writer.
  ~SldService();

  SldService(const SldService&) = delete;
  SldService& operator=(const SldService&) = delete;

  // ---- update front-end (thread-safe) ----

  /// Enqueue an edge insertion; returns its ticket immediately. The
  /// edge becomes visible to readers at the next published epoch.
  ticket_t insert(vertex_id u, vertex_id v, double w);

  /// Enqueue an erase by ticket. Erasing a not-yet-flushed insertion
  /// annihilates in the queue and never reaches the shards.
  void erase(ticket_t t);

  /// Erase by endpoints: resolves (u, v) to its most recently inserted
  /// live copy through the queue's endpoint ledger, so callers need not
  /// retain tickets. Returns false when no live (u, v) edge is known.
  bool erase(vertex_id u, vertex_id v);

  /// Synchronously drain + apply + publish. Returns the epoch readers
  /// now see (unchanged when nothing was pending). Safe to call
  /// concurrently with the background writer and with readers.
  uint64_t flush();

  /// Start/stop the background writer thread (idempotent).
  void start_writer();
  void stop_writer();

  // ---- query front-end (thread-safe, wait-free vs the writer) ----

  /// Submit one request to the asynchronous request plane — the read
  /// path. The broker groups concurrent clients' queries by (epoch,
  /// tau), resolves one ThresholdView per group, and fulfills the
  /// future; requests that expire, cancel, overflow the intake, or
  /// outlive the service resolve with a typed QueryError instead and
  /// never execute (broker.hpp).
  std::future<ResultSet> submit(QueryRequest req) const {
    return broker_->submit(std::move(req));
  }

  /// Submit several requests as one atomic intake splice: the
  /// dispatcher sees them in the same cycle, so shared (epoch, tau)
  /// groups collapse deterministically. futures[i] answers reqs[i].
  std::vector<std::future<ResultSet>> submit_batch(
      std::vector<QueryRequest> reqs) const {
    return broker_->submit_batch(std::move(reqs));
  }

  /// The request plane itself (depth introspection; submit through the
  /// service facade).
  QueryBroker& broker() const { return *broker_; }

  /// The current epoch snapshot. All queries on it are mutually
  /// consistent; submit with Pinned{snapshot()} across several requests
  /// for a transaction-like read view.
  EpochManager::Snap snapshot() const { return epochs_.acquire(); }

  /// The retained snapshot of exactly `epoch` — current epoch or one
  /// still in the AsOf retention ring (cfg.retain_epochs). Null when
  /// that epoch fell off the ring; AsOf{epoch} requests then fall back
  /// to checkpoint rehydration before erroring (query.hpp).
  EpochManager::Snap snapshot_at(uint64_t epoch) const {
    return epochs_.at_epoch(epoch);
  }

  /// Synchronous convenience: submit-and-wait on one Latest request.
  /// results[i] answers queries[i], all at one epoch. Batch traffic
  /// that can tolerate a future should prefer submit(): same
  /// amortization, no blocking. Throws QueryError like any submit.
  std::vector<QueryResult> run(std::span<const Query> queries) const;

  /// Convenience single-shot queries — submit-and-wait wrappers over
  /// one-element requests, so even stray single calls join the
  /// broker's cross-client (epoch, tau) groups instead of paying their
  /// own merge resolution. Throw QueryError like any submit.
  bool same_cluster(vertex_id s, vertex_id t, double tau) const;
  uint64_t cluster_size(vertex_id u, double tau) const;
  std::vector<vertex_id> cluster_report(vertex_id u, double tau) const;
  std::vector<vertex_id> flat_clustering(double tau) const;
  uint64_t num_clusters(double tau) const;

  // ---- introspection ----

  uint64_t epoch() const { return epochs_.cur_epoch(); }
  size_t pending_updates() const { return queue_.pending(); }
  vertex_id num_vertices() const { return cfg_.num_vertices; }
  int num_shards() const { return router_.num_shards(); }
  const ServiceConfig& config() const { return cfg_; }
  EngineStats::Report stats() const { return stats_->report(); }

  /// The engine's observability bundle: metric registry (every
  /// EngineStats counter plus live gauges and the flush/broker latency
  /// histograms — the one scrape surface), and the span trace ring.
  /// Scrape with obs().registry.scrape() and render via obs/export.hpp,
  /// or attach a periodic reporter with make_stats_sink(). Gauges read
  /// the live service and are cleared on destruction; snapshots keep
  /// the rest of the bundle alive for readers that outlive the service.
  EngineObs& obs() const { return *obs_; }

  /// Start a periodic reporter over this service's registry: scrapes
  /// every `opt.interval` and hands the rendered text to `emit`
  /// (obs/export.hpp). Destroy the sink before the service.
  std::unique_ptr<obs::StatsSink> make_stats_sink(
      std::function<void(const std::string&)> emit,
      obs::StatsSink::Options opt = {}) const;

  /// The observability bundle as the shared handle snapshots carry —
  /// what persistence components take as their accounting sink.
  std::shared_ptr<EngineObs> obs_shared() const { return obs_; }

  // ---- recovery plumbing (persist::recover and net::Replica) ----

  /// Re-enact one logged epoch through the normal flush path, so
  /// recovery produces a real, mutable engine whose state is bit for
  /// bit the logged one, not a frozen replica. `batch` is re-enqueued
  /// under its original tickets (no enqueue stats), the ticket counter
  /// rises to at least `ticket_floor`, and the batch applies and
  /// publishes exactly as flush() would — but as epoch `epoch`, and
  /// even when the batch is empty (replay reproduces empty epochs too).
  /// A checkpoint replays as one insert batch of its live edges with
  /// its ticket floor; a WAL record as its own batch. Never logs to
  /// the WAL, checkpoints or fires the epoch tap. Returns `epoch`.
  uint64_t replay(uint64_t epoch, const MutationQueue::Drained& batch,
                  ticket_t ticket_floor = 0);
  /// Hand the service its persistence plane (WAL hooks engage on the
  /// next flush; the broker gains the checkpoint-rehydration tier).
  /// Called by the constructor for fresh persisted services and by
  /// persist::recover() after replay.
  void attach_persistence(std::unique_ptr<persist::PersistenceManager> pm);
  /// The attached persistence plane (null when not persisting).
  persist::PersistenceManager* persistence() const { return persist_.get(); }

  /// In-memory tee of the durability stream — the replication feed
  /// (net/replication.hpp). on_batch sees every flushed batch's epoch
  /// record UNDER THE FLUSH LOCK, right after the WAL append, in
  /// exactly the WAL's byte framing; on_checkpoint fires (same lock)
  /// when a cadence checkpoint lands, with its epoch. Callbacks must be
  /// cheap and must not call flush() or submit(). Either hook may be
  /// null; replace with {} to detach. replay() never fires the tap (a
  /// replica bootstraps from disk, not from replay).
  struct EpochTap {
    /// Fired per published epoch with the exact WAL record bytes.
    std::function<void(uint64_t epoch, const std::string& record)> on_batch;
    /// Fired when a cadence checkpoint lands (its epoch).
    std::function<void(uint64_t checkpoint_epoch)> on_checkpoint;
  };
  /// Install/replace/clear the tee (thread-safe vs concurrent
  /// flushes). Also syncs the WAL tail to disk when persisting, so a
  /// tap plus the directory see a gap-free record history no matter
  /// when the tap attaches.
  void set_epoch_tap(EpochTap tap);

 private:
  /// The one drain -> apply -> build_snapshot -> publish -> notify
  /// core behind flush() (`replay` null) and replay().
  struct Replay {
    uint64_t epoch;
    const MutationQueue::Drained& batch;
    ticket_t ticket_floor;
  };
  uint64_t commit(const Replay* replay);
  void writer_loop();
  void nudge_writer();
  /// Submit-and-wait on a one-element Latest request (the convenience
  /// wrappers' shared path).
  QueryResult run_one(Query q) const;

  ServiceConfig cfg_;
  std::shared_ptr<EngineObs> obs_;
  EngineStats* stats_;  // &obs_->stats
  MutationQueue queue_;
  ShardRouter router_;  // guarded by flush_mu_
  EpochManager epochs_;
  SubscriptionHub subs_;  // publish fan-out; the broker registers here
  std::unique_ptr<QueryBroker> broker_;  // after subs_: dies first
  // Durability plane (null when not persisting); safe to destroy
  // before broker_ — the destructor joins the dispatcher (the only
  // rehydration caller) before members die.
  std::unique_ptr<persist::PersistenceManager> persist_;
  EpochTap tap_;  // guarded by flush_mu_ (set vs flush-path invocation)
  uint64_t next_epoch_ = 1;  // guarded by flush_mu_
  std::mutex flush_mu_;

  std::thread writer_;
  std::mutex wake_mu_;
  std::condition_variable wake_;
  bool writer_running_ = false;
  bool stop_ = false;  // guarded by wake_mu_
};

}  // namespace dynsld::engine

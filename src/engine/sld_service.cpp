#include "engine/sld_service.hpp"

#include <cassert>

#include "persist/persist.hpp"

namespace dynsld::engine {

SldService::SldService(const ServiceConfig& cfg)
    : cfg_(cfg),
      obs_(std::make_shared<EngineObs>()),
      stats_(&obs_->stats),
      queue_(stats_),
      router_(cfg.num_vertices, cfg.num_shards, SpineIndex::kLct, obs_) {
  // Live gauges: point-in-time reads of the running service, cleared in
  // the destructor (the registry itself may outlive us via snapshots).
  obs_->registry.add_gauge("engine.epoch", [this] { return epoch(); });
  obs_->registry.add_gauge("engine.pending_updates", [this] {
    return static_cast<uint64_t>(pending_updates());
  });
  obs_->registry.add_gauge("broker.depth", [this] {
    return static_cast<uint64_t>(broker_ ? broker_->depth() : 0);
  });
  obs_->registry.add_gauge("engine.wal_poisoned", [this] {
    return uint64_t{wal_poisoned_.load(std::memory_order_relaxed)};
  });
  // AsOf retention: superseded epochs stay queryable from memory.
  epochs_.set_retention(cfg_.retain_epochs);
  // Epoch 0: the empty snapshot, so readers never see a null view.
  epochs_.publish(router_.build_snapshot(0, nullptr, cfg_.capture_edges));
  broker_ = std::make_unique<QueryBroker>(
      epochs_, subs_, obs_,
      QueryBroker::Options{cfg_.broker_queue_depth, cfg_.broker_interval});
  if (cfg_.persist.enabled()) {
    // Fresh durable service: refuse a directory that already holds
    // state (recover() is the resume path; shadowing it would fork
    // history), then engage the WAL from the very first flush.
    auto pm = std::make_unique<persist::PersistenceManager>(
        cfg_.persist, persist::local_backend(), obs_);
    pm->require_fresh();
    attach_persistence(std::move(pm));
  }
}

SldService::~SldService() {
  // Broker first: resolve in-flight futures while the epochs they may
  // pin are still valid, and unhook its hub callback before the
  // shutdown flush publishes.
  broker_->shutdown();
  stop_writer();
  // The bundle outlives us through snapshots; the gauges do not.
  obs_->registry.clear_gauges();
}

std::unique_ptr<obs::StatsSink> SldService::make_stats_sink(
    std::function<void(const std::string&)> emit,
    obs::StatsSink::Options opt) const {
  return std::make_unique<obs::StatsSink>(obs_->registry, std::move(emit),
                                          opt);
}

void SldService::nudge_writer() {
  if (queue_.pending() < cfg_.flush_threshold) return;
  // Briefly take wake_mu_ so the notify cannot slip between the writer's
  // predicate check and its sleep (lost-wakeup race); otherwise a
  // threshold crossing could wait out a full flush_interval.
  { std::lock_guard<std::mutex> lk(wake_mu_); }
  wake_.notify_one();
}

ticket_t SldService::insert(vertex_id u, vertex_id v, double w) {
  assert(u < cfg_.num_vertices && v < cfg_.num_vertices && u != v);
  ticket_t t = queue_.enqueue_insert(u, v, w);
  nudge_writer();
  return t;
}

void SldService::erase(ticket_t t) {
  queue_.enqueue_erase(t);
  nudge_writer();
}

bool SldService::erase(vertex_id u, vertex_id v) {
  bool found = queue_.enqueue_erase(u, v);
  if (found) nudge_writer();
  return found;
}

uint64_t SldService::flush() { return commit(nullptr); }

uint64_t SldService::replay(uint64_t epoch, const MutationQueue::Drained& batch,
                            ticket_t ticket_floor) {
  const Replay r{epoch, batch, ticket_floor};
  return commit(&r);
}

uint64_t SldService::commit(const Replay* replay) {
  EpochManager::Snap published;
  uint64_t e;
  {
    std::lock_guard<std::mutex> lk(flush_mu_);
    if (replay) {
      // Re-enqueue under the original tickets (the endpoint ledger then
      // resolves exactly as it did before the crash) and force the
      // epoch counter: replay republishes the exact historical
      // sequence, and later flushes continue right after it.
      queue_.restore(replay->batch, replay->ticket_floor);
      next_epoch_ = replay->epoch;
    }
    // Spans are tagged with the epoch this flush will publish if the
    // queue turns out non-empty (next_epoch_ is stable under the lock).
    const uint64_t e_tag = next_epoch_;
    obs::ScopedSpan total_span(&obs_->trace, "flush.total", e_tag,
                               obs_->flush_total);
    obs::ScopedSpan drain_span(&obs_->trace, "flush.drain", e_tag,
                               obs_->flush_drain);
    MutationQueue::Drained batch = queue_.drain();
    if (batch.empty() && !replay) {
      // Nothing flushed: no epoch, no spans (an idle-timer wakeup is
      // not a pipeline stage). But an interval fsync policy still owes
      // its deadline: a burst followed by silence must not leave the
      // WAL tail unsynced past the configured bound.
      if (persist_) persist_->sync_if_due();
      drain_span.cancel();
      total_span.cancel();
      return epochs_.cur_epoch();
    }
    uint64_t drain_ns = drain_span.stop();
    if (!batch.empty()) {
      stats_->flushes.fetch_add(1, std::memory_order_relaxed);
      stats_->ops_applied.fetch_add(batch.size(), std::memory_order_relaxed);
      stats_->bump_max_batch(batch.size());
    }
    // Replay re-enacts history that is already durable: it never logs,
    // checkpoints or tees.
    persist::PersistenceManager* pm = replay ? nullptr : persist_.get();
    // Write-ahead: the batch is durable (per the fsync policy) before
    // any of it mutates the shards, so a crash at any later point
    // replays to exactly this epoch. A poisoned WAL refuses the record;
    // the epoch still publishes, but nothing durable backs it.
    const bool logged = !pm || pm->log_batch(e_tag, batch);
    if (!logged) wal_poisoned_.store(true, std::memory_order_relaxed);
    // Replication tee: the same record bytes the WAL got, handed to the
    // in-memory feed under the same lock (net/replication.hpp). An
    // unlogged epoch is not teed: replicas never run ahead of the log.
    if (!replay && logged && tap_.on_batch)
      tap_.on_batch(e_tag, persist::WalWriter::encode_record(e_tag, batch));
    obs::ScopedSpan apply_span(&obs_->trace, "flush.apply", e_tag,
                               obs_->flush_apply);
    router_.apply(batch);
    uint64_t apply_ns = apply_span.stop();
    EpochManager::Snap prev = epochs_.acquire();  // keep alive through build
    e = next_epoch_++;
    // Seed the epoch's trace with the stages the service timed; the
    // router fills the build stages and freezes it into the snapshot.
    obs::EpochTrace seed;
    seed.ops = batch.size();
    seed.drain_ns = drain_ns;
    seed.apply_ns = apply_ns;
    published =
        router_.build_snapshot(e, prev.get(), cfg_.capture_edges, seed);
    obs::ScopedSpan publish_span(&obs_->trace, "flush.publish", e,
                                 obs_->flush_publish);
    epochs_.publish(published);
    publish_span.stop();
    // Checkpoint cadence (still under the flush lock: the live-edge
    // table and the published snapshot must agree).
    if (pm) {
      const uint64_t ck_before = pm->last_checkpoint();
      pm->on_publish(*published, queue_.next_ticket());
      const uint64_t ck_after = pm->last_checkpoint();
      // A cadence checkpoint landed: tell the replication feed so it
      // can prune records the checkpoint now covers.
      if (ck_after != ck_before && tap_.on_checkpoint)
        tap_.on_checkpoint(ck_after);
    }
  }
  // Notify outside the flush lock so callbacks may read the service
  // (snapshot(), even enqueue updates — not flush()). Concurrent
  // flushes can therefore notify out of order; the broker tracks the
  // max announced epoch.
  obs::ScopedSpan notify_span(&obs_->trace, "flush.notify", e,
                              obs_->flush_notify);
  subs_.notify(published);
  notify_span.stop();
  return e;
}

void SldService::set_epoch_tap(EpochTap tap) {
  std::lock_guard<std::mutex> lk(flush_mu_);
  tap_ = std::move(tap);
  // Gap-free attachment contract (net/replication.hpp): every record
  // logged before this call must be readable from the directory, and
  // every later one reaches the tap — so flush the WAL's stdio tail to
  // disk while we hold the lock.
  if (persist_) persist_->sync_wal();
}

void SldService::attach_persistence(
    std::unique_ptr<persist::PersistenceManager> pm) {
  {
    std::lock_guard<std::mutex> lk(flush_mu_);
    persist_ = std::move(pm);
    // The boot config cleared the options to keep replay silent; make
    // config() truthful again.
    cfg_.persist = persist_->options();
  }
  broker_->set_rehydrator(
      [p = persist_.get()](uint64_t e) { return p->rehydrate(e); });
}

void SldService::start_writer() {
  std::lock_guard<std::mutex> lk(wake_mu_);
  if (writer_running_) return;
  stop_ = false;
  writer_running_ = true;
  writer_ = std::thread([this] { writer_loop(); });
}

void SldService::stop_writer() {
  {
    std::lock_guard<std::mutex> lk(wake_mu_);
    if (!writer_running_) return;
    stop_ = true;
  }
  wake_.notify_one();
  writer_.join();
  {
    std::lock_guard<std::mutex> lk(wake_mu_);
    writer_running_ = false;
  }
  flush();  // drain anything enqueued during shutdown
}

void SldService::writer_loop() {
  std::unique_lock<std::mutex> lk(wake_mu_);
  while (!stop_) {
    wake_.wait_for(lk, cfg_.flush_interval, [this] {
      return stop_ || queue_.pending() >= cfg_.flush_threshold;
    });
    if (stop_) break;
    if (queue_.pending() == 0) {
      // Idle tick: honor the WAL's interval-fsync deadline even though
      // no append will run it (wal.cpp only checks inside append()).
      lk.unlock();
      {
        std::lock_guard<std::mutex> flk(flush_mu_);
        if (persist_) persist_->sync_if_due();
      }
      lk.lock();
      continue;
    }
    lk.unlock();
    flush();
    lk.lock();
  }
}

std::vector<QueryResult> SldService::run(std::span<const Query> queries) const {
  if (queries.empty()) return {};
  QueryRequest req;
  req.queries.assign(queries.begin(), queries.end());
  return broker_->submit(std::move(req)).get().results;
}

QueryResult SldService::run_one(Query q) const {
  QueryRequest req;
  req.queries.push_back(std::move(q));
  return std::move(broker_->submit(std::move(req)).get().results[0]);
}

bool SldService::same_cluster(vertex_id s, vertex_id t, double tau) const {
  return std::get<bool>(run_one(SameClusterQuery{s, t, tau}));
}

uint64_t SldService::cluster_size(vertex_id u, double tau) const {
  return std::get<uint64_t>(run_one(ClusterSizeQuery{u, tau}));
}

std::vector<vertex_id> SldService::cluster_report(vertex_id u,
                                                  double tau) const {
  return std::get<std::vector<vertex_id>>(run_one(ClusterReportQuery{u, tau}));
}

std::vector<vertex_id> SldService::flat_clustering(double tau) const {
  return std::get<std::vector<vertex_id>>(run_one(FlatClusteringQuery{tau}));
}

uint64_t SldService::num_clusters(double tau) const {
  return std::get<uint64_t>(run_one(NumClustersQuery{tau}));
}

}  // namespace dynsld::engine

#include "engine/broker.hpp"

#include <algorithm>
#include <set>
#include <utility>

#include "parallel/par.hpp"

namespace dynsld::engine {

namespace {

/// Monotone max-store: publishes can notify out of order (flushes race
/// to the hub after releasing the flush lock), so only raise the mark.
void store_max(std::atomic<uint64_t>& a, uint64_t e) {
  uint64_t cur = a.load(std::memory_order_relaxed);
  while (cur < e && !a.compare_exchange_weak(cur, e,
                                             std::memory_order_release,
                                             std::memory_order_relaxed)) {
  }
}

/// Elapsed ns between two steady_clock points (0 when not after).
uint64_t elapsed_ns(std::chrono::steady_clock::time_point from,
                    std::chrono::steady_clock::time_point to) {
  if (to <= from) return 0;
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(to - from)
          .count());
}

}  // namespace

QueryBroker::QueryBroker(const EpochManager& epochs, SubscriptionHub& hub,
                         std::shared_ptr<EngineObs> obs, Options opt)
    : epochs_(epochs),
      hub_(hub),
      obs_(std::move(obs)),
      stats_(obs_ ? &obs_->stats : nullptr),
      opt_(opt) {
  if (opt_.queue_depth == 0) opt_.queue_depth = 1;
  last_epoch_ = epochs_.cur_epoch();
  // Publishes wake the dispatcher: AtLeastEpoch waiters unpark and the
  // standing view cache refreshes.
  hub_token_ = hub_.add([this](const EpochManager::Snap& s) {
    store_max(published_, s->epoch());
    nudge();
  });
  dispatcher_ = std::thread([this] { dispatcher_loop(); });
}

QueryBroker::~QueryBroker() { shutdown(); }

void QueryBroker::set_rehydrator(Rehydrator fn) {
  std::lock_guard<std::mutex> lk(rehydrate_mu_);
  rehydrate_ = std::move(fn);
}

void QueryBroker::abort_waiters() {
  abort_waiters_.store(true, std::memory_order_release);
  nudge();
}

void QueryBroker::set_client_weight(uint64_t client, uint64_t weight) {
  if (obs_) obs_->clients.set_weight(client, weight);
}

std::future<ResultSet> QueryBroker::error_future(QueryErrorCode code) {
  std::promise<ResultSet> p;
  p.set_exception(std::make_exception_ptr(QueryError(code)));
  return p.get_future();
}

bool QueryBroker::push_chain(Request* first, Request* last) {
  // seq_cst CAS: totally ordered against the stopped_ flag (see the
  // header comment on the shutdown race).
  Request* h = intake_.load();
  do {
    last->next = h;
  } while (!intake_.compare_exchange_weak(h, first));
  return h == nullptr;
}

void QueryBroker::nudge() {
  // Briefly take mu_ so the notify cannot slip between the dispatcher's
  // predicate check and its sleep (lost-wakeup race) — the same idiom
  // as the service's nudge_writer().
  { std::lock_guard<std::mutex> lk(mu_); }
  cv_.notify_one();
}

void QueryBroker::finish_error(Request* r, QueryErrorCode code) {
  // Depth drops before the future resolves, so a client that observes
  // the result never reads a stale depth() afterwards.
  depth_.fetch_sub(1, std::memory_order_acq_rel);
  if (ClientStats* cs = r->client_stats) {
    cs->inflight.fetch_sub(1, std::memory_order_acq_rel);
    if (code == QueryErrorCode::kDeadlineExceeded)
      cs->deadline_expired.fetch_add(1, std::memory_order_relaxed);
  }
  r->promise.set_exception(std::make_exception_ptr(QueryError(code)));
  if (r->req.on_complete) r->req.on_complete();
  delete r;
}

void QueryBroker::finish_ok(Request* r) {
  // End-to-end request latency: admission to fulfillment (the number a
  // client would measure around submit()...get()).
  if (obs_)
    obs_->broker_fulfill->record(
        elapsed_ns(r->submitted, std::chrono::steady_clock::now()));
  depth_.fetch_sub(1, std::memory_order_acq_rel);
  if (ClientStats* cs = r->client_stats) {
    cs->inflight.fetch_sub(1, std::memory_order_acq_rel);
    cs->fulfilled.fetch_add(1, std::memory_order_relaxed);
  }
  r->promise.set_value(std::move(r->out));
  if (r->req.on_complete) r->req.on_complete();
  delete r;
}

void QueryBroker::abort_intake() {
  Request* h = intake_.exchange(nullptr);
  while (h) {
    Request* next = h->next;
    if (stats_)
      stats_->broker_shutdown_aborted.fetch_add(1, std::memory_order_relaxed);
    finish_error(h, QueryErrorCode::kShutdown);
    h = next;
  }
}

std::future<ResultSet> QueryBroker::prepare(QueryRequest&& req, bool stopped,
                                            Request** out) {
  *out = nullptr;
  // Fast-fail paths resolve the future before returning, so the
  // completion hook — fired exactly once per request, after the future
  // is ready — fires here, on the submitting thread.
  auto fail = [&req](QueryErrorCode code) {
    std::future<ResultSet> fut = error_future(code);
    if (req.on_complete) req.on_complete();
    return fut;
  };
  if (stopped) return fail(QueryErrorCode::kShutdown);
  if (req.cancel.cancelled()) {
    if (stats_)
      stats_->broker_cancelled.fetch_add(1, std::memory_order_relaxed);
    return fail(QueryErrorCode::kCancelled);
  }
  const auto now = std::chrono::steady_clock::now();
  if (now >= req.deadline) {
    if (stats_)
      stats_->broker_deadline_expired.fetch_add(1, std::memory_order_relaxed);
    return fail(QueryErrorCode::kDeadlineExceeded);
  }
  if (req.queries.empty()) {
    // Nothing to execute: complete immediately at the relevant epoch —
    // UNLESS the request is an AtLeastEpoch barrier whose epoch has
    // not published yet (must park like any other request) or an AsOf
    // (must resolve the historical epoch on the dispatcher, where a
    // miss becomes kEpochUnavailable rather than a silent success).
    const auto* ae = std::get_if<AtLeastEpoch>(&req.consistency);
    if (!std::holds_alternative<AsOf>(req.consistency) &&
        (!ae || epochs_.cur_epoch() >= ae->epoch)) {
      ResultSet rs;
      const auto* p = std::get_if<Pinned>(&req.consistency);
      rs.epoch = p && p->snap ? p->snap->epoch() : epochs_.cur_epoch();
      std::promise<ResultSet> pr;
      pr.set_value(std::move(rs));
      std::future<ResultSet> fut = pr.get_future();
      if (req.on_complete) req.on_complete();
      return fut;
    }
  }

  // Admission control: respect the configured depth or reject now.
  // (Global check first: a lone client's quota equals the full depth,
  // so single-tenant traffic sees exactly the pre-QoS behavior.)
  size_t cur = depth_.load(std::memory_order_relaxed);
  do {
    if (cur >= opt_.queue_depth) {
      if (stats_)
        stats_->broker_admission_rejects.fetch_add(1,
                                                   std::memory_order_relaxed);
      return fail(QueryErrorCode::kAdmissionRejected);
    }
  } while (!depth_.compare_exchange_weak(cur, cur + 1,
                                         std::memory_order_acq_rel));

  // Per-client weighted quota (QoS): a client's in-flight share of the
  // queue is weight / total_weight, so a saturating tenant exhausts its
  // own slice and gets kAdmissionRejected while lighter tenants keep
  // their headroom. Client 0 (anonymous) and obs-less contexts skip
  // the table and contend only on the global depth.
  ClientStats* cs = nullptr;
  if (obs_ && req.client != 0) {
    cs = obs_->clients.get(req.client);
    const uint64_t total =
        std::max<uint64_t>(1, obs_->clients.total_weight());
    const uint64_t w = cs->weight.load(std::memory_order_relaxed);
    const uint64_t cap =
        std::max<uint64_t>(1, uint64_t(opt_.queue_depth) * w / total);
    uint64_t in = cs->inflight.load(std::memory_order_relaxed);
    do {
      if (in >= cap) {
        depth_.fetch_sub(1, std::memory_order_acq_rel);  // undo admission
        cs->quota_rejected.fetch_add(1, std::memory_order_relaxed);
        if (stats_)
          stats_->broker_quota_rejects.fetch_add(1,
                                                 std::memory_order_relaxed);
        return fail(QueryErrorCode::kAdmissionRejected);
      }
    } while (!cs->inflight.compare_exchange_weak(in, in + 1,
                                                 std::memory_order_acq_rel));
    cs->submitted.fetch_add(1, std::memory_order_relaxed);
  }

  Request* r = new Request;
  r->req = std::move(req);
  r->submitted = now;
  r->client_stats = cs;
  std::future<ResultSet> fut = r->promise.get_future();
  if (stats_) {
    stats_->broker_submits.fetch_add(1, std::memory_order_relaxed);
    stats_->bump_max(stats_->broker_max_depth, cur + 1);
  }
  *out = r;
  return fut;
}

std::future<ResultSet> QueryBroker::submit(QueryRequest req) {
  Request* r = nullptr;
  std::future<ResultSet> fut = prepare(std::move(req), stopped_.load(), &r);
  if (!r) return fut;
  bool was_empty = push_chain(r, r);
  if (stopped_.load())
    abort_intake();  // lost the race with shutdown: resolve, don't dangle
  else if (was_empty)
    nudge();
  return fut;
}

std::vector<std::future<ResultSet>> QueryBroker::submit_batch(
    std::vector<QueryRequest> reqs) {
  std::vector<std::future<ResultSet>> futs;
  futs.reserve(reqs.size());
  Request* first = nullptr;
  Request* last = nullptr;
  const bool stopped = stopped_.load();
  for (QueryRequest& req : reqs) {
    Request* r = nullptr;
    futs.push_back(prepare(std::move(req), stopped, &r));
    if (!r) continue;
    // Build the local chain; one CAS splices the whole batch, so the
    // dispatcher is guaranteed to see it in a single cycle.
    if (!first) {
      first = last = r;
    } else {
      last->next = r;
      last = r;
    }
  }
  if (first) {
    bool was_empty = push_chain(first, last);
    if (stopped_.load())
      abort_intake();
    else if (was_empty)
      nudge();
  }
  return futs;
}

void QueryBroker::shutdown() {
  // Serialized: shutdown() is reachable from the service destructor
  // and from any thread via SldService::broker() — double-join and
  // double-drain must be impossible, not just unlikely.
  std::lock_guard<std::mutex> shutdown_lk(shutdown_mu_);
  stopped_.store(true);  // seq_cst: orders against submit's push + check
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  if (dispatcher_.joinable()) dispatcher_.join();
  // The dispatcher is gone: everything still queued or parked resolves
  // with kShutdown, so no future ever dangles.
  abort_intake();
  for (Request* r : parked_) {
    if (stats_)
      stats_->broker_shutdown_aborted.fetch_add(1, std::memory_order_relaxed);
    finish_error(r, QueryErrorCode::kShutdown);
  }
  parked_.clear();
  views_.clear();
  if (hub_token_) {
    hub_.remove(hub_token_);
    hub_token_ = 0;
  }
}

void QueryBroker::dispatcher_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  while (!stop_) {
    // Wake on submit nudges and publish signals; the interval bounds
    // how long parked deadlines can go unswept (micro-batch timer).
    cv_.wait_for(lk, opt_.interval, [&] {
      return stop_ || intake_.load() != nullptr ||
             abort_waiters_.load(std::memory_order_acquire) ||
             published_.load(std::memory_order_acquire) > last_epoch_;
    });
    if (stop_) break;
    if (intake_.load() == nullptr && parked_.empty() &&
        !abort_waiters_.load(std::memory_order_acquire) &&
        published_.load(std::memory_order_acquire) <= last_epoch_)
      continue;
    lk.unlock();
    dispatch_cycle();
    lk.lock();
  }
}

void QueryBroker::dispatch_cycle() {
  // Drain the intake in one exchange and restore FIFO order.
  std::vector<Request*> ready;
  {
    Request* h = intake_.exchange(nullptr);
    for (Request* r = h; r; r = r->next) ready.push_back(r);
    std::reverse(ready.begin(), ready.end());
  }

  EpochManager::Snap cur = epochs_.acquire();
  last_epoch_ = cur->epoch();
  ++cycle_;  // standing-cache age tick
  const auto now = std::chrono::steady_clock::now();
  obs::ScopedSpan cycle_span(obs_ ? &obs_->trace : nullptr, "broker.cycle",
                             cycle_, obs_ ? obs_->broker_cycle : nullptr);

  // Intake wait: admission to dispatch pickup, for the freshly drained
  // requests (ready holds exactly those at this point).
  if (obs_) {
    for (Request* r : ready)
      obs_->broker_intake_wait->record(elapsed_ns(r->submitted, now));
  }

  // Unpark AtLeastEpoch waiters the epoch (or their deadline/token)
  // released; the classify pass below sorts out which is which.
  {
    std::vector<Request*> still;
    still.reserve(parked_.size());
    for (Request* r : parked_) {
      const auto* ae = std::get_if<AtLeastEpoch>(&r->req.consistency);
      bool satisfied = !ae || cur->epoch() >= ae->epoch;
      if (satisfied || r->req.cancel.cancelled() || now >= r->req.deadline) {
        if (obs_) obs_->broker_park->record(elapsed_ns(r->parked_at, now));
        ready.push_back(r);
      } else {
        still.push_back(r);
      }
    }
    parked_.swap(still);
  }

  // Classify: expire / cancel / park without executing; group the rest
  // by (snapshot, tau) ACROSS clients.
  std::map<std::pair<const EngineSnapshot*, double>, size_t> index;
  std::vector<Group> groups;
  for (Request* r : ready) {
    if (r->req.cancel.cancelled()) {
      if (stats_)
        stats_->broker_cancelled.fetch_add(1, std::memory_order_relaxed);
      finish_error(r, QueryErrorCode::kCancelled);
      continue;
    }
    if (now >= r->req.deadline) {
      if (stats_)
        stats_->broker_deadline_expired.fetch_add(1,
                                                  std::memory_order_relaxed);
      finish_error(r, QueryErrorCode::kDeadlineExceeded);
      continue;
    }
    EpochManager::Snap snap = cur;
    if (const auto* ae = std::get_if<AtLeastEpoch>(&r->req.consistency)) {
      if (cur->epoch() < ae->epoch) {  // fresh arrival, epoch not there yet
        r->parked_at = now;
        parked_.push_back(r);
        if (stats_)
          stats_->broker_epoch_waits.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
    } else if (const auto* p = std::get_if<Pinned>(&r->req.consistency)) {
      if (p->snap) snap = p->snap;
    } else if (const auto* ao = std::get_if<AsOf>(&r->req.consistency)) {
      // Time travel: current epoch, then the in-memory retention ring,
      // then checkpoint rehydration; a miss everywhere is a typed
      // error, never a silently-wrong epoch. Rehydrated snapshots come
      // from an LRU keyed by epoch, so concurrent AsOf clients at one
      // epoch share a pointer — and therefore a (snapshot, tau) group.
      if (ao->epoch != cur->epoch()) {
        EpochManager::Snap hist = epochs_.at_epoch(ao->epoch);
        if (hist) {
          if (stats_)
            stats_->asof_retained.fetch_add(1, std::memory_order_relaxed);
        } else {
          Rehydrator fn;
          {
            std::lock_guard<std::mutex> lk(rehydrate_mu_);
            fn = rehydrate_;
          }
          if (fn) hist = fn(ao->epoch);
        }
        if (!hist) {
          if (stats_)
            stats_->asof_unavailable.fetch_add(1, std::memory_order_relaxed);
          finish_error(r, QueryErrorCode::kEpochUnavailable);
          continue;
        }
        snap = std::move(hist);
      }
    }
    r->out.epoch = snap->epoch();
    r->out.results.resize(r->req.queries.size());
    if (r->req.queries.empty()) {
      // Epoch barrier (empty AtLeastEpoch request): resolves with no
      // results the moment the awaited epoch is current.
      finish_ok(r);
      continue;
    }
    uint32_t joined = 0;
    for (uint32_t i = 0; i < r->req.queries.size(); ++i) {
      double tau = query_tau(r->req.queries[i]);
      auto [it, fresh] = index.try_emplace({snap.get(), tau}, groups.size());
      if (fresh) {
        Group g;
        g.snap = snap;
        g.tau = tau;
        g.current = snap.get() == cur.get();
        groups.push_back(std::move(g));
      }
      Group& g = groups[it->second];
      // Requests are classified one at a time, so one request's items
      // within a group form a contiguous run — joined counts runs.
      if (g.items.empty() || g.items.back().first != r) ++joined;
      g.items.emplace_back(r, i);
    }
    r->groups_left.store(joined, std::memory_order_relaxed);
  }

  if (!groups.empty()) {
    // Standing-cache lookups happen here, on the dispatcher thread;
    // the parallel phase below only reads the captured `prev` bases.
    uint64_t group_requests = 0;
    for (Group& g : groups) {
      if (g.current) {
        auto it = views_.find(g.tau);
        if (it != views_.end()) g.prev = it->second.view;
      }
      Request* prev_r = nullptr;
      for (const auto& [r, qi] : g.items) {
        if (r != prev_r) {
          ++group_requests;
          prev_r = r;
        }
      }
    }
    if (stats_) {
      stats_->broker_batches.fetch_add(1, std::memory_order_relaxed);
      stats_->broker_groups.fetch_add(groups.size(),
                                      std::memory_order_relaxed);
      stats_->broker_group_requests.fetch_add(group_requests,
                                              std::memory_order_relaxed);
    }

    // Execute the cross-client groups in parallel: one ThresholdView
    // per (epoch, tau) — the standing view refreshed to this epoch
    // when one exists (its resolution shared when nothing it reads
    // changed) — shared by every client in the group. A
    // request is fulfilled by whichever group finishes it last.
    par::parallel_for(
        0, groups.size(),
        [&](size_t gi) {
          Group& g = groups[gi];
          {
            // Resolve-only span: the shared (epoch, tau) view cost,
            // excluding the per-query execution fan-out below.
            obs::ScopedSpan resolve_span(obs_ ? &obs_->trace : nullptr,
                                         "broker.resolve", cycle_,
                                         obs_ ? obs_->broker_resolve
                                              : nullptr);
            g.view = g.prev ? ThresholdView::refreshed(g.prev, g.snap)
                            : std::make_shared<const ThresholdView>(g.snap,
                                                                    g.tau);
          }
          par::parallel_for(
              0, g.items.size(),
              [&](size_t j) {
                const auto& [r, qi] = g.items[j];
                r->out.results[qi] = g.view->run(r->req.queries[qi]);
              },
              /*grain=*/8);
          Request* prev_r = nullptr;
          for (const auto& [r, qi] : g.items) {
            if (r == prev_r) continue;
            prev_r = r;
            if (r->groups_left.fetch_sub(1, std::memory_order_acq_rel) == 1)
              finish_ok(r);
          }
        },
        /*grain=*/1);
  }

  // Cache maintenance: absorb this cycle's current-epoch views, evict
  // entries idle past kIdleEvictCycles (bounding per-publish refresh
  // work to actively queried taus), and carry the survivors to the
  // current epoch (refresh-on-publish: clean shards make this
  // near-free, and it keeps a live entry from pinning superseded
  // epochs).
  std::set<double> used;
  for (Group& g : groups) {
    if (!g.current) continue;
    views_[g.tau] = CachedView{g.view, cycle_};
    used.insert(g.tau);
  }
  for (auto it = views_.begin(); it != views_.end();) {
    CachedView& cv = it->second;
    if (cycle_ - cv.last_used > kIdleEvictCycles) {
      it = views_.erase(it);
      continue;
    }
    if (cv.view->epoch() != cur->epoch())
      cv.view = ThresholdView::refreshed(cv.view, cur);
    ++it;
  }
  // Hard cap on actively-used taus: on cycles that queried, drop
  // everything this cycle didn't touch once the cache overflows.
  if (!used.empty() && views_.size() > kMaxCachedTaus) {
    for (auto it = views_.begin(); it != views_.end();) {
      if (used.count(it->first))
        ++it;
      else
        it = views_.erase(it);
    }
  }

  // Drain-abort pass (abort_waiters): anything still parked after this
  // cycle's unpark sweep is cut loose with kShutdown — a server drain
  // must not wait on an epoch an idle engine will never publish. The
  // flag is consumed whether or not anyone was parked.
  if (abort_waiters_.exchange(false, std::memory_order_acq_rel) &&
      !parked_.empty()) {
    for (Request* r : parked_) {
      if (stats_)
        stats_->broker_drain_aborted.fetch_add(1, std::memory_order_relaxed);
      finish_error(r, QueryErrorCode::kShutdown);
    }
    parked_.clear();
  }
}

}  // namespace dynsld::engine

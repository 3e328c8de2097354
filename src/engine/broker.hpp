// QueryBroker: the front door of the read plane. Every read enters
// through submit() (or submit_batch()); there is no second read path.
//
//   client A ── submit(QueryRequest) ──┬─> ready point request?
//                                      │     answer inline, on the
//                                      │     caller's thread, from the
//                                      │     published view table
//                                      v
//   client B ── submit(...)          ──>  lock-free intake ─┐
//   client C ── submit_batch(...)    ──>    (MPSC stack)    │ drain
//                                                           v
//   SubscriptionHub publish signal ──> dispatcher thread:
//   micro-batch timer             ──>   expire past-deadline / cancelled
//                                       park AtLeastEpoch waiters
//                                       group the rest by (epoch, tau)
//                                       — ACROSS clients —
//                                       one ThresholdView per group
//                                       (standing cache, carried
//                                        forward per epoch)
//                                       execute groups in parallel
//                                       fulfill the futures
//                                       publish the view table
//
// The request envelope (QueryRequest, query.hpp) carries the typed
// Query payload plus a deadline, a consistency mode (Latest /
// AtLeastEpoch / Pinned / AsOf), and a CancelToken. A request that
// cannot be served — deadline passed, cancelled while queued, intake
// over the configured queue depth (admission control), or broker
// shutdown — resolves its future with a typed QueryError and NEVER
// executes any query work. No future is ever left dangling: shutdown
// resolves everything still in flight.
//
// Inline answers: at the end of every dispatch cycle the standing
// views have all been carried to the cycle's epoch, and the dispatcher
// publishes them as an immutable table (epoch, sorted taus, one view
// per tau). submit() answers a request on the caller's thread, with a
// ready future, when the fast-fail checks pass and ALL of these hold:
//
//   - every query is a SameClusterQuery or a ClusterSizeQuery (the
//     O(log h) point reads);
//   - the consistency is Latest, or AtLeastEpoch{e} with e <= the
//     table's epoch;
//   - the table's epoch is the published epoch (cur_epoch()), so a
//     request submitted after flush() returns never reads older state;
//   - every query's tau has a view in the table.
//
// Anything else queues exactly as below. An inline answer takes no
// admission slot (it never queues), counts in broker_submits and
// broker_inline_served, records broker.fulfill and fires on_complete
// once. It marks its table entry as hit; the dispatcher folds the hits
// into the cache's idle clock, so a tau read only inline stays cached.
//
// Amortization: all queued Latest requests of one dispatch cycle share
// the cycle's epoch, so concurrent clients at one tau collapse into a
// single (epoch, tau) group backed by one ThresholdView — one cross-UF
// resolution no matter how many clients asked (test_broker pins it
// through views_built/broker_groups). The view cache is carried across
// epochs through ThresholdView::refreshed, so steady-state traffic at
// stable taus pays at most one resolve per epoch and tau, and none when
// the epoch left the view's cross prefix and blob-hosting shards alone.
// submit_batch() always queues, so its requests share one cycle.
//
// Threading: submit()/submit_batch() are thread-safe. The intake path
// is lock-free (one CAS per request chain plus a wakeup); the inline
// path takes one short mutex to copy the table pointer. The dispatcher
// is one background thread; group execution fans out on the global
// fork-join scheduler. Futures may outlive the broker — the shared
// state keeps them valid; they just resolve with
// QueryError{kShutdown} if the broker died first.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "engine/cluster_view.hpp"
#include "engine/epoch.hpp"
#include "engine/query.hpp"
#include "engine/stats.hpp"
#include "engine/subscription.hpp"

namespace dynsld::engine {

/// The async request plane between clients and the query plane (see
/// the header comment). Owned by SldService; power users reach it via
/// SldService::broker() for depth introspection, but submit through
/// the service facade.
class QueryBroker {
 public:
  /// Construction-time knobs (surfaced in ServiceConfig).
  struct Options {
    /// Admission control: submits beyond this many in-flight requests
    /// are rejected immediately with QueryError{kAdmissionRejected}.
    size_t queue_depth = 4096;
    /// Dispatcher micro-batch timer: upper bound on how long intake
    /// can sit before a dispatch cycle picks it up (submits and
    /// publishes nudge the dispatcher immediately; the timer is the
    /// liveness fallback and the parked-deadline sweep granularity).
    std::chrono::microseconds interval{200};
  };

  /// Starts the dispatcher thread and registers with `hub` (publishes
  /// wake the dispatcher; AtLeastEpoch waiters unpark). `epochs` and
  /// `hub` must outlive the broker. `obs` (the owning service's
  /// observability bundle, nullable in unit contexts) receives the
  /// request-lifecycle histograms — intake wait, park time, per-group
  /// resolve, submit-to-fulfill — and dispatch spans.
  QueryBroker(const EpochManager& epochs, SubscriptionHub& hub,
              std::shared_ptr<EngineObs> obs, Options opt);
  /// Implies shutdown(): all in-flight futures resolve.
  ~QueryBroker();

  QueryBroker(const QueryBroker&) = delete;
  QueryBroker& operator=(const QueryBroker&) = delete;

  /// Submit one request; returns the future of its ResultSet. The
  /// future throws QueryError from get() when the request expired, was
  /// cancelled or rejected at intake, or the broker shut down — in all
  /// of which cases none of its queries executed. An empty request
  /// completes immediately with the current epoch; a ready point
  /// request is answered inline (see the header comment).
  std::future<ResultSet> submit(QueryRequest req);

  /// Enqueue several requests as one atomic intake splice (a single
  /// CAS): the dispatcher sees them in the same cycle, so their shared
  /// (epoch, tau) groups are guaranteed to collapse. Never answers
  /// inline. futures[i] belongs to reqs[i].
  std::vector<std::future<ResultSet>> submit_batch(
      std::vector<QueryRequest> reqs);

  /// Stop the dispatcher and resolve every queued/parked request with
  /// QueryError{kShutdown}. Idempotent; later submits are rejected the
  /// same way. Existing futures stay valid (shared state).
  void shutdown();

  /// Requests accepted but not yet fulfilled (intake + parked +
  /// dispatching) — the admission-control gauge.
  size_t depth() const { return depth_.load(std::memory_order_acquire); }

  /// Checkpoint-rehydration tier of AsOf{epoch}: resolves a historical
  /// epoch the in-memory retention ring no longer holds (null result =
  /// no checkpoint at that epoch). Thread-safe to set; invoked on the
  /// dispatcher thread only.
  using Rehydrator = std::function<EpochManager::Snap(uint64_t)>;
  /// Install/replace the rehydration tier (the service wires this when
  /// persistence attaches; without one, ring misses are unavailable).
  void set_rehydrator(Rehydrator fn);

  /// Nudge the dispatcher to run a cycle now (deadline sweep, unpark
  /// check) without waiting for a submit, a publish, or the interval
  /// timer. Harmless at any time; the network server uses it during
  /// connection teardown.
  void wake() { nudge(); }

  /// Resolve every parked AtLeastEpoch waiter with
  /// QueryError{kShutdown} at the next dispatch cycle (triggered now).
  /// A server drain calls this so it cannot wait forever on a waiter
  /// whose epoch an idle engine will never publish; unlike shutdown(),
  /// the broker stays live for new submits. Counted in
  /// broker_drain_aborted.
  void abort_waiters();

  /// Set the QoS weight of `client` (see QueryRequest::client). A
  /// client's admission share of queue_depth is weight / total_weight
  /// across all clients ever seen; weight 0 clamps to 1. No-op in
  /// obs-less unit contexts (no client table to weight).
  void set_client_weight(uint64_t client, uint64_t weight);

 private:
  /// One accepted request: envelope, fulfillment state, intake link.
  struct Request {
    QueryRequest req;
    std::promise<ResultSet> promise;
    ResultSet out;  // results preallocated at classification
    // Distinct (epoch, tau) groups still owing answers; the group that
    // decrements this to zero fulfills the promise.
    std::atomic<uint32_t> groups_left{0};
    Request* next = nullptr;  // intake chain link
    // Lifecycle stamps (obs histograms): admission time — the base of
    // intake-wait and submit-to-fulfill — and, for AtLeastEpoch
    // waiters, when the dispatcher parked it.
    std::chrono::steady_clock::time_point submitted{};
    std::chrono::steady_clock::time_point parked_at{};
    // Per-client QoS accounting row (null for the anonymous pool or in
    // obs-less contexts); inflight was bumped at admission and must
    // drop exactly once at resolution.
    ClientStats* client_stats = nullptr;
  };

  /// One cross-client (snapshot, tau) execution unit of a cycle.
  struct Group {
    EpochManager::Snap snap;
    double tau = 0.0;
    std::shared_ptr<const ThresholdView> prev;  // cache basis (may be null)
    std::shared_ptr<const ThresholdView> view;  // resolved during execution
    bool current = false;  // snap == the cycle's Latest snapshot
    std::vector<std::pair<Request*, uint32_t>> items;  // (request, query idx)
  };

  /// The standing views as of one dispatch cycle, published for
  /// submit()'s inline path. Immutable except for the hit flags.
  struct InlineTable {
    uint64_t epoch = 0;
    std::vector<double> taus;  // ascending; views[i] is resolved at taus[i]
    std::vector<std::shared_ptr<const ThresholdView>> views;
    // hit[i]: views[i] answered an inline request since publication.
    mutable std::vector<std::atomic<bool>> hit;
  };

  static std::future<ResultSet> error_future(QueryErrorCode code);
  /// Shared submit front half: fast-fail (shutdown / cancelled /
  /// expired / completable-empty), answer inline (when `allow_inline`
  /// and the request is ready, see the header comment) or admit one
  /// request. On fast and inline paths returns the already-resolved
  /// future with *out null; on admission returns the live future and
  /// hands the allocated request back in *out for the caller to splice
  /// into the intake.
  std::future<ResultSet> prepare(QueryRequest&& req, bool stopped,
                                 bool allow_inline, Request** out);
  /// Answer `req` from the published view table if it qualifies; on
  /// success the resolved future lands in *out. Runs no query work
  /// unless every query can be answered.
  bool serve_inline(const QueryRequest& req,
                    std::chrono::steady_clock::time_point submitted,
                    std::future<ResultSet>* out);
  /// Push a pre-linked [first..last] chain with one CAS. Returns true
  /// when the intake was empty — the only case that needs a nudge (a
  /// non-empty intake already has one pending, and the dispatcher
  /// re-checks the intake under the wake lock before sleeping).
  bool push_chain(Request* first, Request* last);
  void nudge();
  /// Resolve with an error and reclaim (never ran any query work).
  void finish_error(Request* r, QueryErrorCode code);
  /// Resolve with r->out and reclaim.
  void finish_ok(Request* r);
  /// Resolve everything in the intake with kShutdown (shutdown path,
  /// also the submit-vs-shutdown race backstop).
  void abort_intake();
  void dispatcher_loop();
  /// One dispatch cycle: drain intake, unpark/expire waiters, classify,
  /// group across clients, execute, fulfill.
  void dispatch_cycle();

  const EpochManager& epochs_;
  SubscriptionHub& hub_;
  std::shared_ptr<EngineObs> obs_;
  // &obs_->stats (null without obs_), so counter bumps stay one `->`.
  EngineStats* stats_;
  Options opt_;
  SubscriptionHub::Token hub_token_ = 0;

  // Intake: MPSC Treiber stack (order restored at drain). seq_cst so
  // the submit-side stopped_ check totally orders against shutdown's
  // final drain — a request can land after it only if its submitter
  // already observed stopped_ and aborts the intake itself.
  std::atomic<Request*> intake_{nullptr};
  std::atomic<size_t> depth_{0};
  std::atomic<bool> stopped_{false};
  // Drain request (abort_waiters): consumed by the dispatch cycle that
  // cuts the parked waiters loose.
  std::atomic<bool> abort_waiters_{false};

  std::mutex inline_mu_;  // guards inline_ (submitters vs dispatcher)
  std::shared_ptr<const InlineTable> inline_;

  std::mutex rehydrate_mu_;  // guards rehydrate_ (set vs dispatcher read)
  Rehydrator rehydrate_;

  std::mutex mu_;  // dispatcher sleep/wake + stop flag
  std::condition_variable cv_;
  bool stop_ = false;  // guarded by mu_
  std::mutex shutdown_mu_;  // serializes concurrent shutdown() calls
  std::thread dispatcher_;

  /// One standing-cache entry: the resolved view plus the dispatch
  /// cycle that last used it, by a queued group or an inline answer
  /// (idle entries are evicted, so per-publish refresh work is bounded
  /// by the actively queried taus).
  struct CachedView {
    std::shared_ptr<const ThresholdView> view;
    uint64_t last_used = 0;
  };

  // Dispatcher-thread-only state (shutdown touches it after join).
  std::vector<Request*> parked_;  // AtLeastEpoch waiters
  uint64_t last_epoch_ = 0;       // epoch of the last cycle's snapshot
  uint64_t cycle_ = 0;            // dispatch-cycle counter (cache aging)
  std::atomic<uint64_t> published_{0};  // max epoch the hub announced
  /// Standing Latest-view cache, one entry per tau, carried across
  /// epochs via ThresholdView::refreshed.
  std::map<double, CachedView> views_;

  static constexpr size_t kMaxCachedTaus = 64;
  static constexpr uint64_t kIdleEvictCycles = 16;
};

}  // namespace dynsld::engine

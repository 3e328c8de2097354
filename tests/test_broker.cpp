// QueryBroker tests: the asynchronous request plane's contracts.
//
// Correctness: submitted batches answer exactly like pinned views at
// the fulfillment epoch (the fuzz harness additionally differentials
// this on every schedule). Control plane: deadlines, cancellation,
// admission control, and shutdown all resolve futures with the right
// typed QueryError and — counter-asserted — never execute any query
// work. Amortization: concurrent clients' requests at one (epoch, tau)
// share a single merge resolution. Inline answers: a Latest point
// request whose tau has a standing view at the published epoch is
// answered inside submit(), at an epoch no older than the last flush,
// exactly like the queued path would.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <future>
#include <map>
#include <optional>
#include <thread>
#include <vector>

#include "engine/broker.hpp"
#include "engine/cluster_view.hpp"
#include "engine/query.hpp"
#include "engine/sld_service.hpp"
#include "parallel/random.hpp"
#include "test_util.hpp"

namespace dynsld::engine {
namespace {

using namespace std::chrono_literals;

/// Total §6.1 query executions recorded by the stats block — the "did
/// any query work run" probe the error-path tests assert on.
uint64_t executed_queries(const SldService& svc) {
  return svc.stats().queries();
}

/// Seed a 2-shard service with intra edges in both shards plus sub-tau
/// cross edges, then flush: queries at tau 0.6 have a real cross merge.
void seed_two_shards(SldService& svc, par::Rng& rng) {
  for (int k = 0; k < 2; ++k) {
    for (int i = 0; i < 30; ++i) {
      auto [u, v] = test::random_block_pair(rng, static_cast<vertex_id>(k) * 20, 20);
      svc.insert(u, v, rng.next_double() * 0.5);
    }
  }
  for (int i = 0; i < 8; ++i)
    svc.insert(rng.next_bounded(20), 20 + rng.next_bounded(20),
               0.1 + 0.4 * rng.next_double());
  svc.flush();
}

/// Dispatch cycles completed so far. A cycle publishes the inline view
/// table before it records here, so once the count moves past a value
/// read before a flush, the table holds the flushed epoch.
uint64_t cycles(const EngineObs& obs) {
  return obs.broker_cycle->snapshot().count;
}

/// Spin until more than `before` dispatch cycles have completed.
void wait_cycle(const EngineObs& obs, uint64_t before) {
  const auto give_up = std::chrono::steady_clock::now() + 10s;
  while (cycles(obs) <= before) {
    ASSERT_LT(std::chrono::steady_clock::now(), give_up)
        << "dispatcher never completed a cycle";
    std::this_thread::sleep_for(100us);
  }
}

/// Make `tau` a standing view: one queued request creates it, and the
/// cycle that served it publishes the inline table.
void stand_view(SldService& svc, double tau) {
  const uint64_t before = cycles(svc.obs());
  QueryRequest req;
  req.queries = {ClusterSizeQuery{0, tau}};
  svc.submit_batch({req})[0].get();  // submit_batch never answers inline
  wait_cycle(svc.obs(), before);
}

/// QueryErrorCode of the error a future resolves with; fails the test
/// if it resolves with a value instead.
QueryErrorCode error_code_of(std::future<ResultSet>& fut) {
  try {
    fut.get();
  } catch (const QueryError& e) {
    return e.code();
  }
  ADD_FAILURE() << "future resolved with a value, expected QueryError";
  return QueryErrorCode::kShutdown;
}

TEST(QueryBroker, SubmitMatchesPinnedViewAnswers) {
  ServiceConfig cfg;
  cfg.num_vertices = 40;
  cfg.num_shards = 2;
  cfg.capture_edges = true;
  SldService svc(cfg);
  par::Rng rng = test::test_rng();
  seed_two_shards(svc, rng);

  auto snap = svc.snapshot();
  for (double tau : {0.2, 0.6}) {
    QueryRequest req;
    auto [s, t] = test::random_distinct_pair(rng, 40);
    req.queries = {SameClusterQuery{s, t, tau}, ClusterSizeQuery{s, tau},
                   FlatClusteringQuery{tau},    SizeHistogramQuery{tau},
                   NumClustersQuery{tau},       ClusterReportQuery{t, tau}};
    ResultSet rs = svc.submit(std::move(req)).get();
    ASSERT_EQ(rs.epoch, snap->epoch());
    auto tv = std::make_shared<const ThresholdView>(snap, tau);
    EXPECT_EQ(std::get<bool>(rs.results[0]), tv->same_cluster(s, t));
    EXPECT_EQ(std::get<uint64_t>(rs.results[1]), tv->cluster_size(s));
    EXPECT_EQ(std::get<std::vector<vertex_id>>(rs.results[2]),
              tv->flat_clustering());
    EXPECT_EQ(std::get<SizeHistogram>(rs.results[3]), tv->size_histogram());
    EXPECT_EQ(std::get<uint64_t>(rs.results[4]), tv->num_clusters());
    auto rep = std::get<std::vector<vertex_id>>(rs.results[5]);
    EXPECT_EQ(rep.size(), tv->cluster_size(t));
  }
}

/// A deadline already in the past at submit: the future resolves with
/// kDeadlineExceeded immediately and no query work ever runs.
TEST(QueryBroker, DeadlineExpiredAtSubmitNeverExecutes) {
  ServiceConfig cfg;
  cfg.num_vertices = 40;
  cfg.num_shards = 2;
  SldService svc(cfg);
  par::Rng rng = test::test_rng();
  seed_two_shards(svc, rng);

  uint64_t q_before = executed_queries(svc);
  uint64_t views_before = svc.stats().views_built;

  QueryRequest req;
  req.queries = {SameClusterQuery{1, 2, 0.6}, FlatClusteringQuery{0.6}};
  req.deadline = std::chrono::steady_clock::now() - 1ms;
  auto fut = svc.submit(std::move(req));
  EXPECT_EQ(error_code_of(fut), QueryErrorCode::kDeadlineExceeded);

  EXPECT_EQ(executed_queries(svc), q_before);
  EXPECT_EQ(svc.stats().views_built, views_before);
  EXPECT_EQ(svc.stats().broker_deadline_expired, 1u);
  EXPECT_EQ(svc.stats().broker_submits, 0u);  // fast-failed pre-intake
  EXPECT_EQ(svc.broker().depth(), 0u);
}

/// A parked AtLeastEpoch request whose deadline passes before the epoch
/// arrives expires in place — typed error, no execution.
TEST(QueryBroker, DeadlineExpiresWhileParked) {
  ServiceConfig cfg;
  cfg.num_vertices = 40;
  cfg.num_shards = 2;
  SldService svc(cfg);
  par::Rng rng = test::test_rng();
  seed_two_shards(svc, rng);

  uint64_t q_before = executed_queries(svc);
  QueryRequest req;
  req.queries = {ClusterSizeQuery{3, 0.6}};
  req.consistency = AtLeastEpoch{svc.epoch() + 1};  // never published here
  req.deadline = std::chrono::steady_clock::now() + 10ms;
  auto fut = svc.submit(std::move(req));
  EXPECT_EQ(error_code_of(fut), QueryErrorCode::kDeadlineExceeded);
  EXPECT_EQ(executed_queries(svc), q_before);
  EXPECT_EQ(svc.stats().broker_deadline_expired, 1u);
  EXPECT_EQ(svc.broker().depth(), 0u);
}

/// Cancelling a queued request resolves it with kCancelled and skips
/// execution entirely.
TEST(QueryBroker, CancelQueuedRequest) {
  ServiceConfig cfg;
  cfg.num_vertices = 40;
  cfg.num_shards = 2;
  SldService svc(cfg);
  par::Rng rng = test::test_rng();
  seed_two_shards(svc, rng);

  uint64_t q_before = executed_queries(svc);
  CancelSource cancel;
  QueryRequest req;
  req.queries = {FlatClusteringQuery{0.6}};
  req.consistency = AtLeastEpoch{svc.epoch() + 1};  // parks until a flush
  req.cancel = cancel.token();
  auto fut = svc.submit(std::move(req));

  cancel.request_cancel();
  // The next publish wakes the dispatcher, which must drop the request
  // instead of running it at the now-satisfying epoch.
  svc.insert(1, 2, 0.3);
  svc.flush();
  EXPECT_EQ(error_code_of(fut), QueryErrorCode::kCancelled);
  EXPECT_EQ(executed_queries(svc), q_before);
  EXPECT_EQ(svc.stats().broker_cancelled, 1u);
  EXPECT_EQ(svc.broker().depth(), 0u);
}

/// Destroying the service (=> broker shutdown) with futures in flight:
/// every one resolves with kShutdown — never dangles — and the futures
/// stay valid past the service's lifetime.
TEST(QueryBroker, ShutdownResolvesInFlightFutures) {
  ServiceConfig cfg;
  cfg.num_vertices = 40;
  cfg.num_shards = 2;
  std::optional<SldService> svc(cfg);
  par::Rng rng = test::test_rng();
  seed_two_shards(*svc, rng);

  std::vector<std::future<ResultSet>> futs;
  for (int i = 0; i < 4; ++i) {
    QueryRequest req;
    req.queries = {SameClusterQuery{1, 2, 0.6}};
    req.consistency = AtLeastEpoch{svc->epoch() + 1000};  // never satisfied
    futs.push_back(svc->submit(std::move(req)));
  }
  // Give the dispatcher a chance to park them (not required for the
  // contract — shutdown drains intake and parked alike).
  std::this_thread::sleep_for(1ms);
  uint64_t q_before = executed_queries(*svc);
  svc.reset();  // broker shutdown runs in the service destructor
  for (auto& fut : futs)
    EXPECT_EQ(error_code_of(fut), QueryErrorCode::kShutdown);
  (void)q_before;
}

/// AtLeastEpoch holds the request across a flush and answers at the
/// published epoch — the read-your-writes pattern.
TEST(QueryBroker, AtLeastEpochWaitsAcrossFlush) {
  ServiceConfig cfg;
  cfg.num_vertices = 40;
  cfg.num_shards = 2;
  SldService svc(cfg);
  svc.insert(5, 6, 0.2);  // enqueued, not yet visible

  const uint64_t target = svc.epoch() + 1;
  QueryRequest req;
  req.queries = {SameClusterQuery{5, 6, 0.5}};
  req.consistency = AtLeastEpoch{target};
  auto fut = svc.submit(std::move(req));
  // Not ready while the edge sits in the mutation queue.
  EXPECT_EQ(fut.wait_for(5ms), std::future_status::timeout);

  ASSERT_EQ(svc.flush(), target);
  ResultSet rs = fut.get();
  EXPECT_EQ(rs.epoch, target);
  EXPECT_TRUE(std::get<bool>(rs.results[0]));  // the write is visible
  EXPECT_GE(svc.stats().broker_epoch_waits, 1u);
}

/// Intake beyond the configured queue depth is rejected immediately
/// with kAdmissionRejected; accepted requests are unaffected.
TEST(QueryBroker, AdmissionControlRejectsBeyondDepth) {
  ServiceConfig cfg;
  cfg.num_vertices = 40;
  cfg.num_shards = 2;
  cfg.broker_queue_depth = 2;
  SldService svc(cfg);

  const uint64_t target = svc.epoch() + 1;
  auto parked_req = [&] {
    QueryRequest req;
    req.queries = {ClusterSizeQuery{1, 0.5}};
    req.consistency = AtLeastEpoch{target};
    return req;
  };
  auto f1 = svc.submit(parked_req());
  auto f2 = svc.submit(parked_req());
  uint64_t q_before = executed_queries(svc);
  auto f3 = svc.submit(parked_req());  // over depth: rejected at intake
  EXPECT_EQ(error_code_of(f3), QueryErrorCode::kAdmissionRejected);
  EXPECT_EQ(svc.stats().broker_admission_rejects, 1u);
  EXPECT_EQ(executed_queries(svc), q_before);

  // The accepted two still complete once the epoch arrives.
  svc.insert(1, 2, 0.3);
  ASSERT_EQ(svc.flush(), target);
  EXPECT_EQ(f1.get().epoch, target);
  EXPECT_EQ(f2.get().epoch, target);
  EXPECT_EQ(svc.broker().depth(), 0u);
  EXPECT_EQ(svc.stats().broker_max_depth, 2u);
}

/// The cross-client amortization claim: N single-query requests at one
/// tau submitted as one atomic batch collapse into a single (epoch,
/// tau) group backed by one merge resolution.
TEST(QueryBroker, CrossClientGroupingSharesOneResolution) {
  ServiceConfig cfg;
  cfg.num_vertices = 40;
  cfg.num_shards = 2;
  SldService svc(cfg);
  par::Rng rng = test::test_rng();
  seed_two_shards(svc, rng);

  const double tau = 0.6;
  auto before = svc.stats();
  std::vector<QueryRequest> reqs(8);
  for (int i = 0; i < 8; ++i)
    reqs[i].queries = {ClusterSizeQuery{static_cast<vertex_id>(i), tau}};
  auto futs = svc.submit_batch(std::move(reqs));
  // Same epoch: no flush in between.
  ThresholdView tv(svc.snapshot(), tau);
  for (int i = 0; i < 8; ++i) {
    ResultSet rs = futs[i].get();
    ASSERT_EQ(rs.results.size(), 1u);
    EXPECT_EQ(std::get<uint64_t>(rs.results[0]),
              tv.cluster_size(static_cast<vertex_id>(i)));
  }
  auto after = svc.stats();
  EXPECT_EQ(after.broker_batches - before.broker_batches, 1u);
  EXPECT_EQ(after.broker_groups - before.broker_groups, 1u);
  EXPECT_EQ(after.broker_group_requests - before.broker_group_requests, 8u);
  // One resolution for the whole fleet, plus our explicit reference
  // view above.
  EXPECT_EQ(after.views_built - before.views_built -
                /*our explicit ThresholdView*/ 1u,
            1u);
}

/// Pinned consistency answers against the exact pinned snapshot even
/// after newer epochs publish.
TEST(QueryBroker, PinnedServesSupersededEpoch) {
  ServiceConfig cfg;
  cfg.num_vertices = 40;
  cfg.num_shards = 2;
  SldService svc(cfg);
  svc.insert(1, 2, 0.3);
  svc.flush();
  auto pinned = svc.snapshot();
  const uint64_t pinned_epoch = pinned->epoch();

  ASSERT_TRUE(svc.erase(vertex_id{1}, vertex_id{2}));
  svc.flush();  // newer epoch: the edge is gone

  QueryRequest req;
  req.queries = {SameClusterQuery{1, 2, 0.5}};
  req.consistency = Pinned{pinned};
  ResultSet rs = svc.submit(std::move(req)).get();
  EXPECT_EQ(rs.epoch, pinned_epoch);
  EXPECT_TRUE(std::get<bool>(rs.results[0]));  // answered at the old epoch
  EXPECT_FALSE(svc.same_cluster(1, 2, 0.5));   // Latest sees the erase
}

/// Empty Latest requests complete immediately (current epoch, no
/// results) and the sync run() wrapper mirrors that for empty spans —
/// but an empty AtLeastEpoch request is an epoch BARRIER: it parks
/// until the awaited epoch publishes.
TEST(QueryBroker, EmptyRequestCompletesImmediately) {
  ServiceConfig cfg;
  cfg.num_vertices = 8;
  SldService svc(cfg);
  ResultSet rs = svc.submit(QueryRequest{}).get();
  EXPECT_TRUE(rs.results.empty());
  EXPECT_EQ(rs.epoch, svc.epoch());
  EXPECT_TRUE(svc.run({}).empty());
  EXPECT_EQ(svc.stats().broker_submits, 0u);  // no intake consumed

  const uint64_t target = svc.epoch() + 1;
  QueryRequest barrier;
  barrier.consistency = AtLeastEpoch{target};
  auto fut = svc.submit(std::move(barrier));
  EXPECT_EQ(fut.wait_for(5ms), std::future_status::timeout);  // parked
  svc.insert(1, 2, 0.5);
  ASSERT_EQ(svc.flush(), target);
  ResultSet brs = fut.get();
  EXPECT_TRUE(brs.results.empty());
  EXPECT_EQ(brs.epoch, target);  // resolved by the awaited epoch, not before
}

/// The sync surfaces are broker wrappers now: they produce correct
/// answers and account as broker traffic.
TEST(QueryBroker, SyncWrappersRouteThroughBroker) {
  ServiceConfig cfg;
  cfg.num_vertices = 40;
  cfg.num_shards = 2;
  cfg.capture_edges = true;
  SldService svc(cfg);
  par::Rng rng = test::test_rng();
  seed_two_shards(svc, rng);

  auto snap = svc.snapshot();
  const double tau = 0.6;
  auto ref = test::reference_labels(40, snap->captured_edges(), tau);
  for (int q = 0; q < 10; ++q) {
    auto [s, t] = test::random_distinct_pair(rng, 40);
    EXPECT_EQ(svc.same_cluster(s, t, tau), ref[s] == ref[t]);
    EXPECT_EQ(svc.cluster_size(s, tau), test::ref_cluster_size(ref, s));
  }
  test::expect_same_partition(ref, svc.flat_clustering(tau));
  EXPECT_EQ(svc.num_clusters(tau), test::ref_histogram(ref).num_clusters());
  EXPECT_GE(svc.stats().broker_submits, 22u);
  EXPECT_GT(svc.stats().broker_batches, 0u);
}

/// NumClustersQuery: the per-shard reassembly (rank-prefix counts
/// corrected by the cross merge) equals the histogram's count at every
/// threshold, without materializing bins — including epoch 0 (all
/// singletons) and the all-cross regime.
TEST(QueryBroker, NumClustersMatchesHistogramReassembly) {
  ServiceConfig cfg;
  cfg.num_vertices = 50;
  cfg.num_shards = 4;  // stride 13: uneven last shard
  cfg.capture_edges = true;
  SldService svc(cfg);
  par::Rng rng = test::test_rng();

  {  // epoch 0: every vertex a singleton
    ThresholdView tv(svc.snapshot(), 0.5);
    EXPECT_EQ(tv.num_clusters(), 50u);
  }

  std::vector<ticket_t> live;
  for (int step = 0; step < 300; ++step) {
    if (!live.empty() && rng.next_double() < 0.3) {
      size_t j = rng.next_bounded(live.size());
      svc.erase(live[j]);
      live[j] = live.back();
      live.pop_back();
    } else {
      auto [u, v] = test::random_distinct_pair(rng, 50);
      live.push_back(svc.insert(u, v, rng.next_double()));
    }
    if (step % 75 != 74) continue;
    svc.flush();
    auto snap = svc.snapshot();
    for (double tau : {0.0, 0.15, 0.4, 0.7, 1.0}) {
      auto tv = std::make_shared<const ThresholdView>(snap, tau);
      auto ref = test::reference_labels(50, snap->captured_edges(), tau);
      uint64_t expected = test::ref_histogram(ref).num_clusters();
      EXPECT_EQ(tv->num_clusters(), expected) << "tau=" << tau;
      EXPECT_EQ(tv->size_histogram().num_clusters(), expected);
      // And through the typed query + the broker.
      QueryRequest req;
      req.queries = {NumClustersQuery{tau}};
      req.consistency = Pinned{snap};
      EXPECT_EQ(std::get<uint64_t>(svc.submit(std::move(req)).get().results[0]),
                expected);
    }
  }
}

/// Every fulfilled submit records its submit->fulfill latency into the
/// broker.fulfill histogram, and the resulting percentiles are sane:
/// p50 <= p99 <= the bucket bound of the recorded max. Error-path
/// resolutions (here: a pre-expired deadline) never record — the
/// histogram answers "how fast are answers", not "how fast are
/// rejections".
TEST(QueryBroker, FulfillmentHistogramTracksCompletedRequests) {
  ServiceConfig cfg;
  cfg.num_vertices = 40;
  cfg.num_shards = 2;
  SldService svc(cfg);
  par::Rng rng = test::test_rng();
  seed_two_shards(svc, rng);

  const int kRequests = 64;
  for (int i = 0; i < kRequests; ++i) {
    QueryRequest req;
    auto [u, v] = test::random_distinct_pair(rng, 40);
    req.queries = {SameClusterQuery{u, v, 0.6}};
    svc.submit(std::move(req)).get();
  }
  // An expired request resolves exceptionally and must not record.
  {
    QueryRequest req;
    req.queries = {SameClusterQuery{0, 1, 0.6}};
    req.deadline = std::chrono::steady_clock::now() - 1ms;
    auto fut = svc.submit(std::move(req));
    EXPECT_EQ(error_code_of(fut), QueryErrorCode::kDeadlineExceeded);
  }

  auto scrape = svc.obs().registry.scrape();
  const obs::HistogramSnapshot* h = scrape.histogram("broker.fulfill");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, static_cast<uint64_t>(kRequests));
  EXPECT_GT(h->max, 0u);
  EXPECT_LE(h->p50(), h->p90());
  EXPECT_LE(h->p90(), h->p99());
  // The p99 estimate interpolates inside a bucket, so it is bounded by
  // the upper edge of the bucket holding the true maximum.
  EXPECT_LT(h->p99(),
            static_cast<double>(obs::LatencyHistogram::bucket_upper(
                obs::LatencyHistogram::bucket_of(h->max))));

  // The dispatcher's own cycle instrumentation ran too.
  EXPECT_GT(svc.obs().broker_cycle->snapshot().count, 0u);
}

/// Once a tau has a standing view, Latest point requests at it are
/// answered inside submit(): the future is ready on return, no dispatch
/// cycle runs, and the answers equal a pinned view's. Anything else —
/// a non-point query, Pinned, a tau without a view — still queues.
TEST(QueryBroker, InlineServesLatestPointReadsOnceViewStands) {
  ServiceConfig cfg;
  cfg.num_vertices = 40;
  cfg.num_shards = 2;
  SldService svc(cfg);
  par::Rng rng = test::test_rng();
  seed_two_shards(svc, rng);
  const double tau = 0.6;
  stand_view(svc, tau);

  auto before = svc.stats();
  const uint64_t cycles_before = cycles(svc.obs());
  auto snap = svc.snapshot();
  ThresholdView tv(snap, tau);
  for (int i = 0; i < 20; ++i) {
    auto [s, t] = test::random_distinct_pair(rng, 40);
    QueryRequest req;
    req.queries = {SameClusterQuery{s, t, tau}, ClusterSizeQuery{s, tau}};
    if (i % 2) req.consistency = AtLeastEpoch{snap->epoch()};
    auto fut = svc.submit(std::move(req));
    ASSERT_EQ(fut.wait_for(0s), std::future_status::ready);
    ResultSet rs = fut.get();
    EXPECT_EQ(rs.epoch, snap->epoch());
    EXPECT_EQ(std::get<bool>(rs.results[0]), tv.same_cluster(s, t));
    EXPECT_EQ(std::get<uint64_t>(rs.results[1]), tv.cluster_size(s));
  }
  auto after = svc.stats();
  EXPECT_EQ(after.broker_inline_served - before.broker_inline_served, 20u);
  EXPECT_EQ(after.broker_submits - before.broker_submits, 20u);
  EXPECT_EQ(after.broker_groups, before.broker_groups);
  EXPECT_EQ(cycles(svc.obs()), cycles_before);
  EXPECT_EQ(svc.broker().depth(), 0u);

  // Not eligible: a label query, a pinned snapshot, an unviewed tau.
  std::vector<QueryRequest> queued(3);
  queued[0].queries = {ClusterSizeQuery{1, tau}, NumClustersQuery{tau}};
  queued[1].queries = {ClusterSizeQuery{1, tau}};
  queued[1].consistency = Pinned{snap};
  queued[2].queries = {ClusterSizeQuery{1, 0.3}};
  for (QueryRequest& req : queued) {
    ResultSet rs = svc.submit(std::move(req)).get();
    EXPECT_EQ(rs.epoch, snap->epoch());
  }
  EXPECT_EQ(svc.stats().broker_inline_served, after.broker_inline_served);
  EXPECT_EQ(svc.stats().broker_groups - after.broker_groups, 3u);
}

/// A request submitted after flush() returns never reads an older
/// epoch: right after a publish the table may still hold the previous
/// epoch, and the request then queues.
TEST(QueryBroker, InlineAnswersAreNeverOlderThanTheLastFlush) {
  ServiceConfig cfg;
  cfg.num_vertices = 40;
  cfg.num_shards = 2;
  SldService svc(cfg);
  par::Rng rng = test::test_rng();
  seed_two_shards(svc, rng);
  const double tau = 0.6;
  stand_view(svc, tau);
  for (int i = 0; i < 60; ++i) {
    auto [u, v] = test::random_distinct_pair(rng, 40);
    svc.insert(u, v, rng.next_double());
    const uint64_t e = svc.flush();
    QueryRequest req;
    req.queries = {SameClusterQuery{u, v, tau}};
    ResultSet rs = svc.submit(std::move(req)).get();
    ASSERT_GE(rs.epoch, e);
    if (i % 8 == 0)  // pace some rounds so both paths get exercised
      std::this_thread::sleep_for(1ms);
  }
}

/// The stale-table fallback, made deterministic: a broker over an
/// epoch manager it is not told about (no hub notification) keeps its
/// table at the old epoch, so a request after the publish must queue
/// and be answered at the new epoch; the cycle that serves it refreshes
/// the table, and the next request is inline again.
TEST(QueryBroker, StaleInlineTableFallsBackToTheQueue) {
  ServiceConfig cfg;
  cfg.num_vertices = 40;
  cfg.num_shards = 2;
  SldService svc(cfg);
  par::Rng rng = test::test_rng();
  seed_two_shards(svc, rng);

  EpochManager epochs;
  SubscriptionHub hub;
  auto obs = std::make_shared<EngineObs>();
  epochs.publish(svc.snapshot());
  QueryBroker broker(epochs, hub, obs, QueryBroker::Options{});
  const double tau = 0.6;
  auto point = [&](Consistency c = Latest{}) {
    QueryRequest req;
    req.queries = {ClusterSizeQuery{5, tau}};
    req.consistency = c;
    return req;
  };
  uint64_t before = cycles(*obs);
  const uint64_t e1 = broker.submit(point()).get().epoch;
  wait_cycle(*obs, before);
  EXPECT_EQ(broker.submit(point()).get().epoch, e1);
  EXPECT_EQ(obs->stats.broker_inline_served.load(), 1u);

  svc.insert(1, 25, 0.2);  // a sub-tau cross edge: the answer changes
  const uint64_t e2 = svc.flush();
  epochs.publish(svc.snapshot());  // no hub notify: the table is stale
  // Waiting for an epoch the table has not reached also queues.
  before = cycles(*obs);
  ResultSet rs = broker.submit(point(AtLeastEpoch{e2})).get();
  EXPECT_EQ(rs.epoch, e2);
  EXPECT_EQ(std::get<uint64_t>(rs.results[0]),
            ThresholdView(svc.snapshot(), tau).cluster_size(5));
  EXPECT_EQ(obs->stats.broker_inline_served.load(), 1u);
  wait_cycle(*obs, before);

  svc.insert(2, 30, 0.25);
  const uint64_t e3 = svc.flush();
  epochs.publish(svc.snapshot());
  before = cycles(*obs);
  EXPECT_EQ(broker.submit(point()).get().epoch, e3);  // Latest: queued too
  EXPECT_EQ(obs->stats.broker_inline_served.load(), 1u);
  wait_cycle(*obs, before);
  rs = broker.submit(point()).get();
  EXPECT_EQ(rs.epoch, e3);
  EXPECT_EQ(obs->stats.broker_inline_served.load(), 2u);
  EXPECT_EQ(std::get<uint64_t>(rs.results[0]),
            ThresholdView(svc.snapshot(), tau).cluster_size(5));
  broker.shutdown();
}

/// Cancelled, expired and after-shutdown requests resolve with their
/// typed errors even when a standing view could answer them inline:
/// the fast-fail checks run first, and no query work happens.
TEST(QueryBroker, ErrorPathsPrecedeInlineAnswers) {
  ServiceConfig cfg;
  cfg.num_vertices = 40;
  cfg.num_shards = 2;
  SldService svc(cfg);
  par::Rng rng = test::test_rng();
  seed_two_shards(svc, rng);
  const double tau = 0.6;
  stand_view(svc, tau);

  const uint64_t q_before = executed_queries(svc);
  auto point = [&] {
    QueryRequest req;
    req.queries = {SameClusterQuery{1, 2, tau}};
    return req;
  };
  CancelSource cancel;
  cancel.request_cancel();
  QueryRequest cancelled = point();
  cancelled.cancel = cancel.token();
  auto f1 = svc.submit(std::move(cancelled));
  EXPECT_EQ(error_code_of(f1), QueryErrorCode::kCancelled);

  QueryRequest expired = point();
  expired.deadline = std::chrono::steady_clock::now() - 1ms;
  auto f2 = svc.submit(std::move(expired));
  EXPECT_EQ(error_code_of(f2), QueryErrorCode::kDeadlineExceeded);

  svc.broker().shutdown();
  auto f3 = svc.submit(point());
  EXPECT_EQ(error_code_of(f3), QueryErrorCode::kShutdown);

  EXPECT_EQ(executed_queries(svc), q_before);
  EXPECT_EQ(svc.stats().broker_inline_served, 0u);
  EXPECT_EQ(svc.stats().broker_cancelled, 1u);
  EXPECT_EQ(svc.stats().broker_deadline_expired, 1u);
}

/// on_complete fires exactly once for an inline answer, on the
/// submitting thread, before submit() returns.
TEST(QueryBroker, InlineAnswerFiresOnCompleteOnce) {
  ServiceConfig cfg;
  cfg.num_vertices = 40;
  cfg.num_shards = 2;
  SldService svc(cfg);
  par::Rng rng = test::test_rng();
  seed_two_shards(svc, rng);
  const double tau = 0.6;
  stand_view(svc, tau);

  std::atomic<int> fired{0};
  std::thread::id fired_on;
  QueryRequest req;
  req.queries = {ClusterSizeQuery{3, tau}};
  req.on_complete = [&] {
    fired_on = std::this_thread::get_id();
    fired.fetch_add(1);
  };
  auto fut = svc.submit(std::move(req));
  EXPECT_EQ(fired.load(), 1);
  EXPECT_EQ(fired_on, std::this_thread::get_id());
  EXPECT_EQ(svc.stats().broker_inline_served, 1u);
  fut.get();
  std::this_thread::sleep_for(1ms);
  EXPECT_EQ(fired.load(), 1);
  EXPECT_EQ(svc.obs().broker_fulfill->snapshot().count, 2u);  // + stand_view
}

/// A tau read only through the inline path stays cached: its table
/// hits count as use, so it survives far more than kIdleEvictCycles
/// (16) publishes, and every read after each publish is inline at the
/// new epoch — no queued group ever re-creates the view.
TEST(QueryBroker, InlineOnlyViewSurvivesIdleEviction) {
  ServiceConfig cfg;
  cfg.num_vertices = 40;
  cfg.num_shards = 2;
  SldService svc(cfg);
  par::Rng rng = test::test_rng();
  seed_two_shards(svc, rng);
  const double tau = 0.6;
  stand_view(svc, tau);

  const auto before = svc.stats();
  for (int round = 0; round < 40; ++round) {
    const uint64_t c = cycles(svc.obs());
    auto [u, v] = test::random_distinct_pair(rng, 40);
    svc.insert(u, v, rng.next_double());
    const uint64_t e = svc.flush();
    wait_cycle(svc.obs(), c);
    QueryRequest req;
    req.queries = {SameClusterQuery{u, v, tau}};
    ResultSet rs = svc.submit(std::move(req)).get();
    ASSERT_EQ(rs.epoch, e) << "round " << round;
    ASSERT_EQ(svc.stats().broker_inline_served - before.broker_inline_served,
              static_cast<uint64_t>(round + 1))
        << "round " << round << ": the view was evicted";
  }
  EXPECT_EQ(svc.stats().broker_groups, before.broker_groups);
}

/// Inline reads racing publish and refresh: two readers submit point
/// queries while a writer publishes more than 200 epochs. Per reader
/// the answer epochs never go backwards, and every answer equals a
/// view pinned at its epoch. (The TSan leg runs this.)
TEST(QueryBroker, InlineReadsRacePublishAndRefresh) {
  const vertex_id n = 64;
  ServiceConfig cfg;
  cfg.num_vertices = n;
  cfg.num_shards = 2;
  cfg.retain_epochs = 512;  // every answered epoch stays pinnable
  SldService svc(cfg);
  par::Rng rng = test::test_rng();
  for (int i = 0; i < 40; ++i) {
    auto [u, v] = test::random_distinct_pair(rng, n);
    svc.insert(u, v, rng.next_double());
  }
  svc.flush();
  const double taus[2] = {0.3, 0.7};
  for (double tau : taus) stand_view(svc, tau);

  struct Answer {
    Query q;
    uint64_t epoch;
    QueryResult result;
  };
  std::atomic<bool> done{false};
  auto reader = [&](uint64_t seed, std::vector<Answer>* out) {
    par::Rng r(seed);
    uint64_t last = 0;
    while (!done.load(std::memory_order_acquire) && out->size() < 20000) {
      const double tau = taus[r.next_bounded(2)];
      auto [u, v] = test::random_distinct_pair(r, n);
      Query q = r.next_bounded(2) ? Query{SameClusterQuery{u, v, tau}}
                                  : Query{ClusterSizeQuery{u, tau}};
      QueryRequest req;
      req.queries = {q};
      ResultSet rs = svc.submit(std::move(req)).get();
      EXPECT_GE(rs.epoch, last);
      last = rs.epoch;
      out->push_back({q, rs.epoch, std::move(rs.results[0])});
    }
  };
  std::vector<Answer> a1, a2;
  std::thread r1(reader, 11, &a1), r2(reader, 12, &a2);
  const uint64_t first = svc.epoch();
  for (int i = 0; i < 220; ++i) {
    for (int k = 0; k < 3; ++k) {
      auto [u, v] = test::random_distinct_pair(rng, n);
      svc.insert(u, v, rng.next_double());
    }
    svc.flush();
  }
  done.store(true, std::memory_order_release);
  r1.join();
  r2.join();
  EXPECT_GT(svc.epoch() - first, 200u);
  EXPECT_GT(svc.stats().broker_inline_served, 0u);

  std::map<std::pair<uint64_t, double>, std::unique_ptr<ThresholdView>> pinned;
  for (const auto* answers : {&a1, &a2}) {
    for (const Answer& a : *answers) {
      auto& tv = pinned[{a.epoch, query_tau(a.q)}];
      if (!tv) {
        auto snap = svc.snapshot_at(a.epoch);
        ASSERT_TRUE(snap) << "epoch " << a.epoch;
        tv = std::make_unique<ThresholdView>(snap, query_tau(a.q));
      }
      ASSERT_TRUE(a.result == tv->run(a.q)) << "epoch " << a.epoch;
    }
  }
}

}  // namespace
}  // namespace dynsld::engine

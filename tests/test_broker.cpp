// QueryBroker tests: the asynchronous request plane's contracts.
//
// Correctness: submitted batches answer exactly like pinned views at
// the fulfillment epoch (the fuzz harness additionally differentials
// this on every schedule). Control plane: deadlines, cancellation,
// admission control, and shutdown all resolve futures with the right
// typed QueryError and — counter-asserted — never execute any query
// work. Amortization: concurrent clients' requests at one (epoch, tau)
// share a single merge resolution.
#include <gtest/gtest.h>

#include <chrono>
#include <future>
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

}  // namespace
}  // namespace dynsld::engine

// Randomized differential harness for the serving engine — many
// generated workloads, one oracle (the spirit of scenario-diverse
// benchmark suites: coverage breadth over hand-picked cases).
//
// Each schedule is a seeded interleaving of insert / erase-by-ticket /
// erase-by-endpoints / flush over a parameterized scenario (uneven
// shards, erase-heavy churn, single-shard hotspots, all-cross-edges,
// dense erase-heavy shards).
// After every published epoch the harness checks three ways at several
// thresholds:
//
//   1. a ThresholdView::refreshed chain — the broker's standing-cache
//      path — answers bit-for-bit like a freshly resolved view of the
//      same snapshot (labels and histograms as exact vector equality —
//      labels are canonical, i.e. a pure function of the snapshot and
//      the resolution, so any divergence is a refresh bug, not an
//      ordering artifact); the same label queries also run as one
//      Latest submit(), so the broker's own cached views are covered on
//      every schedule;
//   2. both match the Kruskal reference partition of the epoch's
//      captured edge set (partition equality, sampled pair/size/report
//      queries);
//   3. refresh bookkeeping: the chain serves exactly the published
//      epoch.
//
// Seeds are printed on failure (SCOPED_TRACE) for replay; set
// DYNSLD_FUZZ_SEEDS to scale the run (default 1250 schedules across
// the scenarios — CI's TSan leg runs fewer), or DYNSLD_FUZZ_SEED to
// replay one specific seed in every scenario.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <iterator>
#include <map>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "engine/cluster_view.hpp"
#include "engine/query.hpp"
#include "engine/sld_service.hpp"
#include "parallel/random.hpp"
#include "persist/persist.hpp"
#include "test_util.hpp"

namespace dynsld::engine {
namespace {

using test::expect_same_partition;
using test::ref_cluster_size;
using test::ref_histogram;
using test::reference_labels;

struct Scenario {
  const char* name;        // printed in failure traces
  const char* param_label; // gtest parameterized-test suffix (alphanumeric)
  vertex_id n;
  int shards;
  int steps;
  double erase_prob;  // per step: erase a live edge instead of inserting
  double cross_frac;  // per insert: force a cross-shard edge
  int hot_shard;      // >= 0: pin this fraction of intra inserts there
  double hot_frac;
  int flush_every;
  int prefill = 0;  // leading steps that always insert (a dense start)
};

// Five qualitatively different workloads; ~250 seeds each by default.
constexpr Scenario kScenarios[] = {
    // Stride 13 over 4 shards: the last shard is short (11 vertices),
    // exercising shard-local vertex spaces at every boundary.
    {"uneven_shards", "UnevenShards", 50, 4, 72, 0.30, 0.30, -1, 0.0, 12},
    // Deletion-dominated: replacement scans, annihilation, and empty
    // epochs are the common case.
    {"erase_heavy", "EraseHeavy", 48, 3, 90, 0.55, 0.20, -1, 0.0, 15},
    // One shard of eight takes 90% of the intra traffic: the refresh
    // path should reuse the other seven (counter-checked below).
    {"hotspot", "Hotspot", 64, 8, 72, 0.25, 0.15, 0, 0.9, 12},
    // Every edge crosses shards: the cross table and the blob
    // union-find ARE the clustering; shard dendrograms stay empty.
    {"all_cross", "AllCross", 40, 4, 60, 0.30, 1.0, -1, 0.0, 10},
    // Dense intra-shard graphs, then erase-heavy flushes of ~40 ops:
    // several tree cuts in one shard's batch compete for the same
    // replacement edges (the batched MSF replacement search).
    {"dense_cycle", "DenseCycle", 24, 2, 200, 0.6, 0.0, -1, 0.0, 40, 60},
};

int fuzz_seeds() {
  if (const char* s = std::getenv("DYNSLD_FUZZ_SEEDS")) {
    int v = std::atoi(s);
    if (v > 0) return v;
  }
  return 1250;
}

struct LiveEdge {
  ticket_t ticket;
  vertex_id u, v;
};

/// One seeded schedule through `sc`; every published epoch is verified.
void run_schedule(const Scenario& sc, uint64_t seed) {
  SCOPED_TRACE(std::string("scenario=") + sc.name +
               " seed=" + std::to_string(seed) +
               "  (replay: DYNSLD_FUZZ_SEED=" + std::to_string(seed) + ")");
  ServiceConfig cfg;
  cfg.num_vertices = sc.n;
  cfg.num_shards = sc.shards;
  cfg.capture_edges = true;
  SldService svc(cfg);
  // By value: the epoch-0 snapshot this comes from is superseded later.
  const ShardMap map = svc.snapshot()->shard_map();

  par::Rng rng(seed);
  // Three thresholds: two fixed in the interesting band, one seeded.
  const double taus[3] = {0.25, 0.7, 0.05 + 0.9 * rng.next_double()};

  // Standing views at the three taus, carried across epochs by
  // ThresholdView::refreshed exactly like the broker's cache.
  std::shared_ptr<const ThresholdView> chain[3];
  for (int i = 0; i < 3; ++i)
    chain[i] = std::make_shared<const ThresholdView>(svc.snapshot(), taus[i]);

  auto pick_insert = [&]() -> std::pair<vertex_id, vertex_id> {
    if (rng.next_double() < sc.cross_frac && sc.shards > 1) {
      // Cross-shard: endpoints with different homes.
      vertex_id u, v;
      do {
        u = static_cast<vertex_id>(rng.next_bounded(sc.n));
        v = static_cast<vertex_id>(rng.next_bounded(sc.n));
      } while (u == v || map.home(u) == map.home(v));
      return {u, v};
    }
    int k = sc.hot_shard >= 0 && rng.next_double() < sc.hot_frac
                ? sc.hot_shard
                : static_cast<int>(rng.next_bounded(sc.shards));
    vertex_id size = map.local_size(k);
    if (size < 2) return test::random_distinct_pair(rng, sc.n);
    return test::random_block_pair(rng, map.base(k), size);
  };

  std::vector<LiveEdge> live;
  for (int step = 0; step < sc.steps; ++step) {
    if (step >= sc.prefill && !live.empty() &&
        rng.next_double() < sc.erase_prob) {
      size_t j = rng.next_bounded(live.size());
      if (rng.next_double() < 0.5)
        svc.erase(live[j].ticket);
      else
        EXPECT_TRUE(svc.erase(live[j].u, live[j].v));
      live[j] = live.back();
      live.pop_back();
    } else {
      auto [u, v] = pick_insert();
      live.push_back(LiveEdge{svc.insert(u, v, rng.next_double()), u, v});
    }
    if (step % sc.flush_every != sc.flush_every - 1) continue;

    uint64_t epoch = svc.flush();
    auto snap = svc.snapshot();
    ASSERT_EQ(snap->epoch(), epoch);
    for (auto& view : chain) {
      view = ThresholdView::refreshed(view, snap);
      ASSERT_EQ(view->epoch(), epoch);
    }

    std::map<double, std::shared_ptr<const ThresholdView>> fresh_at;
    for (double tau : taus)
      fresh_at.emplace(tau, std::make_shared<const ThresholdView>(snap, tau));
    std::vector<Query> label_queries;
    for (int i = 0; i < 3; ++i) {
      const double tau = taus[i];
      SCOPED_TRACE("epoch=" + std::to_string(epoch) +
                   " tau=" + std::to_string(tau));
      const auto& subv = chain[i];
      const auto& fresh = fresh_at.at(tau);

      // (1) Refreshed view == fresh view, bit for bit: flat labels,
      // the reassembled histogram and the cluster count.
      ASSERT_EQ(subv->flat_clustering(), fresh->flat_clustering());
      ASSERT_EQ(subv->size_histogram(), fresh->size_histogram());
      ASSERT_EQ(subv->num_clusters(), fresh->num_clusters());
      label_queries.push_back(FlatClusteringQuery{tau});
      label_queries.push_back(SizeHistogramQuery{tau});
      label_queries.push_back(NumClustersQuery{tau});
      // (2) Both == the Kruskal oracle.
      auto ref = reference_labels(sc.n, snap->captured_edges(), tau);
      expect_same_partition(ref, subv->flat_clustering());
      // Canonical-label invariants the patch machinery relies on: a
      // label names a member of its own cluster and is idempotent.
      const std::vector<vertex_id>& lab = subv->flat_clustering();
      for (vertex_id v = 0; v < sc.n; ++v) {
        ASSERT_EQ(ref[lab[v]], ref[v]) << "label not a cluster member, v=" << v;
        ASSERT_EQ(lab[lab[v]], lab[v]) << "label not canonical, v=" << v;
      }
      ASSERT_EQ(subv->size_histogram(), ref_histogram(ref));
      // NumClusters reassembles from per-shard prefix counts + the
      // cross merge; it must agree with the histogram and the oracle.
      ASSERT_EQ(subv->num_clusters(), ref_histogram(ref).num_clusters());
      for (int q = 0; q < 12; ++q) {
        auto [s, t] = test::random_distinct_pair(rng, sc.n);
        ASSERT_EQ(subv->same_cluster(s, t), ref[s] == ref[t])
            << "s=" << s << " t=" << t;
        ASSERT_EQ(fresh->same_cluster(s, t), ref[s] == ref[t]);
      }
      vertex_id u = static_cast<vertex_id>(rng.next_bounded(sc.n));
      ASSERT_EQ(subv->cluster_size(u), ref_cluster_size(ref, u));
      // Reports may order members differently across refresh histories;
      // compare as sets.
      auto rep_sub = subv->cluster_report(u);
      auto rep_fresh = fresh->cluster_report(u);
      std::sort(rep_sub.begin(), rep_sub.end());
      std::sort(rep_fresh.begin(), rep_fresh.end());
      ASSERT_EQ(rep_sub, rep_fresh);
      ASSERT_EQ(rep_sub.size(), ref_cluster_size(ref, u));
    }

    // (3) The same label queries as one Latest submit(): nothing
    // publishes meanwhile, so the broker answers at this epoch from its
    // standing views — refreshed across the schedule's epochs — and
    // must agree with the fresh views bit for bit.
    {
      QueryRequest req;
      req.queries = label_queries;
      ResultSet rs = svc.submit(std::move(req)).get();
      ASSERT_EQ(rs.epoch, epoch);
      ASSERT_EQ(rs.results.size(), label_queries.size());
      for (size_t i = 0; i < label_queries.size(); ++i) {
        SCOPED_TRACE("latest label query i=" + std::to_string(i));
        ASSERT_TRUE(rs.results[i] ==
                    fresh_at.at(query_tau(label_queries[i]))
                        ->run(label_queries[i]));
      }
    }

    // (4) Async plane: a random slice of the same query mix routed
    // through submit() — pinned to this verified epoch — must answer
    // bit-for-bit like the direct pinned views (reports as sorted
    // sets: member order may differ across refresh histories). The
    // broker's standing views refresh incrementally across the
    // schedule's epochs, so this also differentials the cached-refresh
    // path behind the public async API on every schedule.
    {
      std::vector<Query> slice;
      for (double tau : taus) {
        auto [s, t] = test::random_distinct_pair(rng, sc.n);
        if (rng.next_double() < 0.8) slice.push_back(SameClusterQuery{s, t, tau});
        if (rng.next_double() < 0.8) slice.push_back(ClusterSizeQuery{s, tau});
        if (rng.next_double() < 0.5) slice.push_back(ClusterReportQuery{t, tau});
        if (rng.next_double() < 0.5) slice.push_back(NumClustersQuery{tau});
        if (rng.next_double() < 0.3) slice.push_back(FlatClusteringQuery{tau});
        if (rng.next_double() < 0.3) slice.push_back(SizeHistogramQuery{tau});
      }
      QueryRequest req;
      req.queries = slice;
      req.consistency = Pinned{snap};
      ResultSet rs = svc.submit(std::move(req)).get();
      ASSERT_EQ(rs.epoch, epoch);
      ASSERT_EQ(rs.results.size(), slice.size());
      for (size_t i = 0; i < slice.size(); ++i) {
        SCOPED_TRACE("submit slice i=" + std::to_string(i));
        QueryResult direct = fresh_at.at(query_tau(slice[i]))->run(slice[i]);
        if (std::holds_alternative<ClusterReportQuery>(slice[i])) {
          auto got = std::get<std::vector<vertex_id>>(rs.results[i]);
          auto want = std::get<std::vector<vertex_id>>(direct);
          std::sort(got.begin(), got.end());
          std::sort(want.begin(), want.end());
          ASSERT_EQ(got, want);
        } else {
          ASSERT_TRUE(rs.results[i] == direct);
        }
      }
    }
  }
}

class FuzzEngine : public ::testing::TestWithParam<int> {};

TEST_P(FuzzEngine, DifferentialSchedules) {
  const Scenario& sc = kScenarios[GetParam()];
  if (const char* s = std::getenv("DYNSLD_FUZZ_SEED")) {
    run_schedule(sc, std::strtoull(s, nullptr, 10));
    return;
  }
  int per_scenario =
      std::max(1, fuzz_seeds() / static_cast<int>(std::size(kScenarios)));
  for (int i = 0; i < per_scenario; ++i) {
    // Distinct streams per scenario; the seed printed on failure replays
    // this exact schedule via DYNSLD_FUZZ_SEED.
    uint64_t seed = par::hash64(static_cast<uint64_t>(GetParam()) * 1000003u + i);
    run_schedule(sc, seed);
    if (::testing::Test::HasFailure()) {
      ADD_FAILURE() << "stopping scenario '" << sc.name
                    << "' after first failing seed " << seed;
      return;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Scenarios, FuzzEngine,
                         ::testing::Range(0, static_cast<int>(std::size(kScenarios))),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return kScenarios[info.param].param_label;
                         });

/// The hotspot scenario must actually exercise the reuse machinery, not
/// just pass: every flush reuses the 7 clean shard snapshots, and with
/// no cross edge every refresh shares the resolution wholesale.
TEST(FuzzEngine, HotspotSchedulesReuseShards) {
  const Scenario& sc = kScenarios[2];
  ASSERT_STREQ(sc.name, "hotspot");
  // A couple of schedules are plenty for the counters to accumulate.
  for (uint64_t seed : {7u, 8u}) run_schedule(sc, seed);
  // Counters are per-service, so re-run one schedule and inspect.
  ServiceConfig cfg;
  cfg.num_vertices = sc.n;
  cfg.num_shards = sc.shards;
  SldService svc(cfg);
  const double tau = 0.5;
  auto view = std::make_shared<const ThresholdView>(svc.snapshot(), tau);
  par::Rng rng(99);
  for (int round = 0; round < 8; ++round) {
    for (int i = 0; i < 10; ++i) {
      auto [u, v] = test::random_block_pair(rng, 0, 8);  // shard 0 only
      svc.insert(u, v, rng.next_double());
    }
    svc.flush();
    view = ThresholdView::refreshed(view, svc.snapshot());
  }
  auto r = svc.stats();
  EXPECT_EQ(view->epoch(), 8u);
  EXPECT_EQ(r.shard_snapshots_reused, 8u * 7u);
  EXPECT_EQ(r.refresh_views_reused, 8u);
  EXPECT_EQ(r.refresh_views_incremental, 0u);
  EXPECT_EQ(r.refresh_views_full, 0u);
}

/// Skewed churn with flat labels queried every epoch: a refreshed view
/// (7 of 8 shards clean, a cross merge at every shard boundary) must
/// materialize labels bit-for-bit like a fresh view. Every
/// materialization is a full one — the retired patch counters stay 0.
TEST(FuzzEngine, RefreshedLabelsMatchFreshUnderSkewedChurn) {
  ServiceConfig cfg;
  cfg.num_vertices = 64;
  cfg.num_shards = 8;
  SldService svc(cfg);
  par::Rng rng = test::test_rng();
  // A weighted path across the whole range: intra-shard structure in
  // every shard plus sub-tau cross edges at each shard boundary, so
  // the labels carry both per-shard blocks and cross-group fixups.
  for (vertex_id v = 0; v + 1 < 64; ++v)
    svc.insert(v, v + 1, 0.2 + 0.5 * rng.next_double());
  svc.flush();

  const double tau = 0.5;
  auto view = std::make_shared<const ThresholdView>(svc.snapshot(), tau);
  view->flat_clustering();  // initial materialization
  EXPECT_EQ(svc.stats().labels_rebuilt, 1u);

  const int rounds = 6;
  for (int round = 0; round < rounds; ++round) {
    for (int i = 0; i < 6; ++i) {  // all churn inside shard 0
      auto [u, v] = test::random_block_pair(rng, 0, 8);
      svc.insert(u, v, rng.next_double());
    }
    svc.flush();
    auto snap = svc.snapshot();
    for (int k = 1; k < 8; ++k) EXPECT_EQ(snap->delta().shard_rebuilt[k], 0);
    view = ThresholdView::refreshed(view, snap);
    ThresholdView fresh(snap, tau);
    ASSERT_EQ(view->flat_clustering(), fresh.flat_clustering());
    ASSERT_EQ(view->size_histogram(), fresh.size_histogram());
    ASSERT_EQ(view->num_clusters(), fresh.num_clusters());
  }
  auto r = svc.stats();
  EXPECT_EQ(r.labels_rebuilt, 1u + 2u * rounds);  // initial + both sides
  EXPECT_EQ(r.labels_patched, 0u);
  EXPECT_EQ(r.labels_reused, 0u);
}

/// Concurrent epoch turnover through the one read path: the background
/// writer publishes epochs whose hub notifications wake the broker —
/// the publish callback runs on the writer thread while the dispatcher
/// refreshes its standing per-tau views — and the main thread keeps
/// submitting batches at two taus. This is the writer->reader
/// notification edge the TSan CI job watches, plus the scheduler
/// claim-gate composition (flush and dispatcher both fan out on the
/// fork-join pool).
TEST(FuzzEngine, ConcurrentPublishVsBrokerSubmits) {
  const vertex_id n = 96;
  ServiceConfig cfg;
  cfg.num_vertices = n;
  cfg.num_shards = 4;
  cfg.flush_threshold = 24;
  cfg.flush_interval = std::chrono::microseconds(100);
  SldService svc(cfg);
  svc.start_writer();

  std::thread producer([&] {
    par::Rng rng(2026);
    std::vector<ticket_t> live;
    for (int i = 0; i < 4000; ++i) {
      if (!live.empty() && rng.next_double() < 0.35) {
        size_t j = rng.next_bounded(live.size());
        svc.erase(live[j]);
        live[j] = live.back();
        live.pop_back();
      } else {
        auto [u, v] = test::random_distinct_pair(rng, n);
        live.push_back(svc.insert(u, v, rng.next_double()));
      }
      if (i % 400 == 399) std::this_thread::yield();
    }
  });

  par::Rng qrng(7);
  uint64_t batches = 0, epochs_seen = 0, last_epoch = 0;
  while (epochs_seen < 4 || batches < 50) {
    QueryRequest req;
    for (double tau : {0.3, 0.7}) {
      auto [u, v] = test::random_distinct_pair(qrng, n);
      req.queries.push_back(SameClusterQuery{u, u, tau});  // reflexive: true
      req.queries.push_back(SameClusterQuery{u, v, tau});
      req.queries.push_back(ClusterSizeQuery{u, tau});
    }
    ResultSet rs = svc.submit(std::move(req)).get();
    for (size_t i = 0; i < rs.results.size(); i += 3) {
      ASSERT_TRUE(std::get<bool>(rs.results[i]));
      ASSERT_GE(std::get<uint64_t>(rs.results[i + 2]), 1u);
    }
    ASSERT_GE(rs.epoch, last_epoch);  // Latest never moves backwards
    epochs_seen += rs.epoch > last_epoch;
    last_epoch = rs.epoch;
    ++batches;
    if (batches > 5000) break;  // liveness guard
  }

  producer.join();
  svc.stop_writer();
  // Catch up and verify the final epoch exactly: the broker's standing
  // views (refreshed on every publish) against fresh resolutions.
  svc.flush();
  auto snap = svc.snapshot();
  QueryRequest req;
  req.queries = {FlatClusteringQuery{0.3}, FlatClusteringQuery{0.7}};
  ResultSet rs = svc.submit(std::move(req)).get();
  ASSERT_EQ(rs.epoch, snap->epoch());
  EXPECT_EQ(std::get<std::vector<vertex_id>>(rs.results[0]),
            ThresholdView(snap, 0.3).flat_clustering());
  EXPECT_EQ(std::get<std::vector<vertex_id>>(rs.results[1]),
            ThresholdView(snap, 0.7).flat_clustering());
  EXPECT_GT(epochs_seen, 0u);
  auto r = svc.stats();
  EXPECT_GT(r.refresh_views_reused + r.refresh_views_incremental +
                r.refresh_views_full,
            0u);
}

// The durability cross-check: run scenario schedules against a
// PERSISTED service, then recover the directory and demand that every
// republished epoch fingerprints identically to the live run — flat
// labels as exact vector equality at multiple thresholds. This rides
// the same workload generators as the differential harness, so the
// recovery path sees uneven shards and all-cross churn, not just the
// tailored workloads in test_persist.cpp.
TEST(FuzzEngine, RecoverAndDiffReplaysSchedulesBitForBit) {
  namespace fs = std::filesystem;
  const double taus[2] = {0.25, 0.7};
  int trial = 0;
  for (const Scenario& sc : {kScenarios[0], kScenarios[3]}) {
    for (uint64_t seed : {11u, 12u, 13u}) {
      SCOPED_TRACE(std::string("scenario=") + sc.name +
                   " seed=" + std::to_string(seed));
      const fs::path dir =
          fs::temp_directory_path() /
          ("dynsld_fuzz_recover_" + std::to_string(trial++));
      fs::remove_all(dir);
      fs::create_directories(dir);

      ServiceConfig cfg;
      cfg.num_vertices = sc.n;
      cfg.num_shards = sc.shards;
      cfg.capture_edges = true;
      cfg.retain_epochs = 256;  // recovered ring holds the whole replay
      cfg.persist.dir = dir.string();
      cfg.persist.checkpoint_every = 3;

      // Per-epoch label fingerprints of the live run. Weights are
      // drawn DISTINCT (injective index map modulo a prime) — ties
      // would make the dendrogram non-unique and the bit-for-bit
      // comparison ill-posed.
      std::map<uint64_t, std::array<std::vector<vertex_id>, 2>> fps;
      {
        SldService svc(cfg);
        const ShardMap map = svc.snapshot()->shard_map();
        par::Rng rng(seed);
        uint64_t widx = 0;
        auto next_weight = [&] {
          return static_cast<double>((widx++ * 2654435761ull + seed) %
                                     999983ull) /
                 999983.0;
        };
        std::vector<LiveEdge> live;
        for (int step = 0; step < sc.steps; ++step) {
          if (step >= sc.prefill && !live.empty() &&
              rng.next_double() < sc.erase_prob) {
            size_t j = rng.next_bounded(live.size());
            if (rng.next_double() < 0.5)
              svc.erase(live[j].ticket);
            else
              EXPECT_TRUE(svc.erase(live[j].u, live[j].v));
            live[j] = live.back();
            live.pop_back();
          } else {
            vertex_id u, v;
            if (rng.next_double() < sc.cross_frac && sc.shards > 1) {
              do {
                u = static_cast<vertex_id>(rng.next_bounded(sc.n));
                v = static_cast<vertex_id>(rng.next_bounded(sc.n));
              } while (u == v || map.home(u) == map.home(v));
            } else {
              std::tie(u, v) = test::random_distinct_pair(rng, sc.n);
            }
            live.push_back(LiveEdge{svc.insert(u, v, next_weight()), u, v});
          }
          if (step % sc.flush_every != sc.flush_every - 1) continue;
          uint64_t before = svc.epoch();
          uint64_t e = svc.flush();
          if (e == before) continue;  // empty batch: no epoch published
          auto snap = svc.snapshot();
          fps[e] = {snap->flat_clustering(taus[0]),
                    snap->flat_clustering(taus[1])};
        }
      }  // destructor = clean shutdown; the directory is the survivor

      ASSERT_FALSE(fps.empty());
      auto res = persist::recover(cfg);
      ASSERT_TRUE(res.service);
      EXPECT_EQ(res.tip_epoch, fps.rbegin()->first);
      for (const auto& [e, labels] : fps) {
        if (e < res.checkpoint_epoch) continue;  // below the replay base
        SCOPED_TRACE("epoch=" + std::to_string(e));
        auto snap = res.service->snapshot_at(e);
        ASSERT_TRUE(snap);
        EXPECT_EQ(snap->flat_clustering(taus[0]), labels[0]);
        EXPECT_EQ(snap->flat_clustering(taus[1]), labels[1]);
      }
      res.service.reset();
      fs::remove_all(dir);
    }
  }
}

// The patch path end to end: one big shard under erase-heavy SMALL
// batches must take the copy-on-write patch path while agreeing with
// the Kruskal oracle, and the patched bytes must survive
// persist::recover() (whose replay re-freezes every epoch) unchanged.
// Patch-vs-fresh-build byte identity per epoch is pinned at the shard
// level (test_snapshot.cpp, ShardContractionOracle).
TEST(FuzzEngine, IncrementalShardPatchEraseHeavySmallBatches) {
  namespace fs = std::filesystem;
  const vertex_id n = 1024;
  const fs::path dir = fs::temp_directory_path() / "dynsld_fuzz_shard_patch";
  fs::remove_all(dir);
  fs::create_directories(dir);

  ServiceConfig cfg;
  cfg.num_vertices = n;
  cfg.num_shards = 1;
  cfg.capture_edges = true;
  cfg.retain_epochs = 64;
  cfg.persist.dir = dir.string();
  cfg.persist.checkpoint_every = 5;

  std::map<uint64_t, std::string> shard_bytes;  // epoch -> encoded shard 0
  {
    SldService svc(cfg);
    par::Rng rng(20260808);
    uint64_t widx = 0;
    // Distinct weights (injective map modulo a prime): ties would make
    // the dendrogram depend on the rank tiebreak alone, which is fine
    // for correctness but makes failure triage noisier.
    auto next_weight = [&] {
      return static_cast<double>((widx++ * 2654435761ull + 17) % 999983ull) /
             999983.0;
    };
    std::vector<LiveEdge> live;
    auto ins = [&](vertex_id u, vertex_id v) {
      live.push_back(LiveEdge{svc.insert(u, v, next_weight()), u, v});
    };
    // Bulk load: a path over the whole shard plus random chords.
    for (vertex_id v = 0; v + 1 < n; ++v) ins(v, v + 1);
    for (int i = 0; i < 256; ++i) {
      auto [u, v] = test::random_distinct_pair(rng, n);
      ins(u, v);
    }
    svc.flush();

    EngineStats::Report last_before;  // counters before the last flush
    for (int round = 0; round < 10; ++round) {
      for (int i = 0; i < 12; ++i) {  // small cut, erase-dominated
        if (!live.empty() && rng.next_double() < 0.7) {
          size_t j = rng.next_bounded(live.size());
          svc.erase(live[j].ticket);
          live[j] = live.back();
          live.pop_back();
        } else {
          auto [u, v] = test::random_distinct_pair(rng, n);
          ins(u, v);
        }
      }
      last_before = svc.stats();
      uint64_t e = svc.flush();
      auto snap = svc.snapshot();
      persist::ByteWriter pa;
      persist::SnapshotCodec::encode_shard(snap->shard(0), pa);
      shard_bytes[e] = pa.bytes();
      for (double tau : {0.3, 0.7}) {
        auto ref = reference_labels(n, snap->captured_edges(), tau);
        expect_same_partition(ref, snap->flat_clustering(tau));
      }
    }

    auto r = svc.stats();
    EXPECT_GT(r.shard_snapshots_patched, 0u);
    // The last epoch's one dirty shard was patched, not rebuilt.
    EXPECT_EQ(r.shard_snapshots_patched - last_before.shard_snapshots_patched,
              1u);
    EXPECT_EQ(r.shard_patch_fallbacks - last_before.shard_patch_fallbacks, 0u);
  }  // clean shutdown; the directory is the survivor

  auto res = persist::recover(cfg);
  ASSERT_TRUE(res.service);
  size_t compared = 0;
  for (const auto& [e, bytes] : shard_bytes) {
    if (e < res.checkpoint_epoch) continue;  // below the replay base
    auto snap = res.service->snapshot_at(e);
    ASSERT_TRUE(snap) << "epoch " << e;
    persist::ByteWriter pr;
    persist::SnapshotCodec::encode_shard(snap->shard(0), pr);
    EXPECT_EQ(pr.bytes(), bytes) << "epoch " << e;
    ++compared;
  }
  EXPECT_GT(compared, 0u);
  res.service.reset();
  fs::remove_all(dir);
}

}  // namespace
}  // namespace dynsld::engine

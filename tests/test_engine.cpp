// Engine tests: epoch snapshots, update coalescing, sharded routing,
// and the concurrent-reader stress test. The ground truth throughout is
// the static Kruskal construction (build_kruskal) over an epoch's
// captured edge set: single-linkage clusters at threshold tau are the
// connected components of the sub-tau edges, so partitions derived from
// the reference dendrogram must match every engine answer exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <limits>
#include <map>
#include <thread>
#include <vector>

#include "dendrogram/static_sld.hpp"
#include "engine/cluster_view.hpp"
#include "engine/mutation_queue.hpp"
#include "engine/query.hpp"
#include "engine/sld_service.hpp"
#include "engine/snapshot.hpp"
#include "engine/subscription.hpp"
#include "msf/dynamic_msf.hpp"
#include "parallel/random.hpp"
#include "test_util.hpp"

namespace dynsld::engine {
namespace {

// Kruskal-reference oracles shared with the fuzz harness
// (test_fuzz_engine.cpp) live in test_util.hpp.
using test::expect_same_partition;
using test::ref_cluster_size;
using test::ref_histogram;
using test::reference_labels;

/// The larger forest has clusters of 64+ vertices, which the flat-label
/// histogram counts apart from the small sizes.
TEST(DendrogramSnapshot, MatchesLiveQueriesOnRandomForest) {
  for (const vertex_id n : {60u, 300u}) {
    par::Rng rng(7);
    DynamicClustering dc(n);
    std::vector<uint32_t> handles;
    for (vertex_id i = 0; i < 5 * n / 2; ++i) {
      vertex_id u = rng.next_bounded(n), v;
      do {
        v = rng.next_bounded(n);
      } while (v == u);
      handles.push_back(dc.insert_edge(u, v, rng.next_double()));
      if (i % 5 == 0 && !handles.empty()) {
        uint32_t h = handles[rng.next_bounded(handles.size())];
        if (dc.edge_alive(h)) dc.erase_edge(h);
      }
    }
    auto snap = DendrogramSnapshot::build(dc.sld());
    for (double tau : {0.0, 0.05, 0.2, 0.4, 0.6, 0.85, 1.0}) {
      auto live = dc.sld().flat_clustering(tau);
      auto frozen = snap->flat_clustering(tau);
      expect_same_partition(live, frozen);
      std::vector<vertex_id> label(n);
      EXPECT_EQ(snap->flat_labels(tau, label), ref_histogram(live).bins)
          << "n=" << n << " tau=" << tau;
      EXPECT_EQ(label, frozen);
      for (vertex_id u = 0; u < n; ++u) {
        EXPECT_EQ(snap->cluster_size(u, tau), dc.sld().cluster_size(u, tau))
            << "u=" << u << " tau=" << tau;
        auto rep = snap->cluster_report(u, tau);
        EXPECT_EQ(rep.size(), snap->cluster_size(u, tau));
      }
      for (int q = 0; q < 200; ++q) {
        vertex_id s = rng.next_bounded(n), t = rng.next_bounded(n);
        EXPECT_EQ(snap->same_cluster(s, t, tau),
                  dc.sld().same_cluster(s, t, tau));
      }
    }
  }
}

TEST(MutationQueue, CoalescesInsertErasePairs) {
  EngineStats stats;
  MutationQueue q(&stats);
  ticket_t a = q.enqueue_insert(0, 1, 0.5);
  ticket_t b = q.enqueue_insert(1, 2, 0.25);
  EXPECT_EQ(q.pending(), 2u);
  // Erasing a pending insert annihilates in the queue.
  EXPECT_FALSE(q.enqueue_erase(a));
  EXPECT_EQ(q.pending(), 1u);
  auto d = q.drain();
  ASSERT_EQ(d.inserts.size(), 1u);
  EXPECT_EQ(d.inserts[0].ticket, b);
  EXPECT_TRUE(d.erases.empty());
  EXPECT_EQ(stats.coalesced_pairs.load(), 1u);

  // An applied ticket's erase is queued; a duplicate is dropped.
  EXPECT_TRUE(q.enqueue_erase(b));
  EXPECT_FALSE(q.enqueue_erase(b));
  d = q.drain();
  ASSERT_EQ(d.erases.size(), 1u);
  EXPECT_EQ(d.erases[0].ticket, b);
  // The queued erase carries its ledger-resolved endpoints.
  EXPECT_EQ(d.erases[0].u, 1u);
  EXPECT_EQ(d.erases[0].v, 2u);
  EXPECT_EQ(stats.duplicate_erases.load(), 1u);
}

/// Ticket-ledger edge cases around the batch dirty set: annihilation
/// must leave the dirty set empty, double erases must not double-mark,
/// and re-insert-after-erase inside one batch dirties the shard exactly
/// once through both ops.
TEST(MutationQueue, AnnihilationLeavesDirtySetEmpty) {
  const ShardMap map = ShardMap::make(40, 2);  // stride 20
  EngineStats stats;
  MutationQueue q(&stats);

  // Erase-by-endpoints of a not-yet-flushed insert: annihilates in the
  // queue; the drained batch is empty and dirties nothing.
  q.enqueue_insert(1, 2, 0.5);
  EXPECT_TRUE(q.enqueue_erase(vertex_id{1}, vertex_id{2}));
  auto d = q.drain();
  EXPECT_TRUE(d.empty());
  EXPECT_FALSE(d.dirty_set(map).any());
  EXPECT_EQ(stats.coalesced_pairs.load(), 1u);

  // Same via ticket, cross-shard edge: still nothing reaches the
  // shards, and the cross flag stays clear.
  ticket_t t = q.enqueue_insert(3, 25, 0.7);
  q.enqueue_erase(t);
  d = q.drain();
  EXPECT_TRUE(d.empty());
  auto dirty = d.dirty_set(map);
  EXPECT_FALSE(dirty.any());
  EXPECT_FALSE(dirty.cross);
}

TEST(MutationQueue, DoubleEraseMarksDirtyOnce) {
  const ShardMap map = ShardMap::make(40, 2);
  EngineStats stats;
  MutationQueue q(&stats);
  ticket_t t = q.enqueue_insert(21, 22, 0.4);  // shard 1
  (void)q.drain();                             // "applied"
  EXPECT_TRUE(q.enqueue_erase(t));
  EXPECT_FALSE(q.enqueue_erase(t));                           // duplicate ticket
  EXPECT_FALSE(q.enqueue_erase(vertex_id{21}, vertex_id{22}));  // ledger gone
  auto d = q.drain();
  ASSERT_EQ(d.erases.size(), 1u);
  EXPECT_EQ(d.erases[0].u, 21u);
  auto dirty = d.dirty_set(map);
  EXPECT_EQ(dirty.shards[0], 0);
  EXPECT_EQ(dirty.shards[1], 1);
  EXPECT_FALSE(dirty.cross);
  // Counter triple: the real erase and its ticket-duplicate both count
  // as enqueued erase traffic; the endpoint-ledger miss enqueued
  // NOTHING, so it must not inflate either of those — it gets its own
  // counter (a miss used to bump erases_enqueued AND duplicate_erases).
  EXPECT_EQ(stats.erases_enqueued.load(), 2u);
  EXPECT_EQ(stats.duplicate_erases.load(), 1u);
  EXPECT_EQ(stats.erase_ledger_misses.load(), 1u);
}

TEST(MutationQueue, LedgerMissCountsOnlyTheMissCounter) {
  EngineStats stats;
  MutationQueue q(&stats);
  // No insertion of (3, 4) ever happened: pure miss.
  EXPECT_FALSE(q.enqueue_erase(vertex_id{3}, vertex_id{4}));
  EXPECT_EQ(stats.erases_enqueued.load(), 0u);
  EXPECT_EQ(stats.duplicate_erases.load(), 0u);
  EXPECT_EQ(stats.erase_ledger_misses.load(), 1u);
  // A hit right after still counts normally.
  ticket_t t = q.enqueue_insert(3, 4, 0.5);
  (void)q.drain();
  EXPECT_TRUE(q.enqueue_erase(vertex_id{3}, vertex_id{4}));
  EXPECT_EQ(stats.erases_enqueued.load(), 1u);
  EXPECT_EQ(stats.erase_ledger_misses.load(), 1u);
  (void)t;
}

/// Patch-viability fallback: a batch that guts more than half a shard
/// fails the exact re-check at materialization and falls back to a full
/// rebuild (counted); the next small batch patches again.
TEST(ShardRouter, PatchViabilityFallbackOnLargeCut) {
  ServiceConfig cfg;
  cfg.num_vertices = 32;
  cfg.num_shards = 1;
  SldService svc(cfg);
  par::Rng rng = test::test_rng();
  std::vector<ticket_t> ts;
  for (vertex_id v = 0; v + 1 < 32; ++v)
    ts.push_back(svc.insert(v, v + 1, rng.next_double()));
  svc.flush();

  auto before = svc.stats();
  for (size_t i = 0; i < 20; ++i) svc.erase(ts[i]);  // > half the shard
  svc.flush();
  auto after = svc.stats();
  EXPECT_EQ(after.shard_patch_fallbacks - before.shard_patch_fallbacks, 1u);
  EXPECT_EQ(after.shard_snapshots_patched - before.shard_snapshots_patched,
            0u);

  before = after;
  svc.insert(0, 31, 0.9);  // small follow-up batch
  svc.flush();
  after = svc.stats();
  EXPECT_EQ(after.shard_snapshots_patched - before.shard_snapshots_patched,
            1u);
  EXPECT_EQ(after.shard_patch_fallbacks - before.shard_patch_fallbacks, 0u);
}

/// The router exports each flush's MSF replacement-search work: one
/// cut of the path 0..7 labels only the smaller piece {0, 1, 2} and
/// scans its one non-tree entry; with no non-tree edge left, a later
/// cut labels nothing.
TEST(ShardRouter, ReplacementSearchCounters) {
  ServiceConfig cfg;
  cfg.num_vertices = 8;
  cfg.num_shards = 1;
  SldService svc(cfg);
  std::vector<ticket_t> path;
  for (vertex_id v = 0; v + 1 < 8; ++v)
    path.push_back(svc.insert(v, v + 1, 0.1 * (v + 1)));
  svc.insert(0, 7, 0.95);  // the only non-tree edge
  svc.flush();
  EXPECT_EQ(svc.stats().msf_search_vertices, 0u);

  svc.erase(path[2]);  // (2, 3)
  svc.flush();
  EXPECT_EQ(svc.stats().msf_search_vertices, 3u);
  EXPECT_EQ(svc.stats().msf_search_scanned, 1u);
  EXPECT_TRUE(ThresholdView(svc.snapshot(), 1.0).same_cluster(0, 3));

  svc.erase(path[5]);  // (5, 6): a pure forest now, nothing to search
  svc.flush();
  EXPECT_EQ(svc.stats().msf_search_vertices, 3u);
  EXPECT_EQ(svc.stats().msf_search_scanned, 1u);
}

/// drain() swaps in fresh per-drain tables once a bulk load has sized
/// them far past a small batch; coalescing and duplicate detection
/// work the same before and after the swap.
TEST(MutationQueue, SmallDrainsAfterBulkLoad) {
  EngineStats stats;
  MutationQueue q(&stats);
  std::vector<ticket_t> bulk;
  for (vertex_id v = 0; v < 5000; ++v) bulk.push_back(q.enqueue_insert(v, v + 1, 0.5));
  for (size_t i = 0; i < 3000; ++i) EXPECT_TRUE(q.enqueue_erase(bulk[i] + 100000));
  auto d = q.drain();
  EXPECT_EQ(d.inserts.size(), 5000u);
  for (int round = 0; round < 3; ++round) {
    ticket_t t = q.enqueue_insert(1, 2, 0.25);
    EXPECT_FALSE(q.enqueue_erase(t));  // annihilates the pending insert
    EXPECT_TRUE(q.enqueue_erase(bulk[round]));
    EXPECT_FALSE(q.enqueue_erase(bulk[round]));  // duplicate in this cut
    ticket_t kept = q.enqueue_insert(3, 4, 0.75);
    d = q.drain();
    ASSERT_EQ(d.inserts.size(), 1u);
    EXPECT_EQ(d.inserts[0].ticket, kept);
    ASSERT_EQ(d.erases.size(), 1u);
    EXPECT_EQ(d.erases[0].ticket, bulk[round]);
    EXPECT_EQ(d.erases[0].u, static_cast<vertex_id>(round));
  }
  EXPECT_EQ(stats.coalesced_pairs.load(), 3u);
  EXPECT_EQ(stats.duplicate_erases.load(), 3u);
}

TEST(MutationQueue, ReinsertAfterEraseInOneBatch) {
  const ShardMap map = ShardMap::make(40, 2);
  MutationQueue q;
  ticket_t old_t = q.enqueue_insert(5, 6, 0.9);
  (void)q.drain();  // applied in an earlier epoch

  // One batch: erase the applied copy, then insert a replacement.
  EXPECT_TRUE(q.enqueue_erase(vertex_id{5}, vertex_id{6}));
  ticket_t new_t = q.enqueue_insert(5, 6, 0.2);
  auto d = q.drain();
  ASSERT_EQ(d.inserts.size(), 1u);
  ASSERT_EQ(d.erases.size(), 1u);
  EXPECT_EQ(d.erases[0].ticket, old_t);
  EXPECT_EQ(d.inserts[0].ticket, new_t);
  auto dirty = d.dirty_set(map);
  EXPECT_EQ(dirty.shards[0], 1);
  EXPECT_EQ(dirty.shards[1], 0);
  // The replacement is the live (5, 6) copy now.
  EXPECT_TRUE(q.enqueue_erase(vertex_id{6}, vertex_id{5}));
  EXPECT_FALSE(q.enqueue_erase(vertex_id{5}, vertex_id{6}));
}

/// Service-level annihilation: a churn-only batch publishes no epoch,
/// so the publish hub is not notified and nothing refreshes.
TEST(SldService, AnnihilatedBatchPublishesNoEpoch) {
  ServiceConfig cfg;
  cfg.num_vertices = 16;
  SldService svc(cfg);
  uint64_t before = svc.epoch();
  uint64_t published = svc.stats().epochs_published;
  uint64_t notifies = svc.obs().flush_notify->snapshot().count;
  ticket_t t = svc.insert(2, 3, 0.5);
  svc.erase(t);
  EXPECT_EQ(svc.flush(), before);  // empty batch: same epoch
  EXPECT_EQ(svc.stats().epochs_published, published);
  EXPECT_EQ(svc.obs().flush_notify->snapshot().count, notifies);
}

TEST(MutationQueue, PreservesInsertOrder) {
  MutationQueue q;
  for (int i = 0; i < 10; ++i)
    q.enqueue_insert(static_cast<vertex_id>(i), static_cast<vertex_id>(i + 1),
                     i * 0.1);
  auto d = q.drain();
  ASSERT_EQ(d.inserts.size(), 10u);
  for (int i = 1; i < 10; ++i)
    EXPECT_LT(d.inserts[i - 1].ticket, d.inserts[i].ticket);
}

/// Single-shard service vs the Kruskal reference across random flush
/// points (insert/erase mix with cycles, swaps, and replacements).
TEST(SldService, MatchesReferenceAcrossEpochs) {
  const vertex_id n = 48;
  ServiceConfig cfg;
  cfg.num_vertices = n;
  cfg.num_shards = 1;
  cfg.capture_edges = true;
  SldService svc(cfg);
  par::Rng rng(2025);
  std::vector<ticket_t> live;
  for (int step = 0; step < 400; ++step) {
    if (!live.empty() && rng.next_double() < 0.3) {
      size_t j = rng.next_bounded(live.size());
      svc.erase(live[j]);
      live[j] = live.back();
      live.pop_back();
    } else {
      vertex_id u = rng.next_bounded(n), v;
      do {
        v = rng.next_bounded(n);
      } while (v == u);
      live.push_back(svc.insert(u, v, rng.next_double()));
    }
    if (rng.next_double() < 0.15) {
      svc.flush();
      auto snap = svc.snapshot();
      for (double tau : {0.1, 0.35, 0.7}) {
        auto ref = reference_labels(n, snap->captured_edges(), tau);
        ThresholdView view(snap, tau);
        expect_same_partition(ref, view.flat_clustering());
        for (int q = 0; q < 30; ++q) {
          vertex_id s = rng.next_bounded(n), t = rng.next_bounded(n);
          EXPECT_EQ(view.same_cluster(s, t), ref[s] == ref[t]);
        }
        vertex_id u = rng.next_bounded(n);
        EXPECT_EQ(view.cluster_size(u), ref_cluster_size(ref, u));
      }
    }
  }
}

/// Sharded service (intra + cross edges) vs the same reference.
TEST(SldService, ShardedMatchesReference) {
  const vertex_id n = 60;
  ServiceConfig cfg;
  cfg.num_vertices = n;
  cfg.num_shards = 3;
  cfg.capture_edges = true;
  SldService svc(cfg);
  EXPECT_EQ(svc.num_shards(), 3);
  par::Rng rng(99);
  std::vector<ticket_t> live;
  for (int step = 0; step < 500; ++step) {
    if (!live.empty() && rng.next_double() < 0.3) {
      size_t j = rng.next_bounded(live.size());
      svc.erase(live[j]);
      live[j] = live.back();
      live.pop_back();
    } else {
      // 70% intra-block (block = 20 = shard stride), 30% cross.
      vertex_id u = rng.next_bounded(n), v;
      if (rng.next_double() < 0.7) {
        vertex_id base = (u / 20) * 20;
        do {
          v = base + rng.next_bounded(20);
        } while (v == u);
      } else {
        do {
          v = rng.next_bounded(n);
        } while (v == u);
      }
      live.push_back(svc.insert(u, v, rng.next_double()));
    }
    if (step % 40 == 39) {
      svc.flush();
      auto snap = svc.snapshot();
      for (double tau : {0.15, 0.5, 0.9}) {
        auto ref = reference_labels(n, snap->captured_edges(), tau);
        ThresholdView view(snap, tau);
        expect_same_partition(ref, view.flat_clustering());
        for (int q = 0; q < 40; ++q) {
          vertex_id s = rng.next_bounded(n), t = rng.next_bounded(n);
          EXPECT_EQ(view.same_cluster(s, t), ref[s] == ref[t])
              << "s=" << s << " t=" << t << " tau=" << tau;
        }
        for (int q = 0; q < 10; ++q) {
          vertex_id u = rng.next_bounded(n);
          EXPECT_EQ(view.cluster_size(u), ref_cluster_size(ref, u));
          auto rep = view.cluster_report(u);
          EXPECT_EQ(rep.size(), ref_cluster_size(ref, u));
        }
      }
    }
  }
  auto r = svc.stats();
  EXPECT_GT(r.cross_ops, 0u);
}

/// An epoch reuses the per-shard snapshots of shards it did not touch.
TEST(SldService, UntouchedShardSnapshotsAreReused) {
  ServiceConfig cfg;
  cfg.num_vertices = 40;  // stride 20: shard 0 = [0,20), shard 1 = [20,40)
  cfg.num_shards = 2;
  SldService svc(cfg);
  svc.insert(1, 2, 0.3);
  svc.flush();
  auto before = svc.snapshot();
  svc.insert(21, 22, 0.4);  // touches only shard 1
  svc.flush();
  auto after = svc.snapshot();
  EXPECT_EQ(&before->shard(0), &after->shard(0));  // pointer-identical reuse
  EXPECT_NE(&before->shard(1), &after->shard(1));
  EXPECT_GT(svc.stats().shard_snapshots_reused, 0u);
}

TEST(SldService, CoalescedChurnNeverReachesShards) {
  ServiceConfig cfg;
  cfg.num_vertices = 10;
  SldService svc(cfg);
  for (int i = 0; i < 100; ++i) {
    ticket_t t = svc.insert(0, 1 + (i % 5), 0.5);
    svc.erase(t);  // annihilates in the queue
  }
  svc.flush();
  auto r = svc.stats();
  EXPECT_EQ(r.coalesced_pairs, 100u);
  EXPECT_EQ(r.ops_applied, 0u);
  EXPECT_EQ(svc.snapshot()->num_tree_edges(), 0u);
}

/// The acceptance stress test: N reader threads issue threshold /
/// cluster-size / flat-clustering queries against epoch snapshots while
/// a writer streams coalesced batches through flush(); every answer is
/// checked against the Kruskal reference of that epoch's captured edge
/// set. Snapshot consistency means a reader's answers agree with the
/// reference even when many epochs are published mid-query-loop.
TEST(SldService, StressReadersVsWriterMatchKruskalReference) {
  const vertex_id n = 80;
  const int kReaders = 4;
  ServiceConfig cfg;
  cfg.num_vertices = n;
  cfg.num_shards = 2;
  cfg.capture_edges = true;
  SldService svc(cfg);

  std::atomic<bool> done{false};
  std::atomic<uint64_t> checks{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      par::Rng rng(1234 + r);
      // Per-epoch reference cache (epochs repeat across iterations).
      std::map<uint64_t, std::map<double, std::vector<vertex_id>>> cache;
      while (!done.load(std::memory_order_acquire)) {
        auto snap = svc.snapshot();
        double tau = (1 + rng.next_bounded(9)) * 0.1;
        auto& ref = cache[snap->epoch()][tau];
        if (ref.empty())
          ref = reference_labels(n, snap->captured_edges(), tau);
        vertex_id s = rng.next_bounded(n), t = rng.next_bounded(n);
        ThresholdView view(snap, tau);
        ASSERT_EQ(view.same_cluster(s, t), ref[s] == ref[t])
            << "epoch " << snap->epoch() << " tau " << tau;
        ASSERT_EQ(view.cluster_size(s), ref_cluster_size(ref, s));
        expect_same_partition(ref, view.flat_clustering());
        checks.fetch_add(1, std::memory_order_relaxed);
        if (cache.size() > 8) cache.erase(cache.begin());
      }
    });
  }

  // Writer: streaming churn in batches.
  par::Rng rng(4321);
  std::vector<ticket_t> live;
  uint64_t epochs = 0;
  for (int batch = 0; batch < 60; ++batch) {
    for (int i = 0; i < 12; ++i) {
      if (!live.empty() && rng.next_double() < 0.35) {
        size_t j = rng.next_bounded(live.size());
        svc.erase(live[j]);
        live[j] = live.back();
        live.pop_back();
      } else {
        vertex_id u = rng.next_bounded(n), v;
        do {
          v = rng.next_bounded(n);
        } while (v == u);
        live.push_back(svc.insert(u, v, rng.next_double()));
      }
    }
    epochs = svc.flush();
    if (batch % 10 == 0) std::this_thread::yield();
  }
  // Let readers observe the final epoch for a moment.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  done.store(true, std::memory_order_release);
  for (auto& th : readers) th.join();

  EXPECT_GE(epochs, 50u);
  EXPECT_GT(checks.load(), 0u);
  auto r = svc.stats();
  EXPECT_GE(r.epochs_published, 60u);
}

/// Randomized typed query batches on a multi-shard service, including
/// duplicate-tau grouping, cross-checked against the per-epoch Kruskal
/// reference. Vertex n-1 stays edge-free so singleton clusters are
/// always part of the mix.
TEST(SldService, PinnedBatchMatchesReferenceOnShardedService) {
  const vertex_id n = 61;  // vertex 60 never touched: permanent singleton
  ServiceConfig cfg;
  cfg.num_vertices = n;
  cfg.num_shards = 3;
  cfg.capture_edges = true;
  SldService svc(cfg);
  par::Rng rng(314);
  std::vector<ticket_t> live;
  for (int step = 0; step < 360; ++step) {
    if (!live.empty() && rng.next_double() < 0.3) {
      size_t j = rng.next_bounded(live.size());
      svc.erase(live[j]);
      live[j] = live.back();
      live.pop_back();
    } else {
      vertex_id u = rng.next_bounded(n - 1), v;
      do {
        v = rng.next_bounded(n - 1);
      } while (v == u);
      live.push_back(svc.insert(u, v, rng.next_double()));
    }
    if (step % 60 != 59) continue;
    svc.flush();
    auto snap = svc.snapshot();
    const auto& captured = snap->captured_edges();

    // Mixed batch over duplicate taus (three distinct thresholds).
    const std::vector<double> taus = {0.25, 0.6, 0.6, 0.9, 0.25, 0.6};
    std::vector<Query> batch;
    std::map<double, std::vector<vertex_id>> ref;
    for (double tau : taus) {
      if (!ref.count(tau)) ref[tau] = reference_labels(n, captured, tau);
      vertex_id u = rng.next_bounded(n), v = rng.next_bounded(n);
      batch.push_back(SameClusterQuery{u, v, tau});
      batch.push_back(ClusterSizeQuery{u, tau});
      batch.push_back(ClusterReportQuery{60, tau});  // singleton report
      batch.push_back(ClusterReportQuery{v, tau});
      batch.push_back(FlatClusteringQuery{tau});
      batch.push_back(SizeHistogramQuery{tau});
    }
    uint64_t groups_before = svc.stats().broker_groups;
    QueryRequest req;
    req.queries = batch;
    req.consistency = Pinned{snap};
    ResultSet rs = svc.submit(std::move(req)).get();
    ASSERT_EQ(rs.epoch, snap->epoch());
    const std::vector<QueryResult>& results = rs.results;
    // Duplicate taus share one resolution: three distinct thresholds,
    // three (epoch, tau) groups.
    EXPECT_EQ(svc.stats().broker_groups - groups_before, 3u);

    ASSERT_EQ(results.size(), batch.size());
    size_t i = 0;
    for (double tau : taus) {
      const auto& labels = ref[tau];
      const auto& sc = std::get<SameClusterQuery>(batch[i]);
      EXPECT_EQ(std::get<bool>(results[i]),
                labels[sc.u] == labels[sc.v])
          << "tau=" << tau;
      ++i;
      const auto& cs = std::get<ClusterSizeQuery>(batch[i]);
      EXPECT_EQ(std::get<uint64_t>(results[i]), ref_cluster_size(labels, cs.u));
      ++i;
      auto singleton = std::get<std::vector<vertex_id>>(results[i]);
      EXPECT_EQ(singleton, std::vector<vertex_id>{60});
      ++i;
      const auto& cr = std::get<ClusterReportQuery>(batch[i]);
      auto members = std::get<std::vector<vertex_id>>(results[i]);
      EXPECT_EQ(members.size(), ref_cluster_size(labels, cr.u));
      bool contains_u = false;
      for (vertex_id m : members) {
        EXPECT_EQ(labels[m], labels[cr.u]);
        contains_u |= m == cr.u;
      }
      EXPECT_TRUE(contains_u);
      ++i;
      expect_same_partition(labels,
                            std::get<std::vector<vertex_id>>(results[i]));
      ++i;
      EXPECT_EQ(std::get<SizeHistogram>(results[i]), ref_histogram(labels));
      ++i;
    }
  }
  EXPECT_GT(svc.stats().cross_ops, 0u);
}

/// Acceptance: N mixed queries at one tau through a ThresholdView cost
/// exactly one cross-shard union-find build, and refreshing it onto the
/// same epoch hands back the same view.
TEST(ThresholdView, ResolvesCrossMergeOnce) {
  const vertex_id n = 40;  // 2 shards, stride 20
  ServiceConfig cfg;
  cfg.num_vertices = n;
  cfg.num_shards = 2;
  SldService svc(cfg);
  par::Rng rng(77);
  for (int i = 0; i < 60; ++i) {  // intra edges in both shards
    vertex_id base = (i % 2) * 20;
    vertex_id u = base + rng.next_bounded(20), v;
    do {
      v = base + rng.next_bounded(20);
    } while (v == u);
    svc.insert(u, v, rng.next_double() * 0.5);
  }
  for (int i = 0; i < 10; ++i)  // sub-tau cross edges
    svc.insert(rng.next_bounded(20), 20 + rng.next_bounded(20),
               0.1 + 0.4 * rng.next_double());
  svc.flush();

  uint64_t uf_before = svc.stats().cross_uf_builds;
  auto tv = std::make_shared<const ThresholdView>(svc.snapshot(), 0.6);
  for (int q = 0; q < 200; ++q) {
    vertex_id u = rng.next_bounded(n), v = rng.next_bounded(n);
    tv->same_cluster(u, v);
    tv->cluster_size(u);
    if (q % 20 == 0) {
      tv->cluster_report(v);
      tv->flat_clustering();
    }
  }
  EXPECT_EQ(svc.stats().cross_uf_builds - uf_before, 1u);
  EXPECT_GT(tv->num_cross_groups(), 0u);
  // Same epoch: the refresh is the identity, same resolution.
  EXPECT_EQ(ThresholdView::refreshed(tv, svc.snapshot()).get(), tv.get());

  // A transient view per call pays one resolution per call — the view
  // plane's amortization is real, not bookkeeping.
  uf_before = svc.stats().cross_uf_builds;
  auto snap = svc.snapshot();
  ThresholdView(snap, 0.6).same_cluster(0, 21);
  ThresholdView(snap, 0.6).cluster_size(0);
  EXPECT_EQ(svc.stats().cross_uf_builds - uf_before, 2u);
}

/// Epoch-0 views: everything is a singleton; the batch API still
/// answers coherently (empty service, no cross edges, no tree edges).
TEST(ThresholdView, EpochZeroAllSingletons) {
  const vertex_id n = 12;
  ServiceConfig cfg;
  cfg.num_vertices = n;
  cfg.num_shards = 4;
  SldService svc(cfg);
  auto tv = std::make_shared<const ThresholdView>(svc.snapshot(), 0.5);
  EXPECT_EQ(tv->epoch(), 0u);
  EXPECT_TRUE(tv->same_cluster(3, 3));
  EXPECT_FALSE(tv->same_cluster(3, 4));
  EXPECT_EQ(tv->cluster_size(7), 1u);
  EXPECT_EQ(tv->cluster_report(7), std::vector<vertex_id>{7});
  auto labels = tv->flat_clustering();
  ASSERT_EQ(labels.size(), n);
  for (vertex_id v = 0; v < n; ++v) EXPECT_EQ(labels[v], v);
  SizeHistogram h = tv->size_histogram();
  ASSERT_EQ(h.bins.size(), 1u);
  EXPECT_EQ(h.bins[0], (std::pair<uint64_t, uint64_t>{1, n}));
  EXPECT_EQ(h.num_clusters(), n);
}

/// A cross-shard merge relabels the blob whose top's u endpoint is not
/// the group minimum through a flat_labels() override of its top slot.
/// Every shard-1 vertex id exceeds every shard-0 id, so shard 1's
/// multi-node cluster must take shard 0's label; shard 1's root node,
/// above tau, must not carry it onto the singleton it joins.
TEST(ThresholdView, CrossBlobTakesGroupMinimumLabel) {
  const double tau = 0.5;
  ServiceConfig cfg;
  cfg.num_vertices = 10;  // 2 shards, stride 5
  cfg.num_shards = 2;
  SldService svc(cfg);
  svc.insert(0, 1, 0.1);
  svc.insert(1, 2, 0.2);
  svc.insert(5, 6, 0.1);
  svc.insert(6, 7, 0.2);
  svc.insert(7, 8, 0.15);
  svc.insert(8, 9, 0.9);  // above tau: 9 stays a singleton
  svc.insert(2, 6, 0.3);  // the one sub-tau cross edge
  svc.flush();
  auto snap = svc.snapshot();
  const DendrogramSnapshot& s0 = snap->shard(0);
  const vertex_id group_label = s0.slot_u(s0.top_of(0, tau));
  ASSERT_LT(group_label, 5u);

  auto tv = std::make_shared<const ThresholdView>(snap, tau);
  const std::vector<vertex_id>& flat = tv->flat_clustering();
  for (vertex_id v : {0u, 1u, 2u, 5u, 6u, 7u, 8u})
    EXPECT_EQ(flat[v], group_label) << "vertex " << v;
  for (vertex_id v : {3u, 4u, 9u}) EXPECT_EQ(flat[v], v) << "vertex " << v;
  const SizeHistogram& h = tv->size_histogram();
  EXPECT_EQ(h.bins, (std::vector<std::pair<uint64_t, uint64_t>>{{1, 3},
                                                                 {7, 1}}));
}

/// The cluster-report CSR builds lazily on the first members_of()
/// call. Four threads report every vertex of one freshly published
/// snapshot at once, so they race that first build in both shards;
/// each must get exactly what a single-threaded report on an identical
/// twin service gets.
TEST(ThresholdView, FirstClusterReportRacesCsrBuild) {
  const vertex_id n = 2000;
  const double tau = 0.3;
  ServiceConfig cfg;
  cfg.num_vertices = n;
  cfg.num_shards = 2;
  SldService svc(cfg), twin(cfg);
  par::Rng rng(91);
  for (int i = 0; i < 3000; ++i) {
    auto [u, v] = test::random_distinct_pair(rng, n);
    const double w = rng.next_double();
    svc.insert(u, v, w);
    twin.insert(u, v, w);
  }
  svc.flush();
  twin.flush();

  ThresholdView ref(twin.snapshot(), tau);
  std::vector<std::vector<vertex_id>> want(n);
  for (vertex_id v = 0; v < n; ++v) want[v] = ref.cluster_report(v);

  ThresholdView tv(svc.snapshot(), tau);
  constexpr int kThreads = 4;
  std::vector<std::vector<std::vector<vertex_id>>> got(
      kThreads, std::vector<std::vector<vertex_id>>(n));
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      // Staggered starts: threads 0 and 1 open in shard 0, 2 and 3 in
      // shard 1.
      for (vertex_id i = 0; i < n; ++i) {
        const vertex_id v = (i + t * (n / kThreads)) % n;
        got[t][v] = tv.cluster_report(v);
      }
    });
  }
  for (std::thread& th : threads) th.join();
  for (int t = 0; t < kThreads; ++t)
    for (vertex_id v = 0; v < n; ++v)
      ASSERT_EQ(got[t][v], want[v]) << "thread " << t << " vertex " << v;
}

/// Erase-by-endpoints: the queue's (u, v) ledger resolves tickets for
/// callers that don't retain them — pre-flush (annihilation), across
/// flushes, reversed endpoints, multi-edges, and unknown pairs.
TEST(SldService, EraseByEndpoints) {
  ServiceConfig cfg;
  cfg.num_vertices = 20;
  SldService svc(cfg);

  // Pre-flush: annihilates in the queue, never reaches shards.
  svc.insert(1, 2, 0.5);
  EXPECT_TRUE(svc.erase(vertex_id{1}, vertex_id{2}));
  svc.flush();
  EXPECT_EQ(svc.stats().coalesced_pairs, 1u);
  EXPECT_EQ(svc.stats().ops_applied, 0u);

  // Across a flush, with reversed endpoints.
  svc.insert(3, 4, 0.2);
  svc.flush();
  EXPECT_TRUE(svc.same_cluster(3, 4, 0.5));
  EXPECT_TRUE(svc.erase(vertex_id{4}, vertex_id{3}));
  svc.flush();
  EXPECT_FALSE(svc.same_cluster(3, 4, 0.5));

  // Unknown pair / already-erased pair.
  EXPECT_FALSE(svc.erase(vertex_id{5}, vertex_id{6}));
  EXPECT_FALSE(svc.erase(vertex_id{3}, vertex_id{4}));

  // Multi-edge: one endpoint-erase per copy, most recent first.
  svc.insert(7, 8, 0.1);
  svc.insert(7, 8, 0.3);
  svc.flush();
  EXPECT_TRUE(svc.erase(vertex_id{7}, vertex_id{8}));
  EXPECT_TRUE(svc.erase(vertex_id{7}, vertex_id{8}));
  EXPECT_FALSE(svc.erase(vertex_id{7}, vertex_id{8}));
  svc.flush();
  EXPECT_FALSE(svc.same_cluster(7, 8, 1.0));

  // A ticket-erase also clears the ledger entry.
  ticket_t t = svc.insert(9, 10, 0.4);
  svc.erase(t);
  EXPECT_FALSE(svc.erase(vertex_id{9}, vertex_id{10}));
}

/// Shard-local vertex spaces: per-shard snapshots are sized to the
/// shard's own range (uneven last shard included), and sharded answers
/// still match the reference exactly.
TEST(SldService, ShardLocalSpacesUnevenRanges) {
  const vertex_id n = 50;
  ServiceConfig cfg;
  cfg.num_vertices = n;
  cfg.num_shards = 4;  // stride 13: ranges 13, 13, 13, 11
  cfg.capture_edges = true;
  SldService svc(cfg);
  par::Rng rng(424);
  for (int i = 0; i < 220; ++i) {
    vertex_id u = rng.next_bounded(n), v;
    do {
      v = rng.next_bounded(n);
    } while (v == u);
    svc.insert(u, v, rng.next_double());
  }
  svc.flush();
  auto snap = svc.snapshot();
  ASSERT_EQ(snap->shard_map().stride, 13u);
  for (int k = 0; k < 4; ++k) {
    EXPECT_EQ(snap->shard(k).num_vertices(), snap->shard_map().local_size(k));
    EXPECT_EQ(snap->shard(k).base(), snap->shard_map().base(k));
  }
  EXPECT_EQ(snap->shard(3).num_vertices(), 11u);
  for (double tau : {0.2, 0.55, 0.85}) {
    auto ref = reference_labels(n, snap->captured_edges(), tau);
    ThresholdView view(snap, tau);
    expect_same_partition(ref, view.flat_clustering());
    for (int q = 0; q < 60; ++q) {
      vertex_id s = rng.next_bounded(n), t = rng.next_bounded(n);
      EXPECT_EQ(view.same_cluster(s, t), ref[s] == ref[t])
          << "s=" << s << " t=" << t << " tau=" << tau;
    }
    for (int q = 0; q < 15; ++q) {
      vertex_id u = rng.next_bounded(n);
      EXPECT_EQ(view.cluster_size(u), ref_cluster_size(ref, u));
      EXPECT_EQ(view.cluster_report(u).size(), ref_cluster_size(ref, u));
    }
  }
}

/// Background writer thread: epochs advance without explicit flushes.
TEST(SldService, BackgroundWriterPublishesEpochs) {
  ServiceConfig cfg;
  cfg.num_vertices = 32;
  cfg.flush_threshold = 8;
  cfg.flush_interval = std::chrono::microseconds(100);
  SldService svc(cfg);
  svc.start_writer();
  par::Rng rng(5);
  for (int i = 0; i < 64; ++i) {
    vertex_id u = rng.next_bounded(32), v;
    do {
      v = rng.next_bounded(32);
    } while (v == u);
    svc.insert(u, v, rng.next_double());
  }
  // The writer thread should pick these up on its own.
  for (int spin = 0; spin < 200 && svc.pending_updates() > 0; ++spin)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  svc.stop_writer();
  EXPECT_EQ(svc.pending_updates(), 0u);
  EXPECT_GE(svc.epoch(), 1u);
  EXPECT_GT(svc.snapshot()->num_tree_edges(), 0u);
}

namespace {

/// Seed an 8-shard service (stride 8) with intra edges in every shard
/// plus sub-tau cross edges whose endpoints span all shards, so a
/// refresh at tau after any shard's churn must re-resolve.
void seed_eight_shards(SldService& svc, par::Rng& rng) {
  for (int k = 0; k < 8; ++k) {
    for (int i = 0; i < 14; ++i) {
      auto [u, v] = test::random_block_pair(rng, static_cast<vertex_id>(k) * 8, 8);
      svc.insert(u, v, rng.next_double() * 0.5);
    }
  }
  for (int k = 0; k < 8; ++k) {  // one sub-tau cross endpoint per shard
    vertex_id u = static_cast<vertex_id>(k) * 8 + rng.next_bounded(8);
    vertex_id v = static_cast<vertex_id>((k + 3) % 8) * 8 + rng.next_bounded(8);
    svc.insert(u, v, 0.1 + 0.3 * rng.next_double());
  }
  svc.flush();
}

}  // namespace

/// The acceptance scenario: with 1 of 8 shards dirty per flush, the
/// flush reuses the 7 clean shard snapshots, and a
/// ThresholdView::refreshed chain (the broker's standing-cache path)
/// re-resolves — the dirty shard hosts a sub-tau cross endpoint — and
/// answers bit-for-bit like a freshly built view.
TEST(ThresholdView, HotShardRefreshReusesCleanShards) {
  const vertex_id n = 64;
  ServiceConfig cfg;
  cfg.num_vertices = n;
  cfg.num_shards = 8;
  cfg.capture_edges = true;
  SldService svc(cfg);
  par::Rng rng = test::test_rng();
  seed_eight_shards(svc, rng);

  const double tau = 0.6;
  // Initial full resolution.
  auto tv = std::make_shared<const ThresholdView>(svc.snapshot(), tau);

  for (int round = 0; round < 6; ++round) {
    // Churn confined to shard 0: intra edges over vertices [0, 8).
    for (int i = 0; i < 10; ++i) {
      auto [u, v] = test::random_block_pair(rng, 0, 8);
      svc.insert(u, v, rng.next_double());
    }
    auto before = svc.stats();
    svc.flush();
    EXPECT_GT(svc.epoch(), tv->epoch());
    EXPECT_EQ(svc.stats().shard_snapshots_reused - before.shard_snapshots_reused,
              7u);
    // The published delta records the flush's footprint: shard 0
    // rebuilt, the rest untouched, no cross churn.
    {
      const EpochDelta& d = svc.snapshot()->delta();
      EXPECT_EQ(d.num_rebuilt(), 1);
      EXPECT_EQ(d.shard_rebuilt[0], 1);
      EXPECT_EQ(d.cross_min_w, std::numeric_limits<double>::infinity());
    }
    auto snap = svc.snapshot();
    before = svc.stats();
    tv = ThresholdView::refreshed(tv, snap);
    auto after = svc.stats();
    // The prefix held but shard 0 hosts a sub-tau cross endpoint, so
    // the resolution is rebuilt, not shared.
    EXPECT_EQ(after.refresh_views_incremental - before.refresh_views_incremental,
              1u);
    EXPECT_EQ(after.refresh_views_reused, before.refresh_views_reused);
    EXPECT_EQ(after.refresh_views_full, before.refresh_views_full);

    // Bit-for-bit against a freshly resolved view, and against the
    // Kruskal oracle.
    ASSERT_EQ(tv->epoch(), snap->epoch());
    ThresholdView fresh(snap, tau);
    EXPECT_EQ(tv->flat_clustering(), fresh.flat_clustering());
    EXPECT_EQ(tv->size_histogram(), fresh.size_histogram());
    auto ref = reference_labels(n, snap->captured_edges(), tau);
    expect_same_partition(ref, tv->flat_clustering());
    for (int q = 0; q < 40; ++q) {
      auto [s, t] = test::random_distinct_pair(rng, n);
      EXPECT_EQ(tv->same_cluster(s, t), ref[s] == ref[t]) << "s=" << s << " t=" << t;
      EXPECT_EQ(tv->cluster_size(s), ref_cluster_size(ref, s));
    }
  }
}

/// A dirty shard that hosts no sub-tau cross endpoint cannot change the
/// resolution: the refresh shares it wholesale, and the reused view
/// still answers the dirty shard's own clusters from the new snapshot.
TEST(ThresholdView, DirtyShardWithoutSubTauEndpointKeepsResolution) {
  const vertex_id n = 64;
  ServiceConfig cfg;
  cfg.num_vertices = n;
  cfg.num_shards = 8;
  cfg.capture_edges = true;
  SldService svc(cfg);
  par::Rng rng = test::test_rng();
  for (int k = 0; k < 8; ++k) {
    for (int i = 0; i < 14; ++i) {
      auto [u, v] = test::random_block_pair(rng, static_cast<vertex_id>(k) * 8, 8);
      svc.insert(u, v, rng.next_double() * 0.5);
    }
  }
  // Sub-tau cross edges among shards 1..7 only; shard 0's one cross
  // edge sits above tau.
  const double tau = 0.6;
  for (int k = 1; k < 8; ++k)
    svc.insert(static_cast<vertex_id>(k) * 8 + rng.next_bounded(8),
               static_cast<vertex_id>(k % 7 + 1) * 8 + rng.next_bounded(8),
               0.1 + 0.3 * rng.next_double());
  svc.insert(3, 45, 0.9);
  svc.flush();
  auto tv = std::make_shared<const ThresholdView>(svc.snapshot(), tau);
  ASSERT_GT(tv->num_cross_groups(), 0u);

  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 10; ++i) {
      auto [u, v] = test::random_block_pair(rng, 0, 8);
      svc.insert(u, v, rng.next_double());
    }
    svc.flush();
    auto snap = svc.snapshot();
    ASSERT_EQ(snap->delta().num_rebuilt(), 1);
    ASSERT_EQ(snap->delta().shard_rebuilt[0], 1);
    auto before = svc.stats();
    tv = ThresholdView::refreshed(tv, snap);
    auto after = svc.stats();
    EXPECT_EQ(after.refresh_views_reused - before.refresh_views_reused, 1u);
    EXPECT_EQ(after.refresh_views_incremental, before.refresh_views_incremental);
    EXPECT_EQ(after.refresh_views_full, before.refresh_views_full);
    EXPECT_EQ(after.views_built, before.views_built);

    ASSERT_EQ(tv->epoch(), snap->epoch());
    ThresholdView fresh(snap, tau);
    EXPECT_EQ(tv->flat_clustering(), fresh.flat_clustering());
    EXPECT_EQ(tv->size_histogram(), fresh.size_histogram());
    EXPECT_EQ(tv->num_clusters(), fresh.num_clusters());
    auto ref = reference_labels(n, snap->captured_edges(), tau);
    expect_same_partition(ref, tv->flat_clustering());
    for (vertex_id s = 0; s < n; ++s) {
      const vertex_id t = static_cast<vertex_id>(rng.next_bounded(n));
      EXPECT_EQ(tv->same_cluster(s, t), ref[s] == ref[t]) << "s=" << s << " t=" << t;
      EXPECT_EQ(tv->cluster_size(s), ref_cluster_size(ref, s)) << "s=" << s;
    }
  }
}

/// Cross-edge churn strictly above the threshold keeps the sub-tau
/// prefix intact: the single-step delta proves it and the refresh does
/// not count as full; churn at or below tau forces the full re-resolve.
TEST(ThresholdView, CrossDeltaGatesFullResolve) {
  const vertex_id n = 64;
  ServiceConfig cfg;
  cfg.num_vertices = n;
  cfg.num_shards = 8;
  cfg.capture_edges = true;
  SldService svc(cfg);
  par::Rng rng = test::test_rng();
  seed_eight_shards(svc, rng);

  const double tau = 0.6;
  auto tv = std::make_shared<const ThresholdView>(svc.snapshot(), tau);

  // A cross edge above tau: the delta's cross_min_w exceeds tau, so the
  // resolution survives (no full rebuild).
  svc.insert(2, 50, 0.9);
  svc.flush();
  EXPECT_GT(svc.snapshot()->delta().cross_min_w, tau);
  auto before = svc.stats();
  tv = ThresholdView::refreshed(tv, svc.snapshot());
  auto after = svc.stats();
  EXPECT_EQ(after.refresh_views_full, before.refresh_views_full);
  EXPECT_EQ(after.refresh_views_reused +
                after.refresh_views_incremental -
                before.refresh_views_reused - before.refresh_views_incremental,
            1u);

  // A cross edge below tau changes the prefix: full re-resolve.
  svc.insert(3, 40, 0.2);
  svc.flush();
  before = svc.stats();
  tv = ThresholdView::refreshed(tv, svc.snapshot());
  after = svc.stats();
  EXPECT_EQ(after.refresh_views_full - before.refresh_views_full, 1u);

  // Either way the refreshed view matches a fresh one exactly.
  auto snap = svc.snapshot();
  ASSERT_EQ(tv->epoch(), snap->epoch());
  ThresholdView fresh(snap, tau);
  EXPECT_EQ(tv->flat_clustering(), fresh.flat_clustering());
  auto ref = reference_labels(n, snap->captured_edges(), tau);
  expect_same_partition(ref, tv->flat_clustering());
}

/// The hub contract the broker relies on: a registered callback fires
/// on every notify, and once remove() returns it never fires again —
/// even while another thread keeps notifying — while the remaining
/// registrations keep firing.
TEST(SubscriptionHub, CallbackFiresOnNotifyAndNeverAfterRemove) {
  SubscriptionHub hub;
  EpochManager::Snap snap;  // callbacks here only count
  std::atomic<uint64_t> fired{0}, other{0}, after_remove{0};
  std::atomic<bool> removed{false};
  auto token = hub.add([&](const EpochManager::Snap&) {
    fired.fetch_add(1, std::memory_order_relaxed);
    if (removed.load(std::memory_order_acquire))
      after_remove.fetch_add(1, std::memory_order_relaxed);
  });
  hub.add([&](const EpochManager::Snap&) {
    other.fetch_add(1, std::memory_order_relaxed);
  });
  hub.notify(snap);
  EXPECT_EQ(fired.load(), 1u);
  EXPECT_EQ(other.load(), 1u);

  std::atomic<bool> stop{false};
  std::thread notifier([&] {
    while (!stop.load(std::memory_order_relaxed)) hub.notify(snap);
  });
  while (fired.load(std::memory_order_relaxed) < 50) std::this_thread::yield();
  hub.remove(token);  // barrier: serialized with in-flight notifies
  removed.store(true, std::memory_order_release);
  const uint64_t other_at_remove = other.load();
  while (other.load(std::memory_order_relaxed) < other_at_remove + 50)
    std::this_thread::yield();
  stop.store(true, std::memory_order_relaxed);
  notifier.join();

  EXPECT_EQ(after_remove.load(), 0u);
  const uint64_t final_fired = fired.load();
  hub.notify(snap);
  EXPECT_EQ(fired.load(), final_fired);
  hub.remove(token);  // removing twice is a no-op
}

}  // namespace
}  // namespace dynsld::engine

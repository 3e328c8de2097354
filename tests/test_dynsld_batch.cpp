// Theorem 1.5 equivalence tests: batch insertions (tree contraction +
// Star-Merge, and the insert_batch front door that sends small batches
// through Thm 1.2 singletons) and batch deletions against the Kruskal
// reference, across batch sizes, forest shapes, and spine indices; plus
// the batch-based parallel static construction.
#include <gtest/gtest.h>

#include <algorithm>

#include "dendrogram/static_sld.hpp"
#include "dynsld/dyn_sld.hpp"
#include "graph/generators.hpp"
#include "parallel/random.hpp"
#include "parallel/stats.hpp"
#include "test_util.hpp"

namespace dynsld {
namespace {

using par::Rng;

void expect_matches_reference(DynSLD& s) {
  auto live = s.edges();
  Dendrogram want = build_kruskal(s.num_vertices(), live);
  ASSERT_DENDRO_EQ(s.dendrogram(), want);
  s.check_invariants();
}

std::vector<DynSLD::EdgeInsert> to_batch(std::span<const WeightedEdge> edges) {
  std::vector<DynSLD::EdgeInsert> b;
  b.reserve(edges.size());
  for (const auto& e : edges) b.push_back({e.u, e.v, e.weight});
  return b;
}

struct BatchParam {
  const char* name;
  SpineIndex index;
  bool star_merge;  // insert_batch_star_merge, else the insert_batch front door
};

class BatchCombo : public ::testing::TestWithParam<BatchParam> {
 protected:
  std::vector<edge_id> insert_batch(DynSLD& s, std::span<const DynSLD::EdgeInsert> b) {
    return GetParam().star_merge ? s.insert_batch_star_merge(b) : s.insert_batch(b);
  }
};

TEST_P(BatchCombo, WholeTreeAsOneBatch) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    gen::Forest f = gen::random_tree(60, seed);
    DynSLD s(f.n, GetParam().index);
    auto ids = insert_batch(s, to_batch(f.edges));
    EXPECT_EQ(ids.size(), f.edges.size());
    expect_matches_reference(s);
  }
}

TEST_P(BatchCombo, IncrementalBatches) {
  // Insert a random tree in chunks of growing size.
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    gen::Forest f = gen::random_tree(80, seed);
    Rng rng(seed * 13);
    auto order = f.edges;
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.next_bounded(i)]);
    }
    DynSLD s(f.n, GetParam().index);
    size_t pos = 0, chunk = 1;
    while (pos < order.size()) {
      size_t hi = std::min(order.size(), pos + chunk);
      std::span<const WeightedEdge> part(order.data() + pos, hi - pos);
      insert_batch(s, to_batch(part));
      expect_matches_reference(s);
      pos = hi;
      chunk = chunk * 2 + 1;
    }
  }
}

TEST_P(BatchCombo, StarPatternManySatellitesOneCenter) {
  // All batch edges share one center component: a single Star-Merge.
  const vertex_id spokes = 12;
  gen::Forest center = gen::random_tree(20, 3);
  DynSLD s(center.n + spokes * 6, GetParam().index);
  for (const auto& e : center.edges) s.insert(e.u, e.v, e.weight);
  // Each satellite is a small path; batch edges attach them to random
  // center vertices.
  std::vector<DynSLD::EdgeInsert> batch;
  Rng rng(99);
  for (vertex_id i = 0; i < spokes; ++i) {
    vertex_id base = center.n + i * 6;
    for (vertex_id j = 0; j + 1 < 6; ++j) {
      s.insert(base + j, base + j + 1,
               static_cast<double>(1000 + rng.next_bounded(5000)));
    }
    vertex_id y = static_cast<vertex_id>(rng.next_bounded(center.n));
    batch.push_back({base, y, static_cast<double>(rng.next_bounded(10000))});
  }
  insert_batch(s, batch);
  expect_matches_reference(s);
}

TEST_P(BatchCombo, SatellitesAtTheSameCenterVertex) {
  // Multiple satellites hitting the same center vertex y exercise the
  // per-vertex sub-bottom groups of Star-Merge.
  DynSLD s(40, GetParam().index);
  // Center: a path 0..9 with mid-range weights.
  for (vertex_id i = 0; i + 1 < 10; ++i) {
    s.insert(i, i + 1, 100.0 + i);
  }
  // Satellites: chains 10.., each connecting to center vertex 4, with
  // batch edge weights both below and above the center's edge weights.
  std::vector<DynSLD::EdgeInsert> batch;
  double wts[] = {1.0, 2.0, 500.0, 50.0};
  for (int k = 0; k < 4; ++k) {
    vertex_id base = static_cast<vertex_id>(10 + k * 5);
    for (vertex_id j = 0; j + 1 < 5; ++j) {
      s.insert(base + j, base + j + 1, 200.0 + k * 10 + j);
    }
    batch.push_back({base, 4, wts[k]});
  }
  insert_batch(s, batch);
  expect_matches_reference(s);
}

TEST_P(BatchCombo, ChainOfComponents) {
  // The incidence graph is a long path: stresses multi-round tree
  // contraction (rake-only progress would need Omega(k) rounds).
  const int comps = 17, size = 4;
  DynSLD s(comps * size, GetParam().index);
  Rng rng(5);
  for (int c = 0; c < comps; ++c) {
    vertex_id base = static_cast<vertex_id>(c * size);
    for (vertex_id j = 0; j + 1 < size; ++j) {
      s.insert(base + j, base + j + 1,
               static_cast<double>(rng.next_bounded(100000)));
    }
  }
  std::vector<DynSLD::EdgeInsert> batch;
  for (int c = 0; c + 1 < comps; ++c) {
    batch.push_back({static_cast<vertex_id>(c * size + size - 1),
                     static_cast<vertex_id>((c + 1) * size),
                     static_cast<double>(rng.next_bounded(100000))});
  }
  insert_batch(s, batch);
  expect_matches_reference(s);
}

TEST_P(BatchCombo, BatchIntoEmptyForest) {
  // Every component is a single vertex; centers may be edgeless
  // (the all-spines-merge-together path of Star-Merge).
  gen::Forest f = gen::random_tree(30, 8);
  DynSLD s(f.n, GetParam().index);
  insert_batch(s, to_batch(f.edges));
  expect_matches_reference(s);
}

TEST_P(BatchCombo, BatchDeleteRandomSubsets) {
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    gen::Forest f = gen::random_tree(70, seed);
    DynSLD s(f.n, GetParam().index);
    std::vector<edge_id> ids;
    for (const auto& e : f.edges) ids.push_back(s.insert(e.u, e.v, e.weight));
    Rng rng(seed * 71);
    for (size_t i = ids.size(); i > 1; --i) {
      std::swap(ids[i - 1], ids[rng.next_bounded(i)]);
    }
    size_t pos = 0, chunk = 2;
    while (pos < ids.size()) {
      size_t hi = std::min(ids.size(), pos + chunk);
      std::span<const edge_id> part(ids.data() + pos, hi - pos);
      s.erase_batch(part);
      expect_matches_reference(s);
      pos = hi;
      chunk = chunk * 2;
    }
    EXPECT_EQ(s.num_edges(), 0u);
  }
}

TEST_P(BatchCombo, BatchDeletePathChunks) {
  // Deleting contiguous chunks of a path: heavily overlapping spines,
  // the dedup path of apply_changes_tracked.
  for (auto weights : {gen::Weights::kIncreasing, gen::Weights::kRandom}) {
    gen::Forest f = gen::path(50, weights, 11);
    DynSLD s(f.n, GetParam().index);
    std::vector<edge_id> ids;
    for (const auto& e : f.edges) ids.push_back(s.insert(e.u, e.v, e.weight));
    // Delete the middle third at once.
    std::vector<edge_id> mid(ids.begin() + 16, ids.begin() + 33);
    s.erase_batch(mid);
    expect_matches_reference(s);
    // Then everything else at once.
    std::vector<edge_id> rest(ids.begin(), ids.begin() + 16);
    rest.insert(rest.end(), ids.begin() + 33, ids.end());
    s.erase_batch(rest);
    expect_matches_reference(s);
  }
}

TEST_P(BatchCombo, MixedBatchLifecycle) {
  // Alternating batch inserts and batch deletes on a persistent forest.
  const vertex_id n = 48;
  Rng rng(123);
  DynSLD s(n, GetParam().index);
  std::vector<edge_id> live;
  for (int round = 0; round < 25; ++round) {
    // Batch insert up to 6 random valid edges.
    std::vector<DynSLD::EdgeInsert> batch;
    UnionFind uf(n);
    for (edge_id e : live) {
      auto ed = s.edge(e);
      uf.unite(ed.u, ed.v);
    }
    for (int t = 0; t < 18 && batch.size() < 6; ++t) {
      vertex_id u = static_cast<vertex_id>(rng.next_bounded(n));
      vertex_id v = static_cast<vertex_id>(rng.next_bounded(n));
      if (u == v || uf.connected(u, v)) continue;
      uf.unite(u, v);
      batch.push_back({u, v, static_cast<double>(rng.next_bounded(100000))});
    }
    auto ids = insert_batch(s, batch);
    live.insert(live.end(), ids.begin(), ids.end());
    expect_matches_reference(s);
    // Batch delete a random ~third.
    std::vector<edge_id> del;
    std::vector<edge_id> keep;
    for (edge_id e : live) {
      if (rng.next_bounded(3) == 0) {
        del.push_back(e);
      } else {
        keep.push_back(e);
      }
    }
    s.erase_batch(del);
    live = std::move(keep);
    expect_matches_reference(s);
  }
}

TEST_P(BatchCombo, OneEdgeBatchesMatchReference) {
  // One-edge batches take the single-insert branch (Thm 1.2 with a
  // spine index, Thm 1.1 without) or a one-satellite Star-Merge, and
  // one-edge erases take Thm 1.1; the dendrogram must not care.
  const vertex_id n = 40;
  Rng rng(77);
  DynSLD s(n, GetParam().index);
  UnionFind uf(n);
  std::vector<edge_id> live;
  for (int t = 0; t < 200 && live.size() + 1 < n; ++t) {
    vertex_id u = static_cast<vertex_id>(rng.next_bounded(n));
    vertex_id v = static_cast<vertex_id>(rng.next_bounded(n));
    if (u == v || uf.connected(u, v)) continue;
    uf.unite(u, v);
    std::vector<DynSLD::EdgeInsert> one{{u, v, static_cast<double>(rng.next_bounded(1000))}};
    auto ids = insert_batch(s, one);
    ASSERT_EQ(ids.size(), 1u);
    live.push_back(ids[0]);
    expect_matches_reference(s);
  }
  for (size_t i = 0; i < live.size(); i += 3) {
    std::vector<edge_id> del{live[i]};
    s.erase_batch(del);
    expect_matches_reference(s);
  }
}

TEST_P(BatchCombo, NestedCutsOnOneSpine) {
  // Consecutive edges of one root-to-leaf path of a layered tree, whose
  // weights ascend toward the root: the cut edges nest below one another
  // on one spine. Cut at the leaf end, every small piece fits the
  // labeling budget; cut at the root end, the pieces hold hundreds of
  // vertices each and the side tests fall back to the connectivity
  // forest.
  gen::Forest f = test::layered_binary_tree(11, {7, 2}, 3);
  const vertex_id leaf = (vertex_id{1} << 12) - 2;
  for (bool labeled : {true, false}) {
    DynSLD s(f.n, GetParam().index);
    std::vector<edge_id> ids;
    for (const auto& e : f.edges) ids.push_back(s.insert(e.u, e.v, e.weight));
    // The edge above vertex v (v >= 1) has id v - 1.
    std::vector<edge_id> cut;
    for (vertex_id v = labeled ? leaf : 7; cut.size() < 3; v = (v - 1) / 2) {
      cut.push_back(ids[v - 1]);
    }
    stats::counters().reset();
    s.erase_batch(cut);
    if (labeled) {
      EXPECT_EQ(stats::counters().connectivity_queries.load(), 0u);
      EXPECT_GT(stats::counters().side_tests_labeled.load(), 0u);
    } else {
      EXPECT_GT(stats::counters().connectivity_queries.load(), 0u);
    }
    expect_matches_reference(s);
  }
}

INSTANTIATE_TEST_SUITE_P(Indices, BatchCombo,
                         ::testing::Values(BatchParam{"ptr", SpineIndex::kPointer, false},
                                           BatchParam{"lct", SpineIndex::kLct, false},
                                           BatchParam{"rc", SpineIndex::kRc, false},
                                           BatchParam{"ptr_star", SpineIndex::kPointer, true},
                                           BatchParam{"lct_star", SpineIndex::kLct, true},
                                           BatchParam{"rc_star", SpineIndex::kRc, true}),
                         [](const auto& info) { return info.param.name; });

TEST(BatchStatic, BuildBatchParallelMatchesKruskal) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    gen::Forest f = gen::random_tree(120, seed);
    Dendrogram got = build_batch_parallel(f.n, f.edges);
    Dendrogram want = build_kruskal(f.n, f.edges);
    ASSERT_DENDRO_EQ(got, want);
  }
  for (auto weights : {gen::Weights::kIncreasing, gen::Weights::kBalanced}) {
    gen::Forest f = gen::path(100, weights, 2);
    ASSERT_DENDRO_EQ(build_batch_parallel(f.n, f.edges),
                     build_kruskal(f.n, f.edges));
  }
  gen::Forest f = gen::lower_bound_stars(10, 6);
  ASSERT_DENDRO_EQ(build_batch_parallel(f.n, f.edges),
                   build_kruskal(f.n, f.edges));
}

TEST(BatchEdgeCases, EmptyAndSingleton) {
  DynSLD s(4, SpineIndex::kLct);
  EXPECT_TRUE(s.insert_batch({}).empty());
  std::vector<DynSLD::EdgeInsert> one{{0, 1, 3.0}};
  auto ids = s.insert_batch(one);
  ASSERT_EQ(ids.size(), 1u);
  EXPECT_TRUE(s.edge_alive(ids[0]));
  s.erase_batch({});
  std::vector<edge_id> del{ids[0]};
  s.erase_batch(del);
  EXPECT_EQ(s.num_edges(), 0u);
}

}  // namespace
}  // namespace dynsld

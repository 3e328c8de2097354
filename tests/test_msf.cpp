// End-to-end pipeline tests (Problem 2): the maintained forest must be
// exactly the MSF of the live graph under the (weight, id) order after
// every update, and the dendrogram queries must match brute-force
// threshold clustering of the *graph*.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>

#include "dendrogram/static_sld.hpp"
#include "graph/generators.hpp"
#include "msf/dynamic_msf.hpp"
#include "parallel/random.hpp"

namespace dynsld {
namespace {

using par::Rng;

struct GraphOracle {
  vertex_id n;
  // alive graph edges keyed by handle
  std::map<uint32_t, WeightedEdge> edges;

  /// Kruskal MSF under (w, id): returns sorted (u,v,w,id) list.
  std::vector<WeightedEdge> msf() const {
    std::vector<WeightedEdge> es;
    for (const auto& [id, e] : edges) es.push_back(e);
    std::sort(es.begin(), es.end(), [](const WeightedEdge& a, const WeightedEdge& b) {
      return a.rank() < b.rank();
    });
    UnionFind uf(n);
    std::vector<WeightedEdge> out;
    for (const auto& e : es) {
      if (!uf.connected(e.u, e.v)) {
        uf.unite(e.u, e.v);
        out.push_back(e);
      }
    }
    std::sort(out.begin(), out.end(), [](const WeightedEdge& a, const WeightedEdge& b) {
      return a.id < b.id;
    });
    return out;
  }

  bool same_cluster(vertex_id s, vertex_id t, double tau) const {
    UnionFind uf(n);
    for (const auto& [id, e] : edges) {
      if (e.weight <= tau) uf.unite(e.u, e.v);
    }
    return uf.connected(s, t);
  }
};

void expect_forest_is_msf(DynamicClustering& dc, const GraphOracle& oracle) {
  auto got = dc.forest_edges();
  std::sort(got.begin(), got.end(), [](const WeightedEdge& a, const WeightedEdge& b) {
    return a.id < b.id;
  });
  auto want = oracle.msf();
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].id, want[i].id) << "forest edge " << i;
    EXPECT_EQ(got[i].weight, want[i].weight);
  }
}

class MsfRandom : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MsfRandom, ForestAlwaysMsf) {
  const vertex_id n = 24;
  Rng rng(GetParam());
  DynamicClustering dc(n);
  GraphOracle oracle{n, {}};
  std::vector<uint32_t> live;
  for (int step = 0; step < 300; ++step) {
    bool ins = live.empty() || rng.next_bounded(10) < 6;
    if (ins) {
      vertex_id u = static_cast<vertex_id>(rng.next_bounded(n));
      vertex_id v = static_cast<vertex_id>(rng.next_bounded(n));
      if (u == v) continue;
      double w = static_cast<double>(rng.next_bounded(1000));
      auto g = dc.insert_edge(u, v, w);
      oracle.edges[g] = WeightedEdge{u, v, w, g};
      live.push_back(g);
    } else {
      size_t i = rng.next_bounded(live.size());
      dc.erase_edge(live[i]);
      oracle.edges.erase(live[i]);
      live.erase(live.begin() + static_cast<long>(i));
    }
    expect_forest_is_msf(dc, oracle);
    // The dendrogram must equal the Kruskal SLD of the forest.
    auto fe = dc.sld().edges();
    ASSERT_TRUE(dc.dendrogram() == build_kruskal(n, fe));
  }
}

TEST_P(MsfRandom, ThresholdQueriesMatchGraph) {
  const vertex_id n = 18;
  Rng rng(GetParam() + 100);
  DynamicClustering dc(n);
  GraphOracle oracle{n, {}};
  std::vector<uint32_t> live;
  for (int step = 0; step < 150; ++step) {
    bool ins = live.empty() || rng.next_bounded(10) < 7;
    if (ins) {
      vertex_id u = static_cast<vertex_id>(rng.next_bounded(n));
      vertex_id v = static_cast<vertex_id>(rng.next_bounded(n));
      if (u == v) continue;
      double w = static_cast<double>(rng.next_bounded(100));
      auto g = dc.insert_edge(u, v, w);
      oracle.edges[g] = WeightedEdge{u, v, w, g};
      live.push_back(g);
    } else {
      size_t i = rng.next_bounded(live.size());
      dc.erase_edge(live[i]);
      oracle.edges.erase(live[i]);
      live.erase(live.begin() + static_cast<long>(i));
    }
    // Single-linkage clustering of the graph == of its MSF: spot-check
    // threshold queries at several taus.
    for (double tau : {10.0, 35.0, 70.0, 99.0}) {
      vertex_id s = static_cast<vertex_id>(rng.next_bounded(n));
      vertex_id t = static_cast<vertex_id>(rng.next_bounded(n));
      EXPECT_EQ(dc.sld().same_cluster(s, t, tau), oracle.same_cluster(s, t, tau))
          << "tau " << tau << " step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, MsfRandom, ::testing::Range<uint64_t>(1, 7));

TEST(Msf, GeometricGraphLifecycle) {
  gen::Graph g = gen::random_geometric(60, 0.25, 3);
  DynamicClustering dc(g.n);
  GraphOracle oracle{g.n, {}};
  std::vector<uint32_t> handles;
  for (const auto& e : g.edges) {
    auto h = dc.insert_edge(e.u, e.v, e.weight);
    oracle.edges[h] = WeightedEdge{e.u, e.v, e.weight, h};
    handles.push_back(h);
  }
  expect_forest_is_msf(dc, oracle);
  // Remove a third, verify, reinsert.
  Rng rng(12);
  for (size_t i = 0; i < handles.size(); i += 3) {
    dc.erase_edge(handles[i]);
    oracle.edges.erase(handles[i]);
  }
  expect_forest_is_msf(dc, oracle);
}

TEST(Msf, ParallelEdgesAndDuplicates) {
  DynamicClustering dc(4);
  auto a = dc.insert_edge(0, 1, 5);
  auto b = dc.insert_edge(0, 1, 3);  // lighter parallel edge: swaps in
  EXPECT_TRUE(dc.is_tree_edge(b));
  EXPECT_FALSE(dc.is_tree_edge(a));
  auto c = dc.insert_edge(0, 1, 4);  // middle: stays non-tree
  EXPECT_FALSE(dc.is_tree_edge(c));
  dc.erase_edge(b);  // replacement must pick c (4 < 5)
  EXPECT_TRUE(dc.is_tree_edge(c));
  EXPECT_FALSE(dc.is_tree_edge(a));
  dc.erase_edge(c);
  EXPECT_TRUE(dc.is_tree_edge(a));
  dc.erase_edge(a);
  EXPECT_EQ(dc.num_tree_edges(), 0u);
}

// ---- batch API: insert_edges / erase_edges ----

void expect_batch_state(DynamicClustering& dc, const GraphOracle& oracle) {
  expect_forest_is_msf(dc, oracle);
  auto fe = dc.sld().edges();
  ASSERT_TRUE(dc.dendrogram() == build_kruskal(dc.num_vertices(), fe));
}

// Forest weight and vertex partition of the maintained forest equal
// the Kruskal forest's: it is *a* minimum spanning forest.
void expect_minimum_forest(DynamicClustering& dc, const GraphOracle& oracle) {
  auto got = dc.forest_edges();
  auto want = oracle.msf();
  ASSERT_EQ(got.size(), want.size());
  double wg = 0, ww = 0;
  UnionFind ug(dc.num_vertices()), uw(dc.num_vertices());
  for (const WeightedEdge& e : got) wg += e.weight, ug.unite(e.u, e.v);
  for (const WeightedEdge& e : want) ww += e.weight, uw.unite(e.u, e.v);
  EXPECT_EQ(wg, ww);
  for (vertex_id v = 0; v < dc.num_vertices(); ++v)
    EXPECT_EQ(ug.find(v) == ug.find(0), uw.find(v) == uw.find(0)) << "v " << v;
  auto fe = dc.sld().edges();
  ASSERT_TRUE(dc.dendrogram() == build_kruskal(dc.num_vertices(), fe));
}

// Random insert and erase batches; erase batches draw from all live
// edges, so they mix tree and non-tree edges and often cut one
// component several times. `weights` > 0 draws integer weights below
// it (ties); 0 draws distinct real weights.
void run_batches(uint64_t seed, uint64_t weights,
                 void (*check)(DynamicClustering&, const GraphOracle&)) {
  const vertex_id n = 20;
  Rng rng(seed);
  DynamicClustering dc(n);
  GraphOracle oracle{n, {}};
  std::vector<uint32_t> live;
  for (int step = 0; step < 120; ++step) {
    const size_t k = 1 + rng.next_bounded(8);
    if (live.size() < 3 * n || rng.next_bounded(2) == 0) {
      std::vector<DynamicClustering::EdgeUpdate> batch;
      while (batch.size() < k) {
        vertex_id u = static_cast<vertex_id>(rng.next_bounded(n));
        vertex_id v = static_cast<vertex_id>(rng.next_bounded(n));
        double w = weights ? static_cast<double>(rng.next_bounded(weights))
                           : rng.next_double();
        if (u != v) batch.push_back({u, v, w});
      }
      auto hs = dc.insert_edges(batch);
      ASSERT_EQ(hs.size(), batch.size());
      for (size_t i = 0; i < hs.size(); ++i) {
        oracle.edges[hs[i]] = WeightedEdge{batch[i].u, batch[i].v, batch[i].w, hs[i]};
        live.push_back(hs[i]);
      }
    } else {
      std::vector<uint32_t> batch;
      for (size_t i = 0; i < k && !live.empty(); ++i) {
        size_t j = rng.next_bounded(live.size());
        batch.push_back(live[j]);
        oracle.edges.erase(live[j]);
        live[j] = live.back();
        live.pop_back();
      }
      const uint64_t labeled = dc.search_stats().vertices_labeled;
      dc.erase_edges(batch);
      // One labeling per batch: no vertex is labeled twice.
      EXPECT_LE(dc.search_stats().vertices_labeled - labeled, n);
    }
    check(dc, oracle);
    ASSERT_FALSE(::testing::Test::HasFailure()) << "step " << step;
  }
  EXPECT_GT(dc.search_stats().replacements, 0u);
}

class MsfBatchRandom : public ::testing::TestWithParam<uint64_t> {};

TEST_P(MsfBatchRandom, ForestAlwaysMsf) {
  run_batches(GetParam() + 500, 0, expect_batch_state);
}

// Tied weights: the single-edge swap compares the DynSLD path maximum,
// which breaks weight ties by forest-edge id, not graph-edge id, so the
// forest is a minimum one but not always the (weight, graph id) one.
TEST_P(MsfBatchRandom, TiedWeightsKeepAMinimumForest) {
  run_batches(GetParam() + 900, 6, expect_minimum_forest);
}

INSTANTIATE_TEST_SUITE_P(Seeds, MsfBatchRandom, ::testing::Range<uint64_t>(1, 9));

// Inserts `edges` one by one (so tree/non-tree roles follow the
// weights) and mirrors them into the oracle; returns the handles.
std::vector<uint32_t> insert_all(DynamicClustering& dc, GraphOracle& oracle,
                                 std::initializer_list<WeightedEdge> edges) {
  std::vector<uint32_t> hs;
  for (const WeightedEdge& e : edges) {
    auto g = dc.insert_edge(e.u, e.v, e.weight);
    oracle.edges[g] = WeightedEdge{e.u, e.v, e.weight, g};
    hs.push_back(g);
  }
  return hs;
}

// Path 0-1-2-3-4-5 cut at 1-2 and 3-4 in one batch: three pieces of
// one component, rejoined by a Kruskal pass over the crossing edges.
TEST(MsfBatch, TwoCutsLeaveThreePieces) {
  DynamicClustering dc(6);
  GraphOracle oracle{6, {}};
  auto h = insert_all(dc, oracle,
                      {{0, 1, 1, 0}, {1, 2, 1, 0}, {2, 3, 1, 0}, {3, 4, 1, 0},
                       {4, 5, 1, 0}, {1, 3, 4, 0}, {0, 2, 5, 0}, {2, 4, 6, 0},
                       {0, 5, 7, 0}});
  const DynamicClustering::SearchStats before = dc.search_stats();
  std::vector<uint32_t> batch = {h[1], h[3], h[6]};  // two cuts + (0, 2)
  for (uint32_t g : batch) oracle.edges.erase(g);
  dc.erase_edges(batch);
  expect_batch_state(dc, oracle);
  const DynamicClustering::SearchStats& after = dc.search_stats();
  EXPECT_EQ(after.tree_cuts - before.tree_cuts, 2u);
  // Pieces {0,1}, {2,3}, {4,5}: the largest (a tie) is never labeled.
  EXPECT_EQ(after.vertices_labeled - before.vertices_labeled, 4u);
  EXPECT_EQ(after.replacements - before.replacements, 2u);
  EXPECT_TRUE(dc.is_tree_edge(h[5]));   // (1, 3) w4
  EXPECT_TRUE(dc.is_tree_edge(h[7]));   // (2, 4) w6
  EXPECT_FALSE(dc.is_tree_edge(h[8]));  // (0, 5) w7 closes a cycle
}

// (0, 3) crosses both cuts of one batch and is the lightest candidate
// for each; it can replace only one of them. A per-cut minimum would
// pick it twice.
TEST(MsfBatch, OneEdgeBestForSeveralCuts) {
  DynamicClustering dc(4);
  GraphOracle oracle{4, {}};
  auto h = insert_all(dc, oracle,
                      {{0, 1, 1, 0}, {1, 2, 1, 0}, {2, 3, 1, 0}, {0, 3, 2, 0},
                       {1, 3, 5, 0}, {0, 2, 9, 0}});
  std::vector<uint32_t> batch = {h[0], h[2]};
  for (uint32_t g : batch) oracle.edges.erase(g);
  dc.erase_edges(batch);
  expect_batch_state(dc, oracle);
  EXPECT_EQ(dc.num_tree_edges(), 3u);
  EXPECT_TRUE(dc.is_tree_edge(h[3]));
  EXPECT_TRUE(dc.is_tree_edge(h[4]));
  EXPECT_FALSE(dc.is_tree_edge(h[5]));
}

// The batch's own non-tree erases go first; with no non-tree edge left
// alive, its cuts skip the labeling.
TEST(MsfBatch, NoReplacementPossibleSkipsLabeling) {
  DynamicClustering dc(5);
  GraphOracle oracle{5, {}};
  auto h = insert_all(dc, oracle,
                      {{0, 1, 1, 0}, {1, 2, 2, 0}, {2, 3, 3, 0}, {3, 4, 4, 0},
                       {0, 4, 9, 0}});
  std::vector<uint32_t> batch = {h[1], h[4], h[3]};
  for (uint32_t g : batch) oracle.edges.erase(g);
  dc.erase_edges(batch);
  expect_batch_state(dc, oracle);
  EXPECT_EQ(dc.search_stats().tree_cuts, 2u);
  EXPECT_EQ(dc.search_stats().vertices_labeled, 0u);
  EXPECT_EQ(dc.search_stats().nontree_scanned, 0u);
}

}  // namespace

// Test hook into the private piece-labeling stamp, which lives in the
// cut step of the clustering's DynSLD.
class DynSldTestPeer {
 public:
  static uint32_t stamp(const DynSLD& s) { return s.pieces_.stamp_; }
  static void set_stamp(DynSLD& s, uint32_t v) { s.pieces_.stamp_ = v; }
};

struct DynamicClusteringTestPeer {
  static uint32_t stamp(const DynamicClustering& dc) {
    return DynSldTestPeer::stamp(dc.sld());
  }
  static void set_stamp(DynamicClustering& dc, uint32_t s) {
    DynSldTestPeer::set_stamp(dc.sld(), s);
  }
};

namespace {

// The labeling stamp wraps: marks left by the first searches must not
// read as labeled once the counter comes round to their values again.
TEST(MsfBatch, StampWraparoundClearsMarks) {
  const vertex_id n = 16;
  Rng rng(77);
  DynamicClustering dc(n);
  GraphOracle oracle{n, {}};
  std::vector<uint32_t> live;
  auto churn_batch = [&] {
    std::vector<DynamicClustering::EdgeUpdate> ins;
    while (ins.size() < 6) {
      vertex_id u = static_cast<vertex_id>(rng.next_bounded(n));
      vertex_id v = static_cast<vertex_id>(rng.next_bounded(n));
      if (u != v) ins.push_back({u, v, rng.next_double()});
    }
    auto hs = dc.insert_edges(ins);
    for (size_t i = 0; i < hs.size(); ++i) {
      oracle.edges[hs[i]] = WeightedEdge{ins[i].u, ins[i].v, ins[i].w, hs[i]};
      live.push_back(hs[i]);
    }
    std::vector<uint32_t> er;
    for (int i = 0; i < 4; ++i) {
      size_t j = rng.next_bounded(live.size());
      er.push_back(live[j]);
      oracle.edges.erase(live[j]);
      live[j] = live.back();
      live.pop_back();
    }
    dc.erase_edges(er);
    expect_batch_state(dc, oracle);
  };
  for (int b = 0; b < 40; ++b) {
    churn_batch();
    ASSERT_FALSE(::testing::Test::HasFailure()) << "batch " << b;
  }
  // Marks stamped 1..used are left behind.
  const uint32_t used = DynamicClusteringTestPeer::stamp(dc);
  ASSERT_GT(used, 3u);
  DynamicClusteringTestPeer::set_stamp(dc, UINT32_MAX - 1);
  // Run the counter through the wrap and back past every stale value.
  for (int b = 0; b < 400; ++b) {
    churn_batch();
    ASSERT_FALSE(::testing::Test::HasFailure()) << "batch " << b;
    const uint32_t st = DynamicClusteringTestPeer::stamp(dc);
    if (st > used && st < UINT32_MAX - 1) break;
  }
  EXPECT_GT(DynamicClusteringTestPeer::stamp(dc), used);
  EXPECT_LT(DynamicClusteringTestPeer::stamp(dc), UINT32_MAX - 1);
}

}  // namespace
}  // namespace dynsld

// DendrogramSnapshot threshold queries against a naive parent walk.
//
// top_of climbs skew-binary jump pointers; the reference below climbs
// the live dendrogram one parent at a time. Every case checks a fresh
// DendrogramSnapshot::build and a ShardContraction-patched snapshot of
// the same dendrogram, at every distinct node weight exactly (where a
// jump lands on a node whose weight equals tau) plus one threshold
// below the lightest and one above the heaviest node.
//
// ShardContractionOracle drives the patch path the way the router
// does, over a DynamicClustering (MSF + DynSLD) under random batches,
// and pins it byte for byte to a fresh build at every epoch.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <numeric>
#include <memory>
#include <vector>

#include "dynsld/dyn_sld.hpp"
#include "engine/contraction.hpp"
#include "msf/dynamic_msf.hpp"
#include "engine/snapshot.hpp"
#include "persist/bytes.hpp"
#include "persist/checkpoint.hpp"
#include "test_util.hpp"

namespace dynsld::engine {
namespace {

constexpr vertex_id kBase = 100;  // exercise the global-id translation

/// Highest ancestor of e*_v with weight <= tau, one parent at a time;
/// kNoEdge when v is a singleton at tau.
edge_id naive_top(const Dendrogram& d, const std::vector<edge_id>& estar,
                  vertex_id v, double tau) {
  edge_id x = estar[v];
  if (x == kNoEdge || d.node(x).weight > tau) return kNoEdge;
  for (edge_id p;
       (p = d.node(x).parent) != kNoEdge && d.node(p).weight <= tau;)
    x = p;
  return x;
}

/// Compare top_of / same_cluster / cluster_size of `snap` against the
/// naive walk over `sld`'s dendrogram at every interesting tau.
void expect_matches_naive(const DynSLD& sld, const DendrogramSnapshot& snap,
                          par::Rng& rng) {
  const Dendrogram& d = sld.dendrogram();
  const std::vector<edge_id> estar = sld.min_incident_all();
  const vertex_id n = sld.num_vertices();
  std::vector<double> taus;
  for (edge_id e = 0; e < d.capacity(); ++e)
    if (d.alive(e)) taus.push_back(d.node(e).weight);
  ASSERT_FALSE(taus.empty());
  std::sort(taus.begin(), taus.end());
  taus.erase(std::unique(taus.begin(), taus.end()), taus.end());
  const double below = taus.front() - 1.0, above = taus.back() + 1.0;
  taus.push_back(below);
  taus.push_back(above);

  std::vector<edge_id> top(n);
  for (double tau : taus) {
    std::map<edge_id, uint64_t> size;
    for (vertex_id v = 0; v < n; ++v) {
      top[v] = naive_top(d, estar, v, tau);
      if (top[v] != kNoEdge) ++size[top[v]];
    }
    for (vertex_id v = 0; v < n; ++v) {
      // Streamed only when an assertion fails.
      auto at = [&] {
        return testing::Message() << "v " << v << " tau " << tau;
      };
      const int32_t s = snap.top_of(v + kBase, tau);
      if (top[v] == kNoEdge) {
        ASSERT_EQ(s, DendrogramSnapshot::kNoSlot) << at();
        ASSERT_EQ(snap.cluster_size(v + kBase, tau), 1u) << at();
      } else {
        const Dendrogram::Node& nd = d.node(top[v]);
        ASSERT_NE(s, DendrogramSnapshot::kNoSlot) << at();
        ASSERT_EQ(snap.slot_u(s), nd.u + kBase) << at();
        ASSERT_EQ(snap.slot_weight(s), nd.weight) << at();
        ASSERT_EQ(snap.cluster_size(v + kBase, tau), size[top[v]]) << at();
      }
      // Neighbours in id order plus random partners: most pairs at a
      // mid tau are split, the path-shaped inputs keep many joined.
      const vertex_id partners[] = {
          (v + 1) % n, static_cast<vertex_id>(rng.next_bounded(n))};
      for (vertex_id w : partners) {
        const bool same = v == w || (top[v] != kNoEdge && top[v] == top[w]);
        ASSERT_EQ(snap.same_cluster(v + kBase, w + kBase, tau), same)
            << at() << " w " << w;
      }
    }
  }
}

/// Freeze `sld` through a ShardContraction, let `mutate` edit it, then
/// check the patched snapshot and a fresh build of the edited
/// dendrogram against the naive walk — and against each other byte
/// for byte.
template <class Mutate>
void check_fresh_and_patched(DynSLD& sld, Mutate mutate) {
  par::Rng rng = test::test_rng();
  expect_matches_naive(sld, *DendrogramSnapshot::build(sld, kBase), rng);

  ShardContraction contraction;
  ShardContraction::PatchStats ps;
  auto prev = contraction.advance(sld, kBase, nullptr, ps);
  ASSERT_FALSE(ps.patched);
  mutate();
  auto patched = contraction.advance(sld, kBase, prev.get(), ps);
  ASSERT_TRUE(ps.patched);
  auto fresh = DendrogramSnapshot::build(sld, kBase);
  expect_matches_naive(sld, *patched, rng);
  expect_matches_naive(sld, *fresh, rng);
  persist::ByteWriter pa, pb;
  persist::SnapshotCodec::encode_shard(*patched, pa);
  persist::SnapshotCodec::encode_shard(*fresh, pb);
  EXPECT_EQ(pa.bytes(), pb.bytes());
}

/// Hops from node `e` to its root.
size_t depth_of(const Dendrogram& d, edge_id e) {
  size_t h = 0;
  for (; d.node(e).parent != kNoEdge; e = d.node(e).parent) ++h;
  return h;
}

/// Weights ascending along a path: every merge absorbs the previous
/// one, so the dendrogram is one chain of depth m - 1 — the case a
/// per-node jump structure must still answer in O(log h) hops.
TEST(SnapshotTopOf, SortedWeightPathChain) {
  const vertex_id n = 200;
  DynSLD sld(n);
  // The path covers 0..n-2; the patch below extends it to n-1.
  std::vector<edge_id> path;
  for (vertex_id v = 0; v + 2 < n; ++v)
    path.push_back(sld.insert(v, v + 1, static_cast<double>(v)));
  ASSERT_EQ(depth_of(sld.dendrogram(), path.front()), sld.num_edges() - 1);
  check_fresh_and_patched(sld, [&] {
    // Re-weight the top edge and hang a new heaviest edge above it:
    // the dendrogram stays a single chain, one node deeper.
    sld.erase(path.back());
    sld.insert(n - 3, n - 2, static_cast<double>(n));
    sld.insert(n - 2, n - 1, static_cast<double>(n + 1));
    ASSERT_EQ(depth_of(sld.dendrogram(), path.front()), sld.num_edges() - 1);
  });
}

/// Random forest edits through the patch path: a handful of erases and
/// re-links between components.
void random_forest_case(double (*weight)(par::Rng&)) {
  const vertex_id n = 400;
  DynSLD sld(n);
  par::Rng rng = test::test_rng(1);
  std::vector<edge_id> edges;
  for (vertex_id v = 1; v < n; ++v) {
    if (rng.next_double() < 0.1) continue;  // leave a few trees apart
    const vertex_id u = static_cast<vertex_id>(rng.next_bounded(v));
    edges.push_back(sld.insert(u, v, weight(rng)));
  }
  check_fresh_and_patched(sld, [&] {
    for (int i = 0; i < 6; ++i) {
      const size_t j = rng.next_bounded(edges.size());
      sld.erase(edges[j]);
      edges[j] = edges.back();
      edges.pop_back();
    }
    for (int linked = 0; linked < 6;) {
      auto [u, v] = test::random_distinct_pair(rng, n);
      if (sld.connected(u, v)) continue;
      edges.push_back(sld.insert(u, v, weight(rng)));
      ++linked;
    }
  });
}

TEST(SnapshotTopOf, RandomForests) {
  random_forest_case([](par::Rng& r) { return r.next_double(); });
}

/// Three weight values: long runs of equal-weight ancestors, where the
/// rank tiebreak alone orders parents above children and a jump can
/// land exactly on tau.
TEST(SnapshotTopOf, TiedWeights) {
  random_forest_case([](par::Rng& r) {
    return 0.25 * static_cast<double>(1 + r.next_bounded(3));
  });
}

/// Codec bytes of one shard snapshot: the canonical byte view.
std::string shard_bytes(const DendrogramSnapshot& d) {
  persist::ByteWriter w;
  persist::SnapshotCodec::encode_shard(d, w);
  return w.take();
}

/// One shard's freeze under the router's access pattern: random
/// erase-then-insert batches through DynamicClustering (tree erases
/// with live non-tree edges, so replacement searches rewire the
/// forest), three tied weight values, skipped epochs in which the
/// shard stays clean (prev pointer unchanged, no advance), and one
/// oversized batch that must fail the viability check.
/// Every advance() must encode exactly like DendrogramSnapshot::build
/// of the same dendrogram.
class ShardContractionOracle : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ShardContractionOracle, PatchedEqualsFreshBuildEveryEpoch) {
  const vertex_id n = 240;
  par::Rng rng(GetParam());
  DynamicClustering dc(n);
  std::vector<DynamicClustering::graph_edge> alive;
  auto weight = [&] {
    return 0.25 * static_cast<double>(1 + rng.next_bounded(3));
  };
  auto random_inserts = [&](size_t k) {
    std::vector<DynamicClustering::EdgeUpdate> batch;
    for (size_t i = 0; i < k; ++i) {
      auto [u, v] = test::random_distinct_pair(rng, n);
      batch.push_back({u, v, weight()});
    }
    return batch;
  };
  auto insert = [&](const std::vector<DynamicClustering::EdgeUpdate>& batch) {
    for (auto g : dc.insert_edges(batch)) alive.push_back(g);
  };
  // Erase `k` alive edges; half the picks look for a tree edge.
  auto erase = [&](size_t k) {
    std::vector<DynamicClustering::graph_edge> batch;
    for (size_t i = 0; i < k && !alive.empty(); ++i) {
      size_t j = rng.next_bounded(alive.size());
      if (rng.next_double() < 0.5)
        for (int probe = 0; probe < 8 && !dc.is_tree_edge(alive[j]); ++probe)
          j = rng.next_bounded(alive.size());
      batch.push_back(alive[j]);
      alive[j] = alive.back();
      alive.pop_back();
    }
    dc.erase_edges(batch);
  };

  // A sparse forest plus chords: cycles give tree erases replacements.
  insert(random_inserts(n / 3));
  ShardContraction contraction;
  ShardContraction::PatchStats ps;
  auto prev = contraction.advance(dc.sld(), kBase, nullptr, ps);
  ASSERT_FALSE(ps.patched);
  ASSERT_EQ(shard_bytes(*prev),
            shard_bytes(*DendrogramSnapshot::build(dc.sld(), kBase)));

  size_t patched = 0, fallbacks = 0, skipped = 0;
  for (int epoch = 1; epoch <= 80; ++epoch) {
    SCOPED_TRACE(testing::Message()
                 << "seed " << GetParam() << " epoch " << epoch);
    if (epoch == 20) {
      // Oversized: link ~half as many components as the forest has
      // nodes, with edges heavier than any other. Each new root only
      // re-parents the two it joins, so the journal stays under its
      // cap, but the edits cover over half the nodes and the exact
      // viability check must reject the patch.
      std::vector<vertex_id> comp(n);
      std::iota(comp.begin(), comp.end(), 0);
      auto find = [&](vertex_id x) {
        while (comp[x] != x) x = comp[x] = comp[comp[x]];
        return x;
      };
      for (const WeightedEdge& e : dc.forest_edges())
        comp[find(e.u)] = find(e.v);
      std::vector<DynamicClustering::EdgeUpdate> heavy;
      const size_t want = prev->num_nodes() / 2 + 1;
      for (int tries = 0; heavy.size() < want && tries < 100 * n; ++tries) {
        auto [u, v] = test::random_distinct_pair(rng, n);
        if (find(u) == find(v)) continue;
        comp[find(u)] = find(v);
        heavy.push_back({u, v, 1.0});
      }
      ASSERT_EQ(heavy.size(), want) << "too few components to link";
      insert(heavy);
    } else if (rng.next_double() < 0.15) {  // the shard stays clean
      ++skipped;
      continue;
    } else {
      erase(rng.next_bounded(5));
      insert(random_inserts(rng.next_bounded(6)));
    }
    auto snap = contraction.advance(dc.sld(), kBase, prev.get(), ps);
    patched += ps.patched;
    fallbacks += ps.fallback;
    ASSERT_EQ(shard_bytes(*snap),
              shard_bytes(*DendrogramSnapshot::build(dc.sld(), kBase)))
        << (ps.patched ? "patched" : "rebuilt");
    prev = snap;
  }
  EXPECT_GT(patched, 0u);
  EXPECT_GT(fallbacks, 0u);
  EXPECT_GT(skipped, 0u);
  EXPECT_GT(dc.search_stats().replacements, 0u);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardContractionOracle,
                         ::testing::Range<uint64_t>(1, 11));

}  // namespace
}  // namespace dynsld::engine

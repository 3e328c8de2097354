// DendrogramSnapshot threshold queries against a naive parent walk.
//
// top_of climbs skew-binary jump pointers; the reference below climbs
// the live dendrogram one parent at a time. Every case checks a fresh
// DendrogramSnapshot::build and a ShardContraction-patched snapshot of
// the same dendrogram, at every distinct node weight exactly (where a
// jump lands on a node whose weight equals tau) plus one threshold
// below the lightest and one above the heaviest node.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "dynsld/dyn_sld.hpp"
#include "engine/contraction.hpp"
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

  ShardContraction contraction(/*incremental=*/true);
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

}  // namespace
}  // namespace dynsld::engine

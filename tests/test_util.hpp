// Shared test helpers: brute-force oracles, the Kruskal reference
// partition, dendrogram comparison, and deterministic per-test
// randomness. Both the unit tests and the randomized differential
// harness (test_fuzz_engine.cpp) build on these.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <numeric>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "dendrogram/dendrogram.hpp"
#include "dendrogram/static_sld.hpp"
#include "engine/query.hpp"
#include "graph/generators.hpp"
#include "graph/types.hpp"
#include "parallel/random.hpp"

namespace dynsld::test {

/// Deterministic per-test RNG: seeded from the running test's full name
/// (plus an optional salt), so every test gets an independent but
/// reproducible stream and reordering tests never perturbs another
/// test's randomness.
inline par::Rng test_rng(uint64_t salt = 0) {
  uint64_t h = 0xcbf29ce484222325ULL ^ salt;  // FNV-1a over the test name
  if (const auto* info = ::testing::UnitTest::GetInstance()->current_test_info()) {
    std::string name = std::string(info->test_suite_name()) + "." + info->name();
    for (char c : name) {
      h ^= static_cast<unsigned char>(c);
      h *= 0x100000001b3ULL;
    }
  }
  return par::Rng(h);
}

/// A complete binary tree of the given depth (vertex i's parent is
/// (i - 1) / 2) whose edge weights ascend toward the root: the edge above
/// a depth-k vertex weighs depth - k plus a jitter in [0, 0.5). Its
/// dendrogram mirrors the tree, so spines stay O(depth) long while a cut
/// near the root leaves pieces of Θ(n) vertices. Each vertex in `tails`
/// gets a two-edge path hung below it, heavier than every tree edge; the
/// tails' edges interleave at the top of the dendrogram.
inline gen::Forest layered_binary_tree(int depth, std::initializer_list<vertex_id> tails,
                                       uint64_t seed) {
  par::Rng rng(seed);
  gen::Forest f;
  const vertex_id tree = (vertex_id{1} << (depth + 1)) - 1;
  f.n = tree + 2 * static_cast<vertex_id>(tails.size());
  auto add = [&f](vertex_id u, vertex_id v, double w) {
    f.edges.push_back(WeightedEdge{u, v, w, static_cast<edge_id>(f.edges.size())});
  };
  for (vertex_id v = 1; v < tree; ++v) {
    int d = 0;
    while ((vertex_id{2} << d) - 1 <= v) ++d;  // v's depth
    add(v, (v - 1) / 2, (depth - d) + 0.5 * rng.next_double());
  }
  vertex_id next = tree;
  double lift = 0;
  for (vertex_id t : tails) {
    add(t, next, depth + 1 + lift);
    add(next, next + 1, depth + 2 + lift);
    next += 2;
    lift += 0.25;
  }
  return f;
}

/// Uniform pair of distinct vertices in [0, n).
inline std::pair<vertex_id, vertex_id> random_distinct_pair(par::Rng& rng,
                                                            vertex_id n) {
  vertex_id u = static_cast<vertex_id>(rng.next_bounded(n)), v;
  do {
    v = static_cast<vertex_id>(rng.next_bounded(n));
  } while (v == u);
  return {u, v};
}

/// Uniform pair of distinct vertices inside the block [base, base+size).
inline std::pair<vertex_id, vertex_id> random_block_pair(par::Rng& rng,
                                                         vertex_id base,
                                                         vertex_id size) {
  vertex_id u = base + static_cast<vertex_id>(rng.next_bounded(size)), v;
  do {
    v = base + static_cast<vertex_id>(rng.next_bounded(size));
  } while (v == u);
  return {u, v};
}

/// Reference partition at threshold tau from the Kruskal-built SLD of
/// `edges`: label[v] = component representative. The captured edge set
/// is a graph (it includes cycle-closing edges), while build_kruskal
/// takes a forest, so first reduce to the MSF under (weight, id) order
/// — dropping a cycle edge never changes threshold components, because
/// its endpoints are already connected by edges of smaller rank.
inline std::vector<vertex_id> reference_labels(
    vertex_id n, const std::vector<WeightedEdge>& edges, double tau) {
  std::vector<WeightedEdge> sorted(edges);
  std::sort(sorted.begin(), sorted.end(),
            [](const WeightedEdge& a, const WeightedEdge& b) {
              return a.rank() < b.rank();
            });
  std::vector<WeightedEdge> forest;
  {
    UnionFind uf(n);
    for (const WeightedEdge& e : sorted) {
      if (uf.find(e.u) != uf.find(e.v)) {
        uf.unite(e.u, e.v);
        forest.push_back(e);
      }
    }
  }
  Dendrogram ref = build_kruskal(n, forest);
  UnionFind uf(n);
  for (edge_id e = 0; e < ref.capacity(); ++e) {
    if (!ref.alive(e)) continue;
    const auto& nd = ref.node(e);
    if (nd.weight <= tau) uf.unite(nd.u, nd.v);
  }
  std::vector<vertex_id> label(n);
  for (vertex_id v = 0; v < n; ++v) label[v] = uf.find(v);
  return label;
}

/// Same partition? (Labels themselves may differ.)
inline void expect_same_partition(const std::vector<vertex_id>& a,
                                  const std::vector<vertex_id>& b) {
  ASSERT_EQ(a.size(), b.size());
  std::map<vertex_id, vertex_id> a2b, b2a;
  for (size_t v = 0; v < a.size(); ++v) {
    auto [ia, fresh_a] = a2b.try_emplace(a[v], b[v]);
    EXPECT_EQ(ia->second, b[v]) << "vertex " << v;
    auto [ib, fresh_b] = b2a.try_emplace(b[v], a[v]);
    EXPECT_EQ(ib->second, a[v]) << "vertex " << v;
  }
}

/// |cluster of u| under a reference labeling.
inline uint64_t ref_cluster_size(const std::vector<vertex_id>& label,
                                 vertex_id u) {
  uint64_t k = 0;
  for (vertex_id l : label) k += l == label[u];
  return k;
}

/// Cluster-size histogram of a reference labeling.
inline engine::SizeHistogram ref_histogram(const std::vector<vertex_id>& label) {
  std::map<vertex_id, uint64_t> csize;
  for (vertex_id l : label) ++csize[l];
  std::map<uint64_t, uint64_t> hist;
  for (const auto& [l, s] : csize) ++hist[s];
  engine::SizeHistogram out;
  out.bins.assign(hist.begin(), hist.end());
  return out;
}

/// Brute-force SLD straight from the definition: simulate agglomerative
/// clustering with explicit vertex sets, merging edges in rank order.
/// O(n^2) — for validating build_kruskal on small instances.
inline Dendrogram build_brute(vertex_id n, std::vector<WeightedEdge> edges) {
  std::sort(edges.begin(), edges.end(),
            [](const WeightedEdge& a, const WeightedEdge& b) {
              return a.rank() < b.rank();
            });
  edge_id max_id = 0;
  for (const auto& e : edges) max_id = std::max(max_id, e.id);
  Dendrogram d(edges.empty() ? 0 : static_cast<size_t>(max_id) + 1);
  // cluster of each vertex: set of members + current top node.
  std::map<vertex_id, std::set<vertex_id>> clusters;
  std::map<vertex_id, edge_id> top;  // keyed by cluster representative
  std::vector<vertex_id> rep(n);
  std::iota(rep.begin(), rep.end(), vertex_id{0});
  for (vertex_id v = 0; v < n; ++v) clusters[v] = {v};
  for (const auto& e : edges) {
    d.add_node(e);
    vertex_id ra = rep[e.u], rb = rep[e.v];
    EXPECT_NE(ra, rb) << "input not a forest";
    if (top.count(ra)) d.set_parent(top[ra], e.id);
    if (top.count(rb)) d.set_parent(top[rb], e.id);
    for (vertex_id m : clusters[rb]) {
      clusters[ra].insert(m);
      rep[m] = ra;
    }
    clusters.erase(rb);
    top.erase(rb);
    top[ra] = e.id;
  }
  return d;
}

/// Pretty diff of two dendrograms for failure messages.
inline std::string describe_diff(const Dendrogram& got, const Dendrogram& want) {
  std::ostringstream os;
  size_t cap = std::max(got.capacity(), want.capacity());
  int shown = 0;
  for (edge_id e = 0; e < cap && shown < 12; ++e) {
    bool ga = got.alive(e), wa = want.alive(e);
    if (ga != wa) {
      os << "node " << e << ": alive " << ga << " vs " << wa << "\n";
      ++shown;
      continue;
    }
    if (!ga) continue;
    if (got.parent(e) != want.parent(e)) {
      os << "node " << e << " (w=" << got.node(e).weight << "): parent "
         << static_cast<int64_t>(got.parent(e) == kNoEdge ? -1 : got.parent(e))
         << " vs "
         << static_cast<int64_t>(want.parent(e) == kNoEdge ? -1 : want.parent(e))
         << "\n";
      ++shown;
    }
  }
  return os.str();
}

#define EXPECT_DENDRO_EQ(got, want) \
  EXPECT_TRUE((got) == (want)) << dynsld::test::describe_diff((got), (want))

#define ASSERT_DENDRO_EQ(got, want) \
  ASSERT_TRUE((got) == (want)) << dynsld::test::describe_diff((got), (want))

}  // namespace dynsld::test

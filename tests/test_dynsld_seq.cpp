// End-to-end equivalence tests for every single-update algorithm:
// after every operation, the maintained dendrogram must equal the
// Kruskal-reference SLD of the live edge set, for every (insert
// variant, erase variant, spine index) combination, across tree
// families and seeds.
#include <gtest/gtest.h>

#include "dendrogram/static_sld.hpp"
#include "dynsld/dyn_sld.hpp"
#include "graph/generators.hpp"
#include "parallel/random.hpp"
#include "parallel/stats.hpp"
#include "test_util.hpp"

namespace dynsld {
namespace {

using par::Rng;

enum class Ins { kWalk, kOutputSensitive, kParallel, kParallelOs };
enum class Del { kSeq, kParallel };

struct Combo {
  const char* name;
  Ins ins;
  Del del;
  SpineIndex index;
};

edge_id do_insert(DynSLD& s, Ins v, vertex_id u, vertex_id w, double wt) {
  switch (v) {
    case Ins::kWalk:
      return s.insert(u, w, wt);
    case Ins::kOutputSensitive:
      return s.insert_output_sensitive(u, w, wt);
    case Ins::kParallel:
      return s.insert_parallel(u, w, wt);
    case Ins::kParallelOs:
      return s.insert_parallel_output_sensitive(u, w, wt);
  }
  return kNoEdge;
}

void do_erase(DynSLD& s, Del v, edge_id e) {
  switch (v) {
    case Del::kSeq:
      s.erase(e);
      break;
    case Del::kParallel:
      s.erase_parallel(e);
      break;
  }
}

void expect_matches_reference(DynSLD& s) {
  auto live = s.edges();
  Dendrogram want = build_kruskal(s.num_vertices(), live);
  ASSERT_DENDRO_EQ(s.dendrogram(), want);
  s.check_invariants();
}

class DynSldCombo : public ::testing::TestWithParam<Combo> {};

TEST_P(DynSldCombo, IncrementalRandomTree) {
  const auto& p = GetParam();
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    gen::Forest f = gen::random_tree(45, seed);
    // Insert in a shuffled order (so intermediate states are forests).
    Rng rng(seed * 97);
    auto order = f.edges;
    for (size_t i = order.size(); i > 1; --i) {
      std::swap(order[i - 1], order[rng.next_bounded(i)]);
    }
    DynSLD s(f.n, p.index);
    for (const auto& e : order) {
      do_insert(s, p.ins, e.u, e.v, e.weight);
      expect_matches_reference(s);
    }
    EXPECT_EQ(s.num_edges(), f.edges.size());
  }
}

TEST_P(DynSldCombo, DecrementalRandomTree) {
  const auto& p = GetParam();
  for (uint64_t seed = 4; seed <= 6; ++seed) {
    gen::Forest f = gen::random_tree(40, seed);
    DynSLD s(f.n, p.index);
    std::vector<edge_id> ids;
    for (const auto& e : f.edges) {
      ids.push_back(do_insert(s, p.ins, e.u, e.v, e.weight));
    }
    Rng rng(seed * 31);
    for (size_t i = ids.size(); i > 1; --i) {
      std::swap(ids[i - 1], ids[rng.next_bounded(i)]);
    }
    for (edge_id e : ids) {
      do_erase(s, p.del, e);
      expect_matches_reference(s);
    }
    EXPECT_EQ(s.num_edges(), 0u);
  }
}

TEST_P(DynSldCombo, FullyDynamicMix) {
  const auto& p = GetParam();
  const vertex_id n = 36;
  for (uint64_t seed = 10; seed <= 12; ++seed) {
    Rng rng(seed);
    DynSLD s(n, p.index);
    std::vector<edge_id> live;
    for (int step = 0; step < 220; ++step) {
      bool ins = live.empty() || rng.next_bounded(100) < 60;
      if (ins) {
        vertex_id u = static_cast<vertex_id>(rng.next_bounded(n));
        vertex_id v = static_cast<vertex_id>(rng.next_bounded(n));
        if (u == v || s.connected(u, v)) continue;
        double w = static_cast<double>(rng.next_bounded(10000));
        live.push_back(do_insert(s, p.ins, u, v, w));
      } else {
        size_t i = rng.next_bounded(live.size());
        do_erase(s, p.del, live[i]);
        live.erase(live.begin() + static_cast<long>(i));
      }
      expect_matches_reference(s);
    }
  }
}

TEST_P(DynSldCombo, PathFamiliesExtremes) {
  const auto& p = GetParam();
  for (auto weights : {gen::Weights::kIncreasing, gen::Weights::kDecreasing,
                       gen::Weights::kBalanced}) {
    gen::Forest f = gen::path(33, weights, 5);
    DynSLD s(f.n, p.index);
    std::vector<edge_id> ids;
    for (const auto& e : f.edges) {
      ids.push_back(do_insert(s, p.ins, e.u, e.v, e.weight));
      expect_matches_reference(s);
    }
    // Delete every other edge, then the rest.
    for (size_t i = 0; i < ids.size(); i += 2) do_erase(s, p.del, ids[i]);
    expect_matches_reference(s);
    for (size_t i = 1; i < ids.size(); i += 2) do_erase(s, p.del, ids[i]);
    expect_matches_reference(s);
  }
}

TEST_P(DynSldCombo, ReinsertAfterDelete) {
  // Edge slots get recycled; ranks must stay consistent.
  const auto& p = GetParam();
  DynSLD s(8, p.index);
  edge_id a = do_insert(s, p.ins, 0, 1, 5);
  edge_id b = do_insert(s, p.ins, 1, 2, 3);
  do_insert(s, p.ins, 2, 3, 8);
  expect_matches_reference(s);
  do_erase(s, p.del, b);
  expect_matches_reference(s);
  do_erase(s, p.del, a);
  expect_matches_reference(s);
  do_insert(s, p.ins, 0, 2, 1);
  do_insert(s, p.ins, 4, 5, 2);
  do_insert(s, p.ins, 3, 4, 9);
  expect_matches_reference(s);
}

INSTANTIATE_TEST_SUITE_P(
    Combos, DynSldCombo,
    ::testing::Values(
        Combo{"walk_seq_ptr", Ins::kWalk, Del::kSeq, SpineIndex::kPointer},
        Combo{"walk_seq_lct", Ins::kWalk, Del::kSeq, SpineIndex::kLct},
        Combo{"os_seq_lct", Ins::kOutputSensitive, Del::kSeq, SpineIndex::kLct},
        Combo{"par_par_ptr", Ins::kParallel, Del::kParallel, SpineIndex::kPointer},
        Combo{"par_par_lct", Ins::kParallel, Del::kParallel, SpineIndex::kLct},
        Combo{"paros_par_lct", Ins::kParallelOs, Del::kParallel, SpineIndex::kLct},
        Combo{"walk_seq_rc", Ins::kWalk, Del::kSeq, SpineIndex::kRc},
        Combo{"os_seq_rc", Ins::kOutputSensitive, Del::kSeq, SpineIndex::kRc},
        Combo{"par_par_rc", Ins::kParallel, Del::kParallel, SpineIndex::kRc},
        Combo{"paros_par_rc", Ins::kParallelOs, Del::kParallel, SpineIndex::kRc}),
    [](const auto& info) { return info.param.name; });

// ---- Theorem 5.1: the lower-bound instance ----

TEST(LowerBound, StarJoinTouchesTwoHPlusOnePointers) {
  const vertex_id h = 16;
  gen::Forest f = gen::lower_bound_stars(h, 2);
  DynSLD s(f.n, SpineIndex::kLct);
  for (const auto& e : f.edges) s.insert(e.u, e.v, e.weight);
  ASSERT_EQ(s.dendrogram().height(), static_cast<size_t>(h));

  // Insert weight-0 edge between the two star centers.
  stats::counters().reset();
  edge_id joined = s.insert_output_sensitive(0, h + 1, 0.0);
  uint64_t writes = stats::counters().pointer_writes.load();
  // The merged SLD is one path of height 2h+1; Theorem 5.1: Omega(h)
  // pointers change (exactly 2h here: every node of both old chains
  // except the surviving root, plus the new node).
  EXPECT_GE(writes, 2ull * h);
  EXPECT_LE(writes, 2ull * h + 1);
  EXPECT_EQ(s.dendrogram().height(), 2ull * h + 1);
  {
    auto live = s.edges();
    Dendrogram want = build_kruskal(s.num_vertices(), live);
    ASSERT_DENDRO_EQ(s.dendrogram(), want);
  }

  // Deleting it undoes all 2h+1 changes (plus the node detach).
  stats::counters().reset();
  s.erase(joined);
  EXPECT_GE(stats::counters().pointer_writes.load(), 2ull * h);
  EXPECT_EQ(s.dendrogram().height(), static_cast<size_t>(h));
}

// ---- Deletion side tests: piece labels vs the connectivity fallback ----

size_t num_ancestors(const DynSLD& s, edge_id e) {
  size_t a = 0;
  for (edge_id x = s.dendrogram().parent(e); x != kNoEdge; x = s.dendrogram().parent(x)) ++a;
  return a;
}

edge_id edge_between(const DynSLD& s, vertex_id u, vertex_id v) {
  for (const WeightedEdge& e : s.edges()) {
    if ((e.u == u && e.v == v) || (e.u == v && e.v == u)) return e.id;
  }
  return kNoEdge;
}

class SideTests : public ::testing::TestWithParam<SpineIndex> {};

// Cut the edge above vertex 3 of a depth-9 layered tree: both sides hold
// hundreds of vertices, far past the 4·|ancestors| + 64 labeling budget,
// so every ancestor takes exactly one connectivity test. The tails put
// ancestors on both sides.
TEST_P(SideTests, EraseBeyondTheBudgetFallsBackToOneTestPerAncestor) {
  gen::Forest f = test::layered_binary_tree(9, {3, 2}, 5);
  for (bool parallel : {false, true}) {
    DynSLD s(f.n, GetParam());
    for (const auto& e : f.edges) s.insert(e.u, e.v, e.weight);
    const edge_id e = edge_between(s, 3, 1);
    const size_t anc = num_ancestors(s, e);
    ASSERT_GE(anc, 4u);
    ASSERT_GT(257u, 4 * anc + 64);  // the smaller side: subtree(3) + its tail
    stats::counters().reset();
    parallel ? s.erase_parallel(e) : s.erase(e);
    if (!parallel) EXPECT_EQ(stats::counters().connectivity_queries.load(), anc);
    EXPECT_GT(stats::counters().connectivity_queries.load(), 0u);
    EXPECT_EQ(stats::counters().side_tests_labeled.load(), 0u);
    EXPECT_EQ(stats::counters().side_vertices_labeled.load(), 0u);
    expect_matches_reference(s);
  }
}

// Cut a deepest leaf's edge: the one-vertex side is labeled, and every
// ancestor's side is a mark lookup with no connectivity test.
TEST_P(SideTests, LabeledEraseIssuesNoConnectivityTests) {
  gen::Forest f = test::layered_binary_tree(9, {3, 2}, 6);
  for (bool parallel : {false, true}) {
    DynSLD s(f.n, GetParam());
    for (const auto& e : f.edges) s.insert(e.u, e.v, e.weight);
    const edge_id e = edge_between(s, 1022, 510);
    const size_t anc = num_ancestors(s, e);
    ASSERT_GE(anc, 10u);
    stats::counters().reset();
    parallel ? s.erase_parallel(e) : s.erase(e);
    EXPECT_EQ(stats::counters().connectivity_queries.load(), 0u);
    if (!parallel) EXPECT_EQ(stats::counters().side_tests_labeled.load(), anc);
    EXPECT_EQ(stats::counters().side_vertices_labeled.load(), 1u);
    expect_matches_reference(s);
  }
}

// Erase every edge of the layered tree in a random order: each cut lands
// in whichever regime its sizes pick, and the result must not care.
TEST_P(SideTests, EraseAllInRandomOrderMatchesReference) {
  gen::Forest f = test::layered_binary_tree(5, {3, 2, 40}, 7);
  DynSLD s(f.n, GetParam());
  std::vector<edge_id> ids;
  for (const auto& e : f.edges) ids.push_back(s.insert(e.u, e.v, e.weight));
  Rng rng(11);
  for (size_t i = ids.size(); i > 1; --i) std::swap(ids[i - 1], ids[rng.next_bounded(i)]);
  for (size_t i = 0; i < ids.size(); ++i) {
    i % 2 == 0 ? s.erase(ids[i]) : s.erase_parallel(ids[i]);
    expect_matches_reference(s);
  }
}

INSTANTIATE_TEST_SUITE_P(Indices, SideTests,
                         ::testing::Values(SpineIndex::kPointer, SpineIndex::kLct,
                                           SpineIndex::kRc),
                         [](const auto& info) {
                           switch (info.param) {
                             case SpineIndex::kPointer:
                               return "ptr";
                             case SpineIndex::kLct:
                               return "lct";
                             default:
                               return "rc";
                           }
                         });

TEST(OutputSensitive, LeafAppendIsConstantChanges) {
  // Appending a max-weight leaf to a path changes O(1) pointers even
  // when h is large (c = O(1) regime of Theorem 1.2).
  gen::Forest f = gen::path(400, gen::Weights::kIncreasing);
  DynSLD s(f.n + 1, SpineIndex::kLct);
  for (const auto& e : f.edges) s.insert(e.u, e.v, e.weight);
  stats::counters().reset();
  s.insert_output_sensitive(f.n - 1, f.n, 1e9);
  EXPECT_LE(stats::counters().pointer_writes.load(), 2u);
  EXPECT_LE(stats::counters().pws_queries.load(), 4u);
}

TEST(OutputSensitive, CountsMatchStructuralChanges) {
  // PWS query count == pointer change count for the alternating merge
  // (the exact accounting from §4.2).
  gen::Forest f = gen::lower_bound_stars(10, 2);
  DynSLD s(f.n, SpineIndex::kLct);
  for (const auto& e : f.edges) s.insert(e.u, e.v, e.weight);
  stats::counters().reset();
  s.insert_output_sensitive(0, 11, 0.0);
  EXPECT_EQ(stats::counters().pws_queries.load(),
            stats::counters().pointer_writes.load());
}

}  // namespace
}  // namespace dynsld

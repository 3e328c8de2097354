// E5 (Theorem 1.5): batch updates vs k single updates vs static rebuild.
//
// Workload: a random forest of many components; a batch of k edges
// joining components (acyclic). Batch deletion removes the same k.
//
// Expected shape: batch cost grows sublinearly vs k singles (shared
// spines/connectivity), and both dynamic paths beat a full static
// rebuild until k·h work approaches n log n.
//
// E5-X: the insert_batch crossover. On a deep forest of perfbench
// ingest_forest's shape (65,536 vertices, each parented among the 64
// below it, uniform weights, LCT index), k re-parent moves are cut with
// one erase_batch and re-linked either by Star-Merge
// (insert_batch_star_merge) or by k Thm 1.2 singles. Star-Merge
// extracts whole spines, O(kh); a single costs O(c log n). The
// crossover picks DynSLD::kSingleInsertMaxBatch.
#include "bench_util.hpp"
#include "dendrogram/static_sld.hpp"
#include "dynsld/dyn_sld.hpp"
#include "graph/generators.hpp"
#include "parallel/random.hpp"

using namespace dynsld;
using bench::Timer;

namespace {

struct Workload {
  vertex_id n;
  gen::Forest base;                       // many components
  std::vector<DynSLD::EdgeInsert> batch;  // k joining edges
};

Workload make(vertex_id n, size_t k, uint64_t seed) {
  Workload w;
  w.n = n;
  // k+1 components so k joining edges keep it a forest.
  w.base = gen::random_forest(n, static_cast<vertex_id>(k + 1), seed);
  // Discover components, then chain them with k edges.
  UnionFind uf(n);
  for (const auto& e : w.base.edges) uf.unite(e.u, e.v);
  std::vector<vertex_id> reps;
  std::vector<char> seen(n, 0);
  for (vertex_id v = 0; v < n; ++v) {
    vertex_id r = uf.find(v);
    if (!seen[r]) {
      seen[r] = 1;
      reps.push_back(v);
    }
  }
  par::Rng rng(seed + 5);
  for (size_t i = 0; i + 1 < reps.size() && w.batch.size() < k; ++i) {
    w.batch.push_back({reps[i], reps[i + 1],
                       static_cast<double>(rng.next_bounded(1u << 30))});
  }
  return w;
}

/// E5-X: per-op insert cost of Star-Merge vs Thm 1.2 singles, k moves
/// at a time, on two DynSLDs kept in lockstep.
void crossover() {
  bench::header("E5-X", "insert_batch crossover: Star-Merge vs Thm 1.2 singles");
  bench::row("%8s %9s %8s %16s %16s", "k", "n", "rounds", "star_us_per_op",
             "single_us_per_op");
  const vertex_id n = 1 << 16;
  const vertex_id window = 64;
  par::Rng grng(7);
  std::vector<vertex_id> parent(n, 0);
  std::vector<edge_id> of_child_s(n, kNoEdge), of_child_1(n, kNoEdge);
  DynSLD star(n, SpineIndex::kLct), single(n, SpineIndex::kLct);
  for (vertex_id v = 1; v < n; ++v) {
    vertex_id lo = v > window ? v - window : 0;
    parent[v] = lo + static_cast<vertex_id>(grng.next_bounded(v - lo));
    double w = grng.next_double();
    of_child_s[v] = star.insert(v, parent[v], w);
    of_child_1[v] = single.insert(v, parent[v], w);
  }
  for (size_t k : {1u, 4u, 16u, 64u, 256u, 1024u, 4096u, 16384u}) {
    const size_t rounds = std::max<size_t>(2, 2048 / k);
    double star_ms = 0, single_ms = 0;
    for (size_t r = 0; r < rounds; ++r) {
      std::vector<char> moved(n, 0);
      std::vector<edge_id> cut_s, cut_1;
      std::vector<DynSLD::EdgeInsert> batch;
      std::vector<vertex_id> kids;
      while (batch.size() < k) {
        vertex_id v = 2 + static_cast<vertex_id>(grng.next_bounded(n - 2));
        if (moved[v]) continue;
        moved[v] = 1;
        vertex_id lo = v > window ? v - window : 0;
        vertex_id p;
        do {
          p = lo + static_cast<vertex_id>(grng.next_bounded(v - lo));
        } while (p == parent[v]);
        cut_s.push_back(of_child_s[v]);
        cut_1.push_back(of_child_1[v]);
        parent[v] = p;
        kids.push_back(v);
        batch.push_back({v, p, grng.next_double()});
      }
      star.erase_batch(cut_s);
      single.erase_batch(cut_1);
      Timer ts;
      auto ids_s = star.insert_batch_star_merge(batch);
      star_ms += ts.ms();
      Timer t1;
      std::vector<edge_id> ids_1;
      for (const auto& e : batch) ids_1.push_back(single.insert_output_sensitive(e.u, e.v, e.weight));
      single_ms += t1.ms();
      for (size_t i = 0; i < k; ++i) {
        of_child_s[kids[i]] = ids_s[i];
        of_child_1[kids[i]] = ids_1[i];
      }
    }
    const double ops = static_cast<double>(rounds * k);
    bench::row("%8zu %9u %8zu %16.2f %16.2f", k, n, rounds, 1e3 * star_ms / ops,
               1e3 * single_ms / ops);
    std::string ks = std::to_string(k);
    bench::json_log().metric("E5-X", "star_us_per_op_k" + ks, 1e3 * star_ms / ops, "us");
    bench::json_log().metric("E5-X", "single_us_per_op_k" + ks, 1e3 * single_ms / ops, "us");
  }
  // The bulk load: the whole forest into an empty structure at once.
  std::vector<DynSLD::EdgeInsert> all;
  for (vertex_id v = 1; v < n; ++v) {
    all.push_back({v, parent[v], static_cast<double>(grng.next_double())});
  }
  DynSLD bulk_s(n, SpineIndex::kLct), bulk_1(n, SpineIndex::kLct);
  Timer ts;
  bulk_s.insert_batch_star_merge(all);
  const double star_ms = ts.ms();
  Timer t1;
  for (const auto& e : all) bulk_1.insert_output_sensitive(e.u, e.v, e.weight);
  const double single_ms = t1.ms();
  const double ops = static_cast<double>(all.size());
  bench::row("%8s %9u %8d %16.2f %16.2f", "bulk", n, 1, 1e3 * star_ms / ops,
             1e3 * single_ms / ops);
  bench::json_log().metric("E5-X", "star_us_per_op_bulk", 1e3 * star_ms / ops, "us");
  bench::json_log().metric("E5-X", "single_us_per_op_bulk", 1e3 * single_ms / ops, "us");
}

}  // namespace

int main(int argc, char** argv) {
  bench::parse_json_arg(argc, argv, "batch", /*smoke=*/false, /*workers=*/1);
  bench::header("E5", "batch insert/delete vs k singles vs static rebuild (Thm 1.5)");
  bench::row("%8s %9s %14s %14s %14s %14s", "k", "n", "batch_ins_ms",
             "single_ins_ms", "batch_del_ms", "static_ms");
  const vertex_id n = 1 << 14;
  for (size_t k : {1u, 8u, 64u, 512u, 4096u}) {
    Workload w = make(n, k, 1);
    if (w.batch.size() < k) break;

    // Batch insert.
    DynSLD sb(n, SpineIndex::kPointer);
    for (const auto& e : w.base.edges) sb.insert(e.u, e.v, e.weight);
    Timer tb;
    auto ids = sb.insert_batch_star_merge(w.batch);
    double batch_ins = tb.ms();

    // Batch delete of the same edges.
    Timer td;
    sb.erase_batch(ids);
    double batch_del = td.ms();

    // k single inserts.
    DynSLD ss(n, SpineIndex::kPointer);
    for (const auto& e : w.base.edges) ss.insert(e.u, e.v, e.weight);
    Timer t1;
    for (const auto& e : w.batch) ss.insert(e.u, e.v, e.weight);
    double single_ins = t1.ms();

    // Static rebuild of base + batch.
    auto all = w.base.edges;
    for (const auto& e : w.batch) {
      all.push_back(WeightedEdge{e.u, e.v, e.weight,
                                 static_cast<edge_id>(all.size())});
    }
    Timer ts;
    Dendrogram d = build_kruskal(n, all);
    double stat = ts.ms();
    (void)d;

    bench::row("%8zu %9u %14.2f %14.2f %14.2f %14.2f", k, n, batch_ins,
               single_ins, batch_del, stat);
    std::string ks = std::to_string(k);
    bench::json_log().metric("E5", "batch_ins_ms_k" + ks, batch_ins, "ms");
    bench::json_log().metric("E5", "single_ins_ms_k" + ks, single_ins, "ms");
    bench::json_log().metric("E5", "batch_del_ms_k" + ks, batch_del, "ms");
    bench::json_log().metric("E5", "static_ms_k" + ks, stat, "ms");
  }
  crossover();
  bench::json_log().write();
  return 0;
}

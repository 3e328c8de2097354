// Work-proxy instrumentation. The paper's claims are about *work*
// (pointer changes, queries, spine nodes touched), which is machine
// independent; wall-clock on the build machine is not. Benchmarks report
// both. Counters are relaxed atomics and always on; the cost is one
// uncontended fetch_add per counted event, negligible next to the tree
// operations being counted.
#pragma once

#include <atomic>
#include <cstdint>

namespace dynsld::stats {

struct Counters {
  std::atomic<uint64_t> connectivity_queries{0};  // side-of-cut tests via the LCT
  std::atomic<uint64_t> side_tests_labeled{0};    // side tests via piece labels
  std::atomic<uint64_t> side_vertices_labeled{0}; // vertices the piece BFS labeled
  std::atomic<uint64_t> pws_queries{0};           // path weight searches
  std::atomic<uint64_t> median_queries{0};        // path median queries
  std::atomic<uint64_t> pointer_writes{0};        // dendrogram parent changes
  std::atomic<uint64_t> spine_nodes_touched{0};   // spine traversal length
  std::atomic<uint64_t> index_links{0};           // spine-index link ops
  std::atomic<uint64_t> index_cuts{0};            // spine-index cut ops

  void reset() {
    connectivity_queries = 0;
    side_tests_labeled = 0;
    side_vertices_labeled = 0;
    pws_queries = 0;
    median_queries = 0;
    pointer_writes = 0;
    spine_nodes_touched = 0;
    index_links = 0;
    index_cuts = 0;
  }
};

inline Counters& counters() {
  static Counters c;
  return c;
}

inline void bump(std::atomic<uint64_t>& c, uint64_t k = 1) {
  c.fetch_add(k, std::memory_order_relaxed);
}

}  // namespace dynsld::stats

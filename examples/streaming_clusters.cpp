// Streaming clustering: points arrive and leave over time (the
// intro's motivating "rapidly changing modern datasets"); the engine
// maintains the exact single-linkage dendrogram of the evolving
// similarity graph and answers live cluster queries.
//
// This drives the serving engine (SldService) through the async
// request plane: edges are enqueued on insert and erased *by
// endpoints* — the queue's (u, v) ledger resolves tickets, so points
// only remember who they connected to. Each window slide is one
// coalesced batch flush; the per-step census is one submitted
// QueryRequest pinned to at least the slide's epoch (read-your-slide:
// AtLeastEpoch parks the request until the flush publishes), answered
// from the broker's standing ThresholdView, which carries its
// resolution across the stream's epochs whenever the slide left the
// sub-tau cross edges and their shards untouched.
//
// Workload: a sliding window over a stream of 2-D points (three moving
// Gaussian-ish blobs). Each window step inserts new points' edges,
// erases expired ones, flushes, then reports the cluster structure at a
// fixed distance threshold.
//
//   $ ./streaming_clusters             # the census table
//   $ ./streaming_clusters --metrics   # plus the registry scrape as
//                                      # JSON on stderr
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <future>
#include <vector>

#include "engine/sld_service.hpp"
#include "obs/export.hpp"
#include "parallel/random.hpp"

using namespace dynsld;
using namespace dynsld::engine;

int main(int argc, char** argv) {
  bool metrics = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--metrics") == 0) metrics = true;
  const int window = 120;         // live points
  const int steps = 12;           // window slides
  const int per_step = 30;        // points replaced per slide
  const double tau = 0.35;        // clustering threshold
  const vertex_id capacity = window + steps * per_step;

  ServiceConfig cfg;
  cfg.num_vertices = capacity;
  SldService svc(cfg);
  par::Rng rng(2026);

  struct Point {
    vertex_id id;
    double x, y;
    std::vector<vertex_id> neighbors;  // endpoints of similarity edges
  };
  std::deque<Point> live;
  vertex_id next_id = 0;

  auto blob_center = [](int t, int b) {
    double phase = 0.08 * t + 2.1 * b;
    return std::pair<double, double>{1.5 + std::cos(phase), 1.5 + std::sin(phase)};
  };

  auto add_point = [&](int t) {
    int b = static_cast<int>(rng.next_bounded(3));
    auto [cx, cy] = blob_center(t, b);
    Point p;
    p.id = next_id++;
    p.x = cx + (rng.next_double() - 0.5) * 0.3;
    p.y = cy + (rng.next_double() - 0.5) * 0.3;
    // Similarity edges to all live points within distance 0.8. No
    // tickets retained: expiry erases by endpoints through the queue's
    // ledger, which also makes the duplicate erase from the second
    // endpoint a clean no-op (the pair is gone after the first).
    for (Point& q : live) {
      double d = std::hypot(p.x - q.x, p.y - q.y);
      if (d <= 0.8) {
        svc.insert(p.id, q.id, d);
        p.neighbors.push_back(q.id);
        q.neighbors.push_back(p.id);
      }
    }
    live.push_back(std::move(p));
  };

  for (int i = 0; i < window; ++i) add_point(0);

  std::printf("%5s %7s %9s %7s %10s %8s\n", "step", "points", "msf_edges",
              "epoch", "clusters", "biggest");
  for (int t = 0; t < steps; ++t) {
    // Expire the oldest points; their edges go with them.
    for (int i = 0; i < per_step; ++i) {
      const Point& p = live.front();
      for (vertex_id q : p.neighbors) svc.erase(p.id, q);
      live.pop_front();
    }
    for (int i = 0; i < per_step; ++i) add_point(t);

    // Cluster census for this slide: submit BEFORE the flush, pinned
    // to at least the epoch the flush will publish — the broker parks
    // the request and fulfills it the moment the slide's epoch lands.
    QueryRequest census;
    census.queries = {FlatClusteringQuery{tau}, NumClustersQuery{tau}};
    census.consistency = AtLeastEpoch{svc.epoch() + 1};
    auto fut = svc.submit(std::move(census));
    svc.flush();  // one batch per window slide -> one epoch

    ResultSet rs = fut.get();
    const auto& labels = std::get<std::vector<vertex_id>>(rs.results[0]);
    std::vector<int> count(capacity, 0);
    int clusters = 0, biggest = 0;
    for (const Point& p : live) {
      int c = ++count[labels[p.id]];
      if (c == 1) ++clusters;
      if (c > biggest) biggest = c;
    }
    std::printf("%5d %7zu %9zu %7llu %10d %8d\n", t, live.size(),
                svc.snapshot()->num_tree_edges(),
                (unsigned long long)rs.epoch, clusters, biggest);
    // Graph-wide count = live clusters + one singleton per expired or
    // not-yet-born id; a cheap cross-check on the NumClusters
    // reassembly against the label array.
    uint64_t graph_clusters = std::get<uint64_t>(rs.results[1]);
    if (graph_clusters !=
        static_cast<uint64_t>(clusters) + (capacity - live.size()))
      std::printf("WARNING: NumClusters (%llu) disagrees with labels\n",
                  (unsigned long long)graph_clusters);
  }

  // Drill into the cluster of the newest point — the single-shot
  // conveniences are submit-and-wait wrappers over the same broker.
  const Point& probe = live.back();
  auto members = svc.cluster_report(probe.id, tau);
  std::printf("\ncluster of newest point %u at tau=%.2f: %zu members\n",
              probe.id, tau, members.size());
  // --metrics: one scrape of the engine's registry — per-slide flush
  // stage latencies and the broker's fulfillment histogram included.
  if (metrics)
    std::fprintf(stderr, "%s\n",
                 obs::to_json(svc.obs().registry.scrape()).c_str());
  return 0;
}

// E-ENGINE: the engine costs the end-to-end benchmark (perfbench/)
// does not measure. perfbench is the gated benchmark; the sections
// here answer what its fixed shape cannot:
//
//   2. Shard scaling: block-local churn with a small cross-shard
//      fraction, S = 1..8 shards; per-shard sub-batches apply in
//      parallel on the fork-join pool (perfbench runs 4 shards on one
//      pool thread).
//   8. Durability: one churny schedule under no persistence / WAL
//      with fsync off / every-8 / every-1 (the flush-path tax per
//      policy), recovery wall time for WAL-only replay vs checkpoint +
//      tail over the same history, and AsOf{epoch} query latency per
//      serving tier (retention ring, cold checkpoint rehydration,
//      rehydration LRU) against the Latest baseline.
//   9. Shard freeze: ShardContraction::advance (the engine's freeze:
//      copy-on-write patch of the previous epoch's arrays, fresh build
//      when the churn is too large) vs DendrogramSnapshot::build on
//      one shard's clustering, across a batch-size x shard-size sweep
//      up to the 65,536-vertex shard ingest_forest freezes; oversized
//      batches show the viability gate falling back to rebuilds.
//  10. Wire serving: the same single-query request stream through an
//      in-process submit() vs across a loopback RpcServer (the delta
//      is pure plumbing: frame codec + TCP + poll loop + completion
//      pipe), then read throughput against the writer alone vs fanned
//      out across the writer plus two wire-bootstrapped read replicas.
//
//   (1, 3-7 retired: perfbench's end-to-end and per-layer metrics
//   answer them; see docs/BENCHMARKS.md.)
//
//   $ ./bench_engine [--smoke]     (--smoke: tiny sizes, CI rot check)
#include <unistd.h>
#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "engine/contraction.hpp"
#include "engine/sld_service.hpp"
#include "msf/dynamic_msf.hpp"
#include "net/client.hpp"
#include "net/replication.hpp"
#include "net/server.hpp"
#include "parallel/par.hpp"
#include "parallel/random.hpp"
#include "persist/persist.hpp"

using namespace dynsld;
using namespace dynsld::engine;

static double pct(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  return v[std::min(v.size() - 1,
                    static_cast<size_t>(q * static_cast<double>(v.size())))];
}

// One deterministic churny schedule: `epochs` flushes of `batch` ops,
// 30% of them erasing a random live edge. Distinct weights keep WAL
// replay exact.
static void churn(SldService& svc, vertex_id n, int epochs, int batch,
                  uint64_t seed) {
  par::Rng rng(seed);
  uint64_t widx = 0;
  std::vector<ticket_t> live;
  for (int e = 0; e < epochs; ++e) {
    for (int i = 0; i < batch; ++i) {
      if (!live.empty() && rng.next_double() < 0.3) {
        size_t j = rng.next_bounded(live.size());
        svc.erase(live[j]);
        live[j] = live.back();
        live.pop_back();
      } else {
        vertex_id u = static_cast<vertex_id>(rng.next_bounded(n));
        vertex_id v = static_cast<vertex_id>(rng.next_bounded(n - 1));
        if (v >= u) ++v;
        live.push_back(svc.insert(
            u, v,
            static_cast<double>(widx * 2654435761ull % 999983ull) /
                999983.0));
        ++widx;
      }
    }
    svc.flush();
  }
}

static void shard_scaling(bool smoke) {
  bench::header("E-ENGINE-2", "sharded flushes: independent blocks in parallel");
  // `groups` vertex blocks aligned with the 8-shard ranges: 35% erases
  // of a random live edge, 3% of inserts across blocks, the rest
  // inside one block. The writer flushes every 256 ops.
  const int groups = 8, block = smoke ? 128 : 512,
            ops = smoke ? 4000 : 40000;
  const vertex_id n = static_cast<vertex_id>(groups) * block;
  bench::row("%-28s %d blocks x %d vertices, %d ops", "block-churn workload:",
             groups, block, ops);
  bench::row("%8s %12s %10s %14s %12s", "shards", "updates/s", "epochs",
             "cross_ops", "wall_ms");
  for (int shards : {1, 2, 4, 8}) {
    ServiceConfig cfg;
    cfg.num_vertices = n;
    cfg.num_shards = shards;
    SldService svc(cfg);
    par::Rng rng(7);
    std::vector<ticket_t> live;
    const uint64_t epochs0 = svc.stats().epochs_published;
    bench::Timer t;
    for (int i = 0; i < ops; ++i) {
      if (!live.empty() && rng.next_double() < 0.35) {
        size_t j = rng.next_bounded(live.size());
        svc.erase(live[j]);
        live[j] = live.back();
        live.pop_back();
      } else {
        vertex_id u, v;
        if (rng.next_double() < 0.03) {
          int ga = static_cast<int>(rng.next_bounded(groups));
          int gb = static_cast<int>(rng.next_bounded(groups - 1));
          if (gb >= ga) ++gb;
          u = static_cast<vertex_id>(ga) * block + rng.next_bounded(block);
          v = static_cast<vertex_id>(gb) * block + rng.next_bounded(block);
        } else {
          int g = static_cast<int>(rng.next_bounded(groups));
          u = static_cast<vertex_id>(g) * block + rng.next_bounded(block);
          do {
            v = static_cast<vertex_id>(g) * block + rng.next_bounded(block);
          } while (v == u);
        }
        live.push_back(svc.insert(u, v, rng.next_double()));
      }
      if (i % 256 == 255) svc.flush();
    }
    svc.flush();
    const double wall_ms = t.ms();
    const double updates_per_s = 1e3 * ops / wall_ms;
    bench::row("%8d %12.0f %10llu %14llu %12.2f", shards, updates_per_s,
               (unsigned long long)(svc.stats().epochs_published - epochs0),
               (unsigned long long)svc.stats().cross_ops, wall_ms);
    std::string ss = std::to_string(shards);
    bench::json_log().metric("E-ENGINE-2", "updates_per_s_s" + ss,
                             updates_per_s, "updates/s");
    bench::json_log().metric("E-ENGINE-2", "wall_ms_s" + ss, wall_ms, "ms");
    if (shards == 8) {
      // Per-stage flush percentiles straight from the engine's
      // histograms: the loop above drove the full drain/apply/build/
      // publish pipeline through them.
      auto m = svc.obs().registry.scrape();
      for (const char* stage : {"drain", "apply", "shards", "cross"}) {
        const auto* h = m.histogram(std::string("flush.") + stage);
        if (!h || h->count == 0) continue;
        bench::json_log().metric("E-ENGINE-2",
                                 std::string("flush_") + stage + "_p50_us",
                                 h->p50() / 1e3, "us");
        bench::json_log().metric("E-ENGINE-2",
                                 std::string("flush_") + stage + "_p99_us",
                                 h->p99() / 1e3, "us");
      }
    }
  }
}

static void durability(bool smoke) {
  bench::header("E-ENGINE-8",
                "durability: WAL tax per fsync policy, recovery, AsOf");
  namespace fs = std::filesystem;
  const vertex_id n = smoke ? 256 : 4096;
  const int shards = 4;
  const int epochs = smoke ? 24 : 120;
  const int batch = smoke ? 64 : 512;

  // The same churny schedule under each persistence configuration.
  auto drive = [&](SldService& svc) { churn(svc, n, epochs, batch, 7); };

  struct Variant {
    const char* label;
    const char* metric;  // json suffix
    bool persist;
    persist::FsyncPolicy policy;
    uint64_t every_n;
  };
  const Variant variants[] = {
      {"no persistence", "nopersist", false, persist::FsyncPolicy::kOff, 0},
      {"WAL, fsync off", "fsync_off", true, persist::FsyncPolicy::kOff, 0},
      {"WAL, fsync every 8", "fsync_every8", true,
       persist::FsyncPolicy::kEveryN, 8},
      {"WAL, fsync every 1", "fsync_every1", true,
       persist::FsyncPolicy::kEveryN, 1},
  };

  bench::row("%-22s %12s %14s %10s %10s", "flush path", "wall ms",
             "updates/s", "ms/epoch", "WAL MB");
  const fs::path base =
      fs::temp_directory_path() /
      ("dynsld_bench_persist_" +
       std::to_string(static_cast<unsigned long long>(::getpid())));
  double baseline_ms = 0;
  for (const Variant& var : variants) {
    const fs::path dir = base / var.metric;
    fs::remove_all(dir);
    ServiceConfig cfg;
    cfg.num_vertices = n;
    cfg.num_shards = shards;
    if (var.persist) {
      cfg.persist.dir = dir.string();
      cfg.persist.fsync_policy = var.policy;
      cfg.persist.fsync_every_n = var.every_n;
      cfg.persist.checkpoint_every = 1u << 30;  // isolate the WAL tax
    }
    bench::Timer t;
    uint64_t wal_bytes = 0;
    {
      SldService svc(cfg);
      drive(svc);
      wal_bytes = svc.stats().wal_bytes;
    }
    double ms = t.ms();
    if (!var.persist) baseline_ms = ms;
    bench::row("%-22s %12.1f %14.0f %10.2f %10.2f", var.label, ms,
               epochs * static_cast<double>(batch) / (ms / 1000.0),
               ms / epochs, wal_bytes / 1e6);
    bench::json_log().metric("E-ENGINE-8",
                             std::string("flush_ms_per_epoch_") + var.metric,
                             ms / epochs, "ms");
    if (var.persist && baseline_ms > 0)
      bench::json_log().metric("E-ENGINE-8",
                               std::string("wal_overhead_pct_") + var.metric,
                               (ms - baseline_ms) / baseline_ms * 100.0, "%");
  }

  // Recovery: WAL-only replay vs checkpoint + short tail, same history.
  for (bool ckpt : {false, true}) {
    const fs::path dir = base / (ckpt ? "recover_ckpt" : "recover_wal");
    fs::remove_all(dir);
    ServiceConfig cfg;
    cfg.num_vertices = n;
    cfg.num_shards = shards;
    cfg.persist.dir = dir.string();
    cfg.persist.checkpoint_every = ckpt ? 16 : (1u << 30);
    {
      SldService svc(cfg);
      drive(svc);
    }
    bench::Timer t;
    auto res = persist::recover(cfg);
    double ms = t.ms();
    bench::row("%-22s %12.1f ms to epoch %llu (%llu records replayed)",
               ckpt ? "recover ckpt+tail:" : "recover WAL-only:", ms,
               static_cast<unsigned long long>(res.tip_epoch),
               static_cast<unsigned long long>(res.records_replayed));
    bench::json_log().metric(
        "E-ENGINE-8", ckpt ? "recover_ckpt_ms" : "recover_walonly_ms", ms,
        "ms");
    if (!ckpt)
      bench::json_log().metric("E-ENGINE-8", "recover_replayed",
                               static_cast<double>(res.records_replayed),
                               "count");
  }

  // AsOf vs Latest: the price of time travel per serving tier.
  {
    const fs::path dir = base / "asof";
    fs::remove_all(dir);
    ServiceConfig cfg;
    cfg.num_vertices = n;
    cfg.num_shards = shards;
    cfg.retain_epochs = 8;
    cfg.persist.dir = dir.string();
    cfg.persist.checkpoint_every = 16;
    SldService svc(cfg);
    drive(svc);
    const uint64_t tip = svc.epoch();
    const uint64_t ring_epoch = tip - 4;          // in the retention ring
    const uint64_t cold_epoch = (tip / 16) * 16;  // checkpointed, off-ring
    const int reps = smoke ? 50 : 400;
    auto timed = [&](const char* label, const char* metric, auto consistency,
                     int iters) {
      bench::Timer t;
      for (int i = 0; i < iters; ++i) {
        QueryRequest req;
        req.queries = {NumClustersQuery{0.5}};
        req.consistency = consistency;
        (void)svc.submit(std::move(req)).get();
      }
      double us = t.us() / iters;
      bench::row("%-22s %12.2f us/query", label, us);
      bench::json_log().metric("E-ENGINE-8", metric, us, "us");
      return us;
    };
    timed("query Latest:", "latest_us", Latest{}, reps);
    timed("query AsOf (ring):", "asof_ring_us", AsOf{ring_epoch}, reps);
    // First touch decodes the checkpoint; repeats hit the LRU.
    timed("AsOf rehydrate cold:", "asof_rehydrate_first_us", AsOf{cold_epoch},
          1);
    timed("AsOf rehydrate LRU:", "asof_rehydrate_cached_us", AsOf{cold_epoch},
          reps);
  }
  std::error_code ec;
  fs::remove_all(base, ec);
}

static void freeze_patch_vs_build(bool smoke) {
  bench::header("E-ENGINE-9",
                "shard freeze: ShardContraction::advance vs fresh build");
  // Enough rounds per config that the p50 reflects the engine rather
  // than scheduling noise on small hosts (the slow tail is one-sided).
  const int rounds = smoke ? 32 : 48;
  bench::row("%8s %6s | %10s %10s | %10s %10s | %8s %8s", "shard n",
             "batch", "rb p50 us", "rb p99 us", "pt p50 us", "pt p99 us",
             "speedup", "patched");
  // 65,536 is the shard size perfbench's ingest_forest freezes.
  for (vertex_id n : smoke ? std::vector<vertex_id>{1024, 8192}
                           : std::vector<vertex_id>{1024, 2048, 8192, 65536}) {
    for (int batch : smoke ? std::vector<int>{8, 16, 64}
                           : std::vector<int>{8, 16, 64, 256}) {
      // One shard's clustering, frozen both ways after every batch:
      // ShardContraction::advance (the engine's freeze: a copy-on-write
      // patch of the previous epoch, or a fresh build when the journal
      // overflowed or the viability check fails) and a from-scratch
      // DendrogramSnapshot::build of the same dendrogram. The two are
      // timed back to back, alternating which goes first, so host
      // disturbances land on both sides about equally.
      DynamicClustering dc(n);
      par::Rng rng(99);
      uint64_t widx = 0;
      auto wgen = [&] {
        return static_cast<double>((widx++ * 2654435761ull + 3) % 999983ull) /
               999983.0;
      };
      auto rand_pair = [&] {
        vertex_id u = static_cast<vertex_id>(rng.next_bounded(n));
        vertex_id v = static_cast<vertex_id>(rng.next_bounded(n - 1));
        if (v >= u) ++v;
        return std::pair<vertex_id, vertex_id>{u, v};
      };
      // Bulk load: a path over the shard plus n/4 random chords, so
      // the dendrogram is one big component with internal structure.
      std::vector<DynamicClustering::EdgeUpdate> ins;
      for (vertex_id v = 0; v + 1 < n; ++v) ins.push_back({v, v + 1, wgen()});
      for (vertex_id i = 0; i < n / 4; ++i) {
        auto [u, v] = rand_pair();
        ins.push_back({u, v, wgen()});
      }
      std::vector<DynamicClustering::graph_edge> live = dc.insert_edges(ins);
      ShardContraction contraction;
      ShardContraction::PatchStats ps;
      auto prev = contraction.advance(dc.sld(), 0, nullptr, ps);
      std::vector<double> rb, pt;
      uint64_t patched = 0, fallbacks = 0;
      for (int r = 0; r < rounds; ++r) {
        // Half erases, half inserts; erases apply first, as the router
        // applies a drained batch.
        std::vector<DynamicClustering::graph_edge> era;
        ins.clear();
        for (int i = 0; i < batch; ++i) {
          if (!live.empty() && rng.next_double() < 0.5) {
            size_t j = rng.next_bounded(live.size());
            era.push_back(live[j]);
            live[j] = live.back();
            live.pop_back();
          } else {
            auto [u, v] = rand_pair();
            ins.push_back({u, v, wgen()});
          }
        }
        dc.erase_edges(era);
        for (auto g : dc.insert_edges(ins)) live.push_back(g);
        auto time_patch = [&] {
          bench::Timer t;
          auto snap = contraction.advance(dc.sld(), 0, prev.get(), ps);
          pt.push_back(t.us());
          prev = std::move(snap);
        };
        auto time_build = [&] {
          bench::Timer t;
          auto snap = DendrogramSnapshot::build(dc.sld());
          rb.push_back(t.us());
        };
        if (r % 2) {
          time_patch();
          time_build();
        } else {
          time_build();
          time_patch();
        }
        patched += ps.patched;
        fallbacks += ps.fallback;
      }
      const double rb50 = pct(rb, 0.5), rb99 = pct(rb, 0.99);
      const double pt50 = pct(pt, 0.5), pt99 = pct(pt, 0.99);
      const double speedup = pt50 > 0 ? rb50 / pt50 : 0.0;
      char patched_col[32];
      std::snprintf(patched_col, sizeof patched_col, "%llu(%lluF)",
                    static_cast<unsigned long long>(patched),
                    static_cast<unsigned long long>(fallbacks));
      bench::row("%8u %6d | %10.1f %10.1f | %10.1f %10.1f | %7.2fx %8s",
                 n, batch, rb50, rb99, pt50, pt99, speedup, patched_col);
      const std::string key =
          "_n" + std::to_string(n) + "_b" + std::to_string(batch);
      bench::json_log().metric("E-ENGINE-9", "flush_p50_us_rebuild" + key,
                               rb50, "us");
      bench::json_log().metric("E-ENGINE-9", "flush_p99_us_rebuild" + key,
                               rb99, "us");
      bench::json_log().metric("E-ENGINE-9", "flush_p50_us_patch" + key, pt50,
                               "us");
      bench::json_log().metric("E-ENGINE-9", "flush_p99_us_patch" + key, pt99,
                               "us");
      bench::json_log().metric("E-ENGINE-9", "speedup" + key, speedup, "x");
    }
  }
}

static void wire_serving(bool smoke) {
  bench::header("E-ENGINE-10",
                "wire serving: RPC round trip vs submit(), replica fan-out");
  namespace fs = std::filesystem;
  const fs::path dir =
      fs::temp_directory_path() /
      ("dynsld_bench_net_" +
       std::to_string(static_cast<unsigned long long>(::getpid())));
  std::error_code ec;
  fs::remove_all(dir, ec);
  {
    const vertex_id n = smoke ? 256 : 2048;
    const int shards = 4;
    ServiceConfig cfg;
    cfg.num_vertices = n;
    cfg.num_shards = shards;
    cfg.persist.dir = dir.string();  // replicas feed off the WAL stream
    cfg.persist.checkpoint_every = 16;
    SldService svc(cfg);
    churn(svc, n, /*epochs=*/smoke ? 12 : 48, /*batch=*/smoke ? 64 : 256,
          /*seed=*/11);
    net::RpcServer server(svc);  // ephemeral loopback port

    // Round trip: the identical single-query request stream, submitted
    // in-process vs across the wire by a blocking client. Both paths go
    // through the same broker, so the p50 delta is pure plumbing.
    const double taus[] = {0.15, 0.35, 0.55, 0.75, 0.95};
    auto request = [&](int i) {
      QueryRequest req;
      req.queries.push_back(NumClustersQuery{taus[i % 5]});
      return req;
    };
    const int reps = smoke ? 300 : 3000;
    std::vector<double> in_us, wire_us;
    in_us.reserve(reps);
    wire_us.reserve(reps);
    for (int i = 0; i < reps; ++i) {
      bench::Timer t;
      (void)svc.submit(request(i)).get();
      in_us.push_back(t.us());
    }
    {
      net::RpcClient cli("127.0.0.1", server.port());
      for (int i = 0; i < reps; ++i) {
        bench::Timer t;
        (void)cli.query(request(i));
        wire_us.push_back(t.us());
      }
    }
    const double in50 = pct(in_us, 0.5), in99 = pct(in_us, 0.99);
    const double wr50 = pct(wire_us, 0.5), wr99 = pct(wire_us, 0.99);
    bench::row("%-22s %10s %10s", "round trip", "p50 us", "p99 us");
    bench::row("%-22s %10.1f %10.1f", "in-process submit()", in50, in99);
    bench::row("%-22s %10.1f %10.1f", "loopback wire", wr50, wr99);
    bench::json_log().metric("E-ENGINE-10", "inproc_p50_us", in50, "us");
    bench::json_log().metric("E-ENGINE-10", "inproc_p99_us", in99, "us");
    bench::json_log().metric("E-ENGINE-10", "wire_p50_us", wr50, "us");
    bench::json_log().metric("E-ENGINE-10", "wire_p99_us", wr99, "us");
    bench::json_log().metric("E-ENGINE-10", "wire_overhead_p50_x",
                             in50 > 0 ? wr50 / in50 : 0.0, "x");

    // Fan-out: two replicas bootstrap over the wire and serve their own
    // ports; the same client fleet then drives a fixed query count at
    // the writer alone vs round-robined across all three servers.
    net::Replica::Options ro;
    ro.port = server.port();
    ro.cfg.num_vertices = n;
    ro.cfg.num_shards = shards;
    net::Replica rep1(ro), rep2(ro);
    const uint64_t tip = svc.epoch();
    if (!rep1.wait_for_epoch(tip, std::chrono::seconds(30)) ||
        !rep2.wait_for_epoch(tip, std::chrono::seconds(30))) {
      std::printf("  replica bootstrap timed out; skipping fan-out\n");
      return;
    }
    net::RpcServer rsrv1(rep1.service());
    net::RpcServer rsrv2(rep2.service());
    const int threads = smoke ? 4 : 8;
    const int per_thread = smoke ? 150 : 600;
    // A distinct tau per query defeats the broker's (epoch, tau) group
    // cache, so every query pays a real resolution — the throughput
    // ratio then measures serving capacity, not cache hits. All three
    // servers share this host's cores (the replicas are in-process), so
    // the fan-out ratio reflects host parallelism: ~1x on a single-core
    // runner, approaching 3x only when cores are free to take the extra
    // brokers' work.
    auto tput_request = [&](int i) {
      QueryRequest req;
      req.queries.push_back(SizeHistogramQuery{
          static_cast<double>(static_cast<uint64_t>(i) * 2654435761ull %
                              999983ull) /
          999983.0});
      return req;
    };
    auto run = [&](std::vector<uint16_t> ports) {
      std::vector<std::thread> ts;
      bench::Timer t;
      for (int c = 0; c < threads; ++c)
        ts.emplace_back([&, c] {
          net::RpcClient cli("127.0.0.1", ports[c % ports.size()]);
          for (int i = 0; i < per_thread; ++i)
            (void)cli.query(tput_request(c * per_thread + i));
        });
      for (auto& th : ts) th.join();
      return threads * per_thread / (t.ms() / 1000.0);
    };
    const double qps_single = run({server.port()});
    const double qps_fanout = run({server.port(), rsrv1.port(), rsrv2.port()});
    bench::row("%-22s %12.0f q/s", "1 server", qps_single);
    bench::row("%-22s %12.0f q/s  (%0.2fx)", "writer + 2 replicas",
               qps_fanout, qps_single > 0 ? qps_fanout / qps_single : 0.0);
    bench::json_log().metric("E-ENGINE-10", "qps_single_server", qps_single,
                             "q/s");
    bench::json_log().metric("E-ENGINE-10", "qps_fanout3", qps_fanout, "q/s");
    bench::json_log().metric("E-ENGINE-10", "fanout_speedup",
                             qps_single > 0 ? qps_fanout / qps_single : 0.0,
                             "x");
  }
  fs::remove_all(dir, ec);
}
int main(int argc, char** argv) {
#if defined(__GLIBC__)
  // Snapshot arrays are a few hundred KB each; above glibc's default
  // mmap threshold they are mmap'd fresh per flush and handed back to
  // the OS on free, so every epoch pays page faults instead of reusing
  // heap chunks. Pin the threshold high so latency numbers measure the
  // engine, not the allocator.
  mallopt(M_MMAP_THRESHOLD, 64 << 20);
#endif
  bool smoke = false;
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  bench::parse_json_arg(argc, argv, "engine", smoke, par::num_workers());
  std::printf("workers: %d%s\n", par::num_workers(), smoke ? " (smoke)" : "");
  shard_scaling(smoke);
  durability(smoke);
  freeze_patch_vs_build(smoke);
  wire_serving(smoke);
  bench::json_log().write();
  return 0;
}

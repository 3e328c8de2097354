// Observability subsystem tests: the log-bucketed latency histogram
// (bucket layout, percentile-vs-oracle, shard merge, concurrent
// writers), the metric registry and its exposition formats, the span
// ring, and the engine wiring — EngineStats's X-macro coverage, the
// EngineObs scrape surface, the per-epoch trace frozen into published
// snapshots, and the bundle outliving its service.
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "engine/sld_service.hpp"
#include "engine/stats.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "parallel/random.hpp"
#include "test_util.hpp"

namespace dynsld {
namespace {

using obs::HistogramSnapshot;
using obs::LatencyHistogram;

// ---------------------------------------------------------------------
// LatencyHistogram: bucket layout.
// ---------------------------------------------------------------------

TEST(HistogramBuckets, EveryValueLandsInsideItsBucket) {
  auto check = [](uint64_t v) {
    uint32_t b = LatencyHistogram::bucket_of(v);
    ASSERT_LT(b, LatencyHistogram::kBuckets) << "v=" << v;
    EXPECT_LE(LatencyHistogram::bucket_lower(b), v) << "v=" << v;
    if (b + 1 < LatencyHistogram::kBuckets) {  // top bucket clamps
      EXPECT_LT(v, LatencyHistogram::bucket_upper(b)) << "v=" << v;
    }
  };
  for (uint64_t v = 0; v < 4096; ++v) check(v);
  for (int s = 2; s < 63; ++s) {
    check((uint64_t{1} << s) - 1);
    check(uint64_t{1} << s);
    check((uint64_t{1} << s) + 1);
  }
  auto rng = test::test_rng();
  for (int i = 0; i < 10000; ++i) {
    // Log-uniform: a random bit width, then random bits below it.
    int w = 1 + static_cast<int>(rng.next_bounded(63));
    check(rng.next() & ((uint64_t{1} << w) - 1));
  }
}

TEST(HistogramBuckets, IndexMonotoneAndRelativeWidthBounded) {
  uint32_t prev = 0;
  for (uint64_t v = 0; v < (1u << 20); v += 1 + v / 64) {
    uint32_t b = LatencyHistogram::bucket_of(v);
    EXPECT_GE(b, prev) << "v=" << v;
    prev = b;
  }
  // Each bucket's width is at most 1/kSub of its lower bound (values
  // below kSub are exact, width 1).
  for (uint32_t b = LatencyHistogram::kSub; b + 1 < LatencyHistogram::kBuckets;
       ++b) {
    uint64_t lo = LatencyHistogram::bucket_lower(b);
    uint64_t hi = LatencyHistogram::bucket_upper(b);
    EXPECT_GT(hi, lo) << "b=" << b;
    EXPECT_LE(hi - lo, lo / LatencyHistogram::kSub + 1) << "b=" << b;
  }
}

// ---------------------------------------------------------------------
// LatencyHistogram: percentiles vs a sorted oracle.
// ---------------------------------------------------------------------

TEST(HistogramPercentile, WithinBucketOfSortedOracle) {
  auto rng = test::test_rng();
  LatencyHistogram h;
  std::vector<uint64_t> values;
  uint64_t sum = 0;
  for (int i = 0; i < 20000; ++i) {
    int w = 1 + static_cast<int>(rng.next_bounded(30));
    uint64_t v = rng.next() & ((uint64_t{1} << w) - 1);
    values.push_back(v);
    sum += v;
    h.record(v);
  }
  std::sort(values.begin(), values.end());

  HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, values.size());
  EXPECT_EQ(s.sum, sum);
  EXPECT_EQ(s.max, values.back());

  // The percentile estimate must land inside the bucket that holds the
  // true nearest-rank sample — that is the histogram's accuracy
  // contract (bounded relative error, not exactness).
  for (double p : {1.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0}) {
    uint64_t rank = static_cast<uint64_t>(
        std::ceil(p / 100.0 * static_cast<double>(values.size())));
    if (rank == 0) rank = 1;
    uint64_t oracle = values[rank - 1];
    uint32_t b = LatencyHistogram::bucket_of(oracle);
    double est = s.percentile(p);
    EXPECT_GE(est, static_cast<double>(LatencyHistogram::bucket_lower(b)))
        << "p=" << p << " oracle=" << oracle;
    EXPECT_LT(est, static_cast<double>(LatencyHistogram::bucket_upper(b)))
        << "p=" << p << " oracle=" << oracle;
  }
  // Percentiles are monotone in p.
  EXPECT_LE(s.p50(), s.p90());
  EXPECT_LE(s.p90(), s.p99());
  EXPECT_LE(s.p99(), s.percentile(100));
}

TEST(HistogramPercentile, EmptyAndSingleSample) {
  LatencyHistogram h;
  EXPECT_EQ(h.snapshot().count, 0u);
  EXPECT_EQ(h.snapshot().p99(), 0.0);
  EXPECT_EQ(h.snapshot().mean(), 0.0);
  h.record(1000);
  HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, 1u);
  EXPECT_EQ(s.max, 1000u);
  uint32_t b = LatencyHistogram::bucket_of(1000);
  for (double p : {0.0, 50.0, 100.0}) {
    EXPECT_GE(s.percentile(p), LatencyHistogram::bucket_lower(b));
    EXPECT_LT(s.percentile(p), LatencyHistogram::bucket_upper(b));
  }
}

// ---------------------------------------------------------------------
// LatencyHistogram: shard merge and concurrent writers.
// ---------------------------------------------------------------------

TEST(HistogramMerge, MultiThreadSnapshotEqualsSingleThreaded) {
  auto rng = test::test_rng();
  std::vector<uint64_t> values;
  for (int i = 0; i < 16000; ++i) {
    values.push_back(rng.next_bounded(1u << 24));
  }

  LatencyHistogram reference;
  for (uint64_t v : values) reference.record(v);

  // The same multiset recorded from 8 threads (distinct shard slots):
  // the merged snapshot must be identical, buckets and all.
  LatencyHistogram sharded;
  const int kThreads = 8;
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (size_t i = t; i < values.size(); i += kThreads) {
        sharded.record(values[i]);
      }
    });
  }
  for (auto& th : ts) th.join();

  EXPECT_EQ(sharded.snapshot(), reference.snapshot());
}

TEST(HistogramConcurrency, WritersNeverBlockOrCorruptScrapes) {
  // TSan target: many writers record while a scraper merges — the
  // contract is no locks on the record path and relaxed-consistent
  // snapshots. Final totals must be exact once writers join.
  LatencyHistogram h;
  const int kThreads = 8, kPer = 20000;
  std::atomic<bool> stop{false};
  std::thread scraper([&] {
    uint64_t last = 0;
    while (!stop.load(std::memory_order_acquire)) {
      HistogramSnapshot s = h.snapshot();
      EXPECT_GE(s.count, last);  // counts only grow
      last = s.count;
    }
  });
  std::vector<std::thread> ts;
  for (int t = 0; t < kThreads; ++t) {
    ts.emplace_back([&, t] {
      for (int i = 0; i < kPer; ++i) {
        h.record(static_cast<uint64_t>(t) * 1000 + static_cast<uint64_t>(i));
      }
    });
  }
  for (auto& th : ts) th.join();
  stop.store(true, std::memory_order_release);
  scraper.join();

  HistogramSnapshot s = h.snapshot();
  EXPECT_EQ(s.count, static_cast<uint64_t>(kThreads) * kPer);
  EXPECT_EQ(s.max, 7u * 1000 + (kPer - 1));
}

// ---------------------------------------------------------------------
// MetricRegistry and exposition.
// ---------------------------------------------------------------------

TEST(MetricRegistry, ScrapeReadsCountersGaugesHistograms) {
  obs::MetricRegistry reg;
  std::atomic<uint64_t> c{41};
  reg.add_counter("test.counter", &c);
  uint64_t g = 7;
  reg.add_gauge("test.gauge", [&g] { return g; });
  LatencyHistogram* h = reg.add_histogram("test.lat");
  h->record(100);
  h->record(300);

  c.fetch_add(1);
  g = 9;
  obs::MetricsSnapshot m = reg.scrape();
  EXPECT_EQ(m.counter("test.counter"), 42u);
  EXPECT_EQ(m.counter("no.such"), 0u);
  ASSERT_EQ(m.gauges.size(), 1u);
  EXPECT_EQ(m.gauges[0].value, 9u);  // evaluated at scrape, not add
  const HistogramSnapshot* hs = m.histogram("test.lat");
  ASSERT_NE(hs, nullptr);
  EXPECT_EQ(hs->count, 2u);
  EXPECT_EQ(hs->sum, 400u);
  EXPECT_EQ(m.histogram("no.such"), nullptr);

  // add_histogram is get-or-create; find_histogram never creates.
  EXPECT_EQ(reg.add_histogram("test.lat"), h);
  EXPECT_EQ(reg.find_histogram("test.lat"), h);
  EXPECT_EQ(reg.find_histogram("no.such"), nullptr);

  reg.clear_gauges();
  EXPECT_TRUE(reg.scrape().gauges.empty());
  EXPECT_EQ(reg.scrape().counters.size(), 1u);  // counters survive
}

TEST(Exposition, JsonAndPrometheusRenderings) {
  obs::MetricRegistry reg;
  std::atomic<uint64_t> c{12};
  reg.add_counter("engine.flushes", &c);
  reg.add_gauge("broker.depth", [] { return uint64_t{3}; });
  LatencyHistogram* h = reg.add_histogram("broker.fulfill");
  for (int i = 1; i <= 100; ++i) h->record(static_cast<uint64_t>(i) * 50);
  obs::MetricsSnapshot m = reg.scrape();

  std::string j = obs::to_json(m);
  for (const char* sub :
       {"\"counters\"", "\"engine.flushes\": 12", "\"gauges\"",
        "\"broker.depth\": 3", "\"histograms\"", "\"broker.fulfill\"",
        "\"count\": 100", "\"p50_ns\"", "\"p99_ns\"", "\"buckets\""}) {
    EXPECT_NE(j.find(sub), std::string::npos) << "missing " << sub;
  }

  std::string p = obs::to_prometheus(m);
  for (const char* sub :
       {"# TYPE dynsld_engine_flushes counter", "dynsld_engine_flushes 12",
        "# TYPE dynsld_broker_depth gauge",
        "# TYPE dynsld_broker_fulfill histogram",
        "dynsld_broker_fulfill_bucket{le=\"+Inf\"} 100",
        "dynsld_broker_fulfill_count 100", "dynsld_broker_fulfill_sum"}) {
    EXPECT_NE(p.find(sub), std::string::npos) << "missing " << sub;
  }
}

TEST(Exposition, StatsSinkEmitsAndStops) {
  obs::MetricRegistry reg;
  std::atomic<uint64_t> c{5};
  reg.add_counter("engine.epochs_published", &c);
  std::mutex mu;
  std::vector<std::string> emitted;
  {
    obs::StatsSink::Options opt;
    opt.interval = std::chrono::milliseconds(3600 * 1000);  // manual only
    obs::StatsSink sink(
        reg,
        [&](const std::string& s) {
          std::lock_guard<std::mutex> lk(mu);
          emitted.push_back(s);
        },
        opt);
    sink.flush_now();
  }  // destructor performs one final scrape+emit
  std::lock_guard<std::mutex> lk(mu);
  ASSERT_GE(emitted.size(), 2u);
  EXPECT_NE(emitted[0].find("\"engine.epochs_published\": 5"),
            std::string::npos);
}

// ---------------------------------------------------------------------
// Span ring.
// ---------------------------------------------------------------------

TEST(TraceRing, ScopedSpansRecordStopIdempotentCancelDiscards) {
  obs::TraceRing ring(4);
  LatencyHistogram h;
  {
    obs::ScopedSpan span(&ring, "flush.apply", 7, &h);
    uint64_t d1 = span.stop();
    EXPECT_EQ(span.stop(), d1);  // idempotent, same duration
  }  // destructor after stop() records nothing extra
  {
    obs::ScopedSpan span(&ring, "flush.drain", 8, &h);
    span.cancel();
  }  // cancelled: nothing recorded
  obs::ScopedSpan(nullptr, "nowhere", 0).stop();  // null ring tolerated

  auto spans = ring.snapshot();
  ASSERT_EQ(spans.size(), 1u);
  EXPECT_STREQ(spans[0].name, "flush.apply");
  EXPECT_EQ(spans[0].tag, 7u);
  EXPECT_EQ(ring.total_recorded(), 1u);
  EXPECT_EQ(h.snapshot().count, 1u);
}

TEST(TraceRing, OverwritesOldestWhenFull) {
  obs::TraceRing ring(3);
  for (uint64_t i = 0; i < 5; ++i) ring.record("s", i, i * 10, 1);
  auto spans = ring.snapshot();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].tag, 2u);  // oldest retained, in order
  EXPECT_EQ(spans[2].tag, 4u);
  EXPECT_EQ(ring.total_recorded(), 5u);
}

// ---------------------------------------------------------------------
// EngineStats X-macro coverage and the EngineObs scrape surface.
// ---------------------------------------------------------------------

TEST(EngineStatsXmacro, ForEachVisitsExactlyTheCounterList) {
  engine::EngineStats s;
  std::set<std::string> names;
  size_t n = 0;
  s.for_each([&](const char* name, const std::atomic<uint64_t>&) {
    ++n;
    names.insert(name);
  });
  EXPECT_EQ(n, engine::EngineStats::kNumCounters);
  EXPECT_EQ(names.size(), n) << "duplicate counter name in the X-macro list";
  // The size static_asserts in stats.hpp pin the layout; spot-check the
  // generated report against a bumped field.
  s.flushes.fetch_add(3);
  EXPECT_EQ(s.report().flushes, 3u);
}

TEST(EngineObs, RegistersEveryCounterAndTheHistogramCatalog) {
  engine::EngineObs o;
  obs::MetricsSnapshot m = o.registry.scrape();
  EXPECT_EQ(m.counters.size(), engine::EngineStats::kNumCounters);
  for (const auto& s : m.counters) {
    EXPECT_EQ(s.name.rfind("engine.", 0), 0u) << s.name;
  }
  for (const char* h :
       {"flush.drain", "flush.apply", "flush.shard_build", "flush.shards",
        "flush.cross", "flush.publish", "flush.notify", "flush.total",
        "broker.intake_wait", "broker.park", "broker.resolve",
        "broker.fulfill", "broker.cycle"}) {
    EXPECT_NE(o.registry.find_histogram(h), nullptr) << h;
  }
  // Counter bumps are visible through the registry: same atomics.
  o.stats.epochs_published.fetch_add(2);
  EXPECT_EQ(o.registry.scrape().counter("engine.epochs_published"), 2u);
}

// ---------------------------------------------------------------------
// Engine wiring: EpochTrace, flush spans, and bundle lifetime.
// ---------------------------------------------------------------------

TEST(EngineTrace, FlushFreezesEpochTraceAndRecordsStageSpans) {
  engine::ServiceConfig cfg;
  cfg.num_vertices = 64;
  cfg.num_shards = 2;
  engine::SldService svc(cfg);
  auto rng = test::test_rng();

  // Nothing pending: flush is a no-op and records no stage latency.
  EXPECT_EQ(svc.flush(), 0u);
  EXPECT_EQ(svc.obs().flush_total->snapshot().count, 0u);

  for (int i = 0; i < 200; ++i) {
    auto [u, v] = test::random_distinct_pair(rng, 64);
    svc.insert(u, v, rng.next_double());
  }
  uint64_t e = svc.flush();
  EXPECT_EQ(e, 1u);

  auto snap = svc.snapshot();
  const obs::EpochTrace& tr = snap->trace();
  EXPECT_EQ(tr.epoch, e);
  EXPECT_GT(tr.ops, 0u);
  EXPECT_GT(tr.shards_rebuilt, 0);
  EXPECT_GT(tr.total_ns(), 0u);

  // Stage histograms saw exactly this one flush.
  EXPECT_EQ(svc.obs().flush_total->snapshot().count, 1u);
  EXPECT_EQ(svc.obs().flush_apply->snapshot().count, 1u);

  // The ring holds the epoch-tagged pipeline spans, drain..notify.
  std::set<std::string> names;
  for (const auto& s : svc.obs().trace.snapshot()) {
    if (s.tag == e) names.insert(s.name);
  }
  for (const char* want : {"flush.drain", "flush.apply", "flush.shards",
                           "flush.publish", "flush.notify", "flush.total"}) {
    EXPECT_TRUE(names.count(want)) << "missing span " << want;
  }

  // The registry reads the same atomics the engine bumps.
  obs::MetricsSnapshot m = svc.obs().registry.scrape();
  EXPECT_EQ(m.counter("engine.flushes"), 1u);
  // Gauges read the live service.
  bool saw_epoch = false;
  for (const auto& g : m.gauges) {
    if (g.name == "engine.epoch") {
      saw_epoch = true;
      EXPECT_EQ(g.value, e);
    }
  }
  EXPECT_TRUE(saw_epoch);
}

TEST(EngineTrace, ObsBundleOutlivesService) {
  engine::ServiceConfig cfg;
  cfg.num_vertices = 32;
  cfg.num_shards = 2;
  auto svc = std::make_unique<engine::SldService>(cfg);
  auto rng = test::test_rng();
  for (int i = 0; i < 40; ++i) {
    auto [u, v] = test::random_distinct_pair(rng, 32);
    svc->insert(u, v, rng.next_double());
  }
  svc->flush();
  auto snap = svc->snapshot();
  ASSERT_NE(snap->obs(), nullptr);
  std::shared_ptr<engine::EngineObs> bundle = snap->obs();

  svc.reset();  // service gone; the snapshot keeps the bundle alive

  obs::MetricsSnapshot m = bundle->registry.scrape();
  EXPECT_TRUE(m.gauges.empty());  // live-service gauges were cleared
  EXPECT_EQ(m.counters.size(), engine::EngineStats::kNumCounters);
  EXPECT_GT(m.counter("engine.inserts_enqueued"), 0u);
  const HistogramSnapshot* ft = m.histogram("flush.total");
  ASSERT_NE(ft, nullptr);
  EXPECT_EQ(ft->count, 1u);
  EXPECT_EQ(snap->trace().epoch, 1u);
}

}  // namespace
}  // namespace dynsld

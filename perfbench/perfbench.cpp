// perfbench: the end-to-end and per-layer benchmark of the dynsld engine.
//
//   perfbench --workload <ingest_graph|ingest_forest>
//             --seed <n> --seconds <s> --trace <0|1> --work-dir <dir>
//             [--tiny]
//
// Every workload is a seeded, fully generated op stream: a bulk load,
// then a fixed number of write batches (one caller-driven flush each,
// the background writer off, a full flat-clustering read of each
// published epoch after it) beside a fixed-count open-loop stream of
// point reads through submit(). Counts scale with --seconds, so a run
// ends when its work is done and two runs of one seed apply
// byte-identical batches. README.md gives each workload's reason and
// the layer map.
//
// --trace 0 drives the public SldService and prints the end-to-end
// metrics. --trace 1 runs that same pass, then replays the identical
// stream through the layers' own public entry points in the order
// SldService::flush() calls them (MutationQueue::drain, WAL append,
// ShardRouter::apply, build_snapshot, EpochManager::publish, WAL
// checkpoint, SubscriptionHub::notify), timing each call from outside,
// and prints the per-layer metrics. flush.apply lumps MSF maintenance
// and DynSLD together, so the traced pass feeds standalone per-shard
// DynamicClusterings the same sub-batches and a standalone DynSLD the
// forest changes they produced: msf self time is the difference.
//
// Every run checks its answers against a Kruskal oracle (union-find
// over the benchmark's own live-edge set): the final epoch at all four
// thresholds, every 8th post-flush flat clustering, and a seeded sample
// of point answers at their epochs. The
// last stdout line is one JSON object {correct, attempted, failed,
// metrics}; the exit code is non-zero when an answer was wrong or the
// run was invalid.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <future>
#include <memory>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <unistd.h>
#include <variant>
#include <vector>

#include "dynsld/dyn_sld.hpp"
#include "engine/broker.hpp"
#include "engine/cluster_view.hpp"
#include "engine/epoch.hpp"
#include "engine/mutation_queue.hpp"
#include "engine/shard_router.hpp"
#include "engine/sld_service.hpp"
#include "engine/subscription.hpp"
#include "msf/dynamic_msf.hpp"
#include "parallel/scheduler.hpp"
#include "persist/file_backend.hpp"
#include "persist/persist.hpp"

namespace {

using namespace dynsld;
using engine::EpochManager;
using engine::Query;
using engine::QueryRequest;
using engine::ResultSet;
using engine::ticket_t;
using Clock = std::chrono::steady_clock;

constexpr double kTaus[4] = {0.05, 0.2, 0.5, 0.8};
// Seed of the bulk-loaded graph, the same for every --seed (which
// drives the update and read streams). Label materialization cost
// depends on the graph's cluster structure: between two seed-drawn
// graphs of one workload it differed by a third, which moved the read
// latencies more than any run-to-run noise.
constexpr uint64_t kGraphSeed = 1;
// A generator whose median own send lateness exceeds this could not
// keep its schedule: the run is invalid, not slow. (Its tail lateness
// follows the host's preemptions of the whole VM; the latencies, timed
// from the due time, already charge it, and bench.steal_frac explains
// it.)
constexpr double kGenLateBoundUs = 100.0;
// submit() calls longer than this count as stalls.
constexpr double kStallUs = 1000.0;
// The generator sleeps until this long before a send is due, then
// spins. A sleeping thread here (4 vCPUs) was seen to wake up to ~5 ms
// late, so at the benchmark's rates (>= 400 req/s) it effectively
// spins between sends.
constexpr auto kSpin = std::chrono::microseconds(5000);
// Completed futures are reaped only while the next send is this far off.
constexpr auto kReapMargin = std::chrono::microseconds(100);
// Every this many flushes, the post-flush flat clustering is checked.
constexpr size_t kFlatCheckEvery = 8;

double since_us(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
uint64_t since_ns(Clock::time_point a, Clock::time_point b) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(b - a).count());
}
double ratio(double num, double den) { return den != 0.0 ? num / den : 0.0; }

/// Nearest-rank percentile (p in [0, 1]) of an unsorted sample.
double percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t k = static_cast<size_t>(std::ceil(p * static_cast<double>(v.size())));
  return v[std::clamp<size_t>(k, 1, v.size()) - 1];
}

/// Median over `w` consecutive equal slices [a, b) of [0, n) of
/// f(a, b), so one disturbed stretch of a run cannot move the result.
/// Requests are split in 5 windows, flushes (fewer) in 3; either way
/// each window keeps >= 10 samples beyond its percentile.
template <class F>
double windowed(size_t n, size_t w, F&& f) {
  std::vector<double> per;
  for (size_t k = 0; k < w; ++k) per.push_back(f(n * k / w, n * (k + 1) / w));
  return percentile(per, 0.5);
}

/// Windowed percentile of a sample kept in time order.
double windowed_pct(const std::vector<double>& v, size_t w, double p) {
  return windowed(v.size(), w, [&](size_t a, size_t b) {
    return percentile({v.begin() + a, v.begin() + b}, p);
  });
}

double sum(const std::vector<double>& v) {
  return std::accumulate(v.begin(), v.end(), 0.0);
}

/// splitmix64: a small, portable, seedable generator (the same seed
/// yields the same inputs on every platform).
struct Rng {
  uint64_t s;
  explicit Rng(uint64_t seed, uint64_t salt) : s(seed * 0x9E3779B97F4A7C15ull ^ salt) {}
  uint64_t next() {
    uint64_t z = (s += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  uint64_t below(uint64_t n) { return next() % n; }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
};

// ---------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------

struct Workload {
  std::string name;
  bool forest = false;     // parent forest, else cyclic band graph
  vertex_id n = 0;
  int shards = 4;
  int band = 3;            // band graph: edges to the next `band` vertices
  int window = 64;         // forest: parent among this many vertices below
  int moves = 32;          // per flush: (erase, insert) pairs
  int flushes = 0;
  double req_rate = 400;   // open-loop point reads per second
  int requests = 0;
  int setup_reps = 3;
};

Workload make_workload(const std::string& name, int seconds, bool tiny) {
  Workload w;
  w.name = name;
  if (name == "ingest_graph") {
    w.n = 65536;
    w.flushes = 20 * seconds;
  } else if (name == "ingest_forest") {
    w.forest = true;
    w.n = 262144;
    w.flushes = 28 * seconds;
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  w.requests = static_cast<int>(w.req_rate * seconds);
  if (tiny) {  // smoke-test scale: every code path, a fraction of a second
    w.n = w.forest ? 4096 : 2048;
    w.flushes = 8;
    w.req_rate = 2000;
    w.requests = 200;
  }
  return w;
}

struct Edge {
  vertex_id u, v;
  double w;
};

/// The write side of a run, fully generated before any clock starts.
/// Edge ids index `edges`; ids [0, initial) are the bulk load.
struct Stream {
  std::vector<Edge> edges;
  size_t initial = 0;
  struct Batch {
    std::vector<uint32_t> erase, insert;
  };
  std::vector<Batch> batches;
};

Stream make_stream(const Workload& w, uint64_t seed) {
  Rng grng(kGraphSeed, 0x5eed0001);  // the bulk-loaded graph
  Rng rng(seed, 0x5eed0004);         // the update stream
  Stream s;
  const vertex_id n = w.n;
  std::vector<uint32_t> live;      // graph: live edge ids (erase pool)
  std::vector<uint32_t> of_child;  // forest: the edge id holding v's parent
  std::vector<vertex_id> parent;
  if (w.forest) {
    of_child.assign(n, 0);
    parent.assign(n, 0);
    for (vertex_id v = 1; v < n; ++v) {
      vertex_id lo = v > static_cast<vertex_id>(w.window) ? v - w.window : 0;
      parent[v] = lo + static_cast<vertex_id>(grng.below(v - lo));
      of_child[v] = static_cast<uint32_t>(s.edges.size());
      s.edges.push_back({v, parent[v], grng.unit()});
    }
  } else {
    for (vertex_id u = 0; u < n; ++u)
      for (int d = 1; d <= w.band; ++d) {
        live.push_back(static_cast<uint32_t>(s.edges.size()));
        s.edges.push_back({u, (u + d) % n, grng.unit()});
      }
  }
  s.initial = s.edges.size();
  std::vector<uint32_t> moved_at(n, UINT32_MAX);
  for (int b = 0; b < w.flushes; ++b) {
    Stream::Batch batch;
    for (int m = 0; m < w.moves; ++m) {
      if (w.forest) {
        // Re-parent a vertex not yet moved in this batch (>= 2, so a
        // different parent below it exists); the graph stays a forest.
        vertex_id v;
        do {
          v = 2 + static_cast<vertex_id>(rng.below(n - 2));
        } while (moved_at[v] == static_cast<uint32_t>(b));
        moved_at[v] = static_cast<uint32_t>(b);
        vertex_id lo = v > static_cast<vertex_id>(w.window) ? v - w.window : 0;
        vertex_id p;
        do {
          p = lo + static_cast<vertex_id>(rng.below(v - lo));
        } while (p == parent[v]);
        batch.erase.push_back(of_child[v]);
        parent[v] = p;
        of_child[v] = static_cast<uint32_t>(s.edges.size());
        batch.insert.push_back(of_child[v]);
        s.edges.push_back({v, p, rng.unit()});
      } else {
        // Erase a uniformly chosen edge that was live before this batch,
        // then add a new band edge (u, u + 1..4).
        size_t i = rng.below(live.size());
        batch.erase.push_back(live[i]);
        live[i] = live.back();
        live.pop_back();
        vertex_id u = static_cast<vertex_id>(rng.below(n));
        vertex_id v = (u + 1 + static_cast<vertex_id>(rng.below(4))) % n;
        batch.insert.push_back(static_cast<uint32_t>(s.edges.size()));
        s.edges.push_back({u, v, rng.unit()});
      }
    }
    if (!w.forest) live.insert(live.end(), batch.insert.begin(), batch.insert.end());
    s.batches.push_back(std::move(batch));
  }
  return s;
}

/// One pre-generated point read.
struct ReadOp {
  Query q;
  bool sampled = false;  // answer re-checked against the oracle
};

/// The read stream: exact counts of every (kind, tau) combination —
/// half SameCluster, half ClusterSize, taus round-robin within each
/// kind — in a seeded random order.
std::vector<ReadOp> make_reads(const Workload& w, uint64_t seed) {
  Rng rng(seed, 0x5eed0002);
  const size_t n = w.requests;
  std::vector<ReadOp> out(n);
  for (size_t i = 0; i < n; ++i) {
    ReadOp& r = out[i];
    const double tau = kTaus[i % 4];
    const vertex_id a = static_cast<vertex_id>(rng.below(w.n));
    const vertex_id b = static_cast<vertex_id>(rng.below(w.n));
    if (i < n / 2) r.q = engine::SameClusterQuery{a, b, tau};
    else r.q = engine::ClusterSizeQuery{a, tau};
    r.sampled = rng.below(16) == 0;
  }
  for (size_t i = n; i > 1; --i) std::swap(out[i - 1], out[rng.below(i)]);
  return out;
}

// ---------------------------------------------------------------------
// Kruskal oracle
// ---------------------------------------------------------------------

/// Clusters at threshold tau = components of the live edges of weight
/// <= tau, by union-find over the benchmark's own live-edge set —
/// independent of every engine structure.
class Oracle {
 public:
  Oracle(const Stream& s, vertex_id n) : s_(s), n_(n), alive_(s.edges.size(), 0) {
    std::fill(alive_.begin(), alive_.begin() + s.initial, 1);
  }

  /// Move the live set forward to `epoch` (epoch 1 is the bulk load,
  /// epoch 1 + k follows write batch k).
  void advance_to(uint64_t epoch) {
    if (epoch < epoch_) throw std::logic_error("oracle cannot rewind");
    for (; epoch_ < epoch; ++epoch_) {
      const Stream::Batch& b = s_.batches.at(epoch_ - 1);
      for (uint32_t id : b.erase) alive_[id] = 0;
      for (uint32_t id : b.insert) alive_[id] = 1;
    }
    for (auto& r : roots_) r.clear();
  }

  /// Component root of every vertex at tau (cached per epoch).
  const std::vector<vertex_id>& roots(int tau_idx) {
    std::vector<vertex_id>& r = roots_[tau_idx];
    if (!r.empty()) return r;
    r.resize(n_);
    for (vertex_id v = 0; v < n_; ++v) r[v] = v;
    auto find = [&](vertex_id x) {
      while (r[x] != x) x = r[x] = r[r[x]];
      return x;
    };
    for (size_t id = 0; id < alive_.size(); ++id) {
      if (!alive_[id] || s_.edges[id].w > kTaus[tau_idx]) continue;
      vertex_id a = find(s_.edges[id].u), b = find(s_.edges[id].v);
      if (a != b) r[std::max(a, b)] = std::min(a, b);
    }
    for (vertex_id v = 0; v < n_; ++v) r[v] = find(v);
    sizes_[tau_idx].assign(n_, 0);
    for (vertex_id v = 0; v < n_; ++v) ++sizes_[tau_idx][r[v]];
    return r;
  }
  uint64_t size_of(int tau_idx, vertex_id v) {
    return sizes_[tau_idx][roots(tau_idx)[v]];
  }

 private:
  const Stream& s_;
  vertex_id n_;
  std::vector<char> alive_;
  uint64_t epoch_ = 1;
  std::vector<vertex_id> roots_[4];
  std::vector<uint64_t> sizes_[4];
};

/// Hash of the partition `labels` induces, in canonical form (each
/// vertex labeled by the smallest vertex of its cluster, which is what
/// Oracle::roots holds), so any two labelings of one partition hash
/// alike. 0 when a label is out of range.
uint64_t partition_hash(const std::vector<vertex_id>& labels) {
  const vertex_id n = static_cast<vertex_id>(labels.size());
  std::vector<vertex_id> first(n, kNoVertex);
  uint64_t h = 0xcbf29ce484222325ull;  // FNV-1a
  for (vertex_id v = 0; v < n; ++v) {
    const vertex_id l = labels[v];
    if (l >= n) return 0;
    if (first[l] == kNoVertex) first[l] = v;
    h = (h ^ first[l]) * 0x100000001b3ull;
  }
  return h;
}

int tau_index(double tau) {
  for (int i = 0; i < 4; ++i)
    if (kTaus[i] == tau) return i;
  throw std::logic_error("unexpected tau");
}

/// Is `res` the right answer to point query `q` at the oracle's
/// current epoch?
bool answer_ok(Oracle& o, const Query& q, const engine::QueryResult& res) {
  const int t = tau_index(engine::query_tau(q));
  if (auto* sc = std::get_if<engine::SameClusterQuery>(&q)) {
    const auto& r = o.roots(t);
    return std::get<bool>(res) == (r[sc->u] == r[sc->v]);
  }
  const auto& cs = std::get<engine::ClusterSizeQuery>(q);
  return std::get<uint64_t>(res) == o.size_of(t, cs.u);
}

/// Final-epoch check: every threshold's flat clustering equals the
/// oracle's partition. Returns the number of mismatching thresholds.
int check_final(Oracle& o, const EpochManager::Snap& snap) {
  o.advance_to(snap->epoch());
  int bad = 0;
  for (int t = 0; t < 4; ++t) {
    engine::ThresholdView view(snap, kTaus[t]);
    bad += partition_hash(view.flat_clustering()) != partition_hash(o.roots(t));
  }
  return bad;
}

// ---------------------------------------------------------------------
// Open-loop load generator
// ---------------------------------------------------------------------

struct Sample {
  size_t idx;
  ResultSet rs;
};

struct LoadResult {
  std::vector<double> point_us, submit_us;
  std::vector<double> late_us;  // the generator's own lateness per send
  std::vector<Sample> samples;
  uint64_t errors = 0;
};

/// Sends `reads` on a fixed schedule (one every 1/rate seconds from
/// `start`): sleeps until kSpin before each send is due, then spins.
/// Latency runs from when a request was due to its on_complete, so a
/// stall also charges the requests queued behind it. Every request,
/// future slot and completion stamp is allocated before `start`.
/// Completed futures are reaped in order while the next send is still
/// comfortably far away, so large answers do not pile up.
template <class Submit>
LoadResult run_load(const std::vector<ReadOp>& reads, double rate,
                    Clock::time_point start, bool time_submit,
                    Submit&& submit) {
  const size_t n = reads.size();
  LoadResult out;
  std::vector<QueryRequest> reqs(n);
  std::vector<std::future<ResultSet>> futs(n);
  std::vector<std::atomic<int64_t>> done(n);
  std::vector<double> due_us(n);
  for (size_t i = 0; i < n; ++i) {
    done[i].store(0, std::memory_order_relaxed);
    reqs[i].queries.push_back(reads[i].q);
    reqs[i].on_complete = [slot = &done[i], start] {
      slot->store(std::max<int64_t>(1, since_ns(start, Clock::now())),
                  std::memory_order_release);
    };
    due_us[i] = 1e6 * static_cast<double>(i) / rate;
  }
  out.point_us.reserve(n);
  out.late_us.reserve(n);
  out.submit_us.reserve(time_submit ? n : 0);
  out.samples.reserve(n / 8 + 1);

  size_t reaped = 0;
  Clock::time_point freed = start;  // when the last submit() returned
  auto reap_one = [&] {
    const size_t i = reaped++;
    try {
      ResultSet rs = futs[i].get();
      if (reads[i].sampled) out.samples.push_back({i, std::move(rs)});
    } catch (const engine::QueryError&) {
      ++out.errors;
    }
    int64_t d;
    while ((d = done[i].load(std::memory_order_acquire)) == 0) std::this_thread::yield();
    out.point_us.push_back(static_cast<double>(d) / 1e3 - due_us[i]);
  };
  for (size_t i = 0; i < n; ++i) {
    auto due = start + std::chrono::nanoseconds(static_cast<int64_t>(due_us[i] * 1e3));
    while (reaped < i && Clock::now() < due - kReapMargin &&
           done[reaped].load(std::memory_order_acquire) != 0)
      reap_one();
    if (Clock::now() < due - kSpin) std::this_thread::sleep_until(due - kSpin);
    Clock::time_point sent;
    while ((sent = Clock::now()) < due) {
    }
    // Own lateness: time blocked in the previous submit() is the
    // engine's stall, not the generator's.
    out.late_us.push_back(since_us(std::max(due, freed), sent));
    futs[i] = submit(std::move(reqs[i]));
    freed = Clock::now();
    if (time_submit) out.submit_us.push_back(since_us(sent, freed));
  }
  while (reaped < n) reap_one();
  return out;
}

// ---------------------------------------------------------------------
// Write loop (shared by the service and the traced component engine)
// ---------------------------------------------------------------------

struct WriteResult {
  std::vector<double> flush_ms;
  std::vector<double> busy_s;  // per batch: time spent enqueuing + flushing
  std::vector<double> ops;     // per batch
  std::vector<double> flat_ms;  // per batch: the post-flush flat read
  struct FlatCheck {
    uint64_t epoch;
    int tau_idx;
    uint64_t hash;
  };
  std::vector<FlatCheck> flat_checks;  // every kFlatCheckEvery-th read
  int epoch_mismatches = 0;
};

/// Enqueue the bulk load and flush it (the service's epoch 1).
template <class Eng>
void bulk_load(Eng& eng, const Stream& s, std::vector<ticket_t>& tickets) {
  tickets.assign(s.edges.size(), engine::kNoTicket);
  for (size_t id = 0; id < s.initial; ++id)
    tickets[id] = eng.insert(s.edges[id].u, s.edges[id].v, s.edges[id].w);
  if (eng.flush() != 1) throw std::runtime_error("bulk load did not publish epoch 1");
}

/// Apply every write batch in a closed loop, one flush each. After each
/// flush, read the published epoch's full flat clustering at one tau
/// (rotating) from a fresh snapshot, as a reader of every write would.
template <class Eng>
WriteResult write_loop(Eng& eng, const Stream& s, std::vector<ticket_t>& tickets) {
  WriteResult out;
  out.flush_ms.reserve(s.batches.size());
  out.busy_s.reserve(s.batches.size());
  out.ops.reserve(s.batches.size());
  out.flat_ms.reserve(s.batches.size());
  for (size_t k = 0; k < s.batches.size(); ++k) {
    const Stream::Batch& b = s.batches[k];
    auto t0 = Clock::now();
    for (uint32_t id : b.erase) eng.erase(tickets[id]);
    for (uint32_t id : b.insert)
      tickets[id] = eng.insert(s.edges[id].u, s.edges[id].v, s.edges[id].w);
    auto t1 = Clock::now();
    uint64_t e = eng.flush();
    auto t2 = Clock::now();
    out.epoch_mismatches += e != k + 2;
    out.flush_ms.push_back(since_us(t1, t2) / 1e3);
    out.busy_s.push_back(since_us(t0, t2) / 1e6);
    out.ops.push_back(b.erase.size() + b.insert.size());
    const int t = static_cast<int>(k % 4);
    EpochManager::Snap snap = eng.snapshot();
    std::vector<vertex_id> flat = snap->flat_clustering(kTaus[t]);
    out.flat_ms.push_back(since_us(t2, Clock::now()) / 1e3);
    if (k % kFlatCheckEvery == 0)
      out.flat_checks.push_back({snap->epoch(), t, partition_hash(flat)});
  }
  return out;
}

/// A fresh WAL directory inside the work dir, removed on destruction.
class TempDir {
 public:
  TempDir(const std::string& root, const std::string& tag) {
    static int counter = 0;
    path_ = root + "/" + tag + "-" + std::to_string(getpid()) + "-" +
            std::to_string(counter++);
    std::filesystem::remove_all(path_);
    std::filesystem::create_directories(path_);
  }
  ~TempDir() {
    std::error_code ec;
    std::filesystem::remove_all(path_, ec);
  }
  TempDir(const TempDir&) = delete;
  TempDir& operator=(const TempDir&) = delete;
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

persist::PersistOptions wal_options(const std::string& dir) {
  persist::PersistOptions p;
  p.dir = dir;
  p.fsync_policy = persist::FsyncPolicy::kOff;
  return p;
}

// ---------------------------------------------------------------------
// Traced component engine
// ---------------------------------------------------------------------

/// Standalone replica of one shard's write path: a DynamicClustering
/// fed the router's per-shard sub-batches, and a DynSLD fed the net
/// forest changes those calls produced (read off the clustering's
/// structure journal).
struct ShardSplit {
  struct Tree {
    Edge e;
    edge_id replay = kNoEdge;  // kNoEdge: not a forest edge now
  };
  std::unique_ptr<DynamicClustering> msf;
  std::unique_ptr<DynSLD> sld;
  std::vector<Tree> forest;  // by the clustering's forest-edge id

  explicit ShardSplit(vertex_id n)
      : msf(std::make_unique<DynamicClustering>(n)),
        sld(std::make_unique<DynSLD>(n)) {
    msf->sld().enable_structure_journal(size_t{1} << 40);
  }

  /// Replay the net forest change of the last clustering call into the
  /// standalone DynSLD. Returns its time; `added` gets the number of
  /// forest edges that appeared.
  uint64_t replay(size_t* added) {
    DynSLD& src = msf->sld();
    const Dendrogram::Journal& j = src.structure_journal();
    std::vector<edge_id> ids(j.added.begin(), j.added.end());
    for (const auto& r : j.removed) ids.push_back(r.e);
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    std::vector<edge_id> gone;
    std::vector<DynSLD::EdgeInsert> fresh;
    std::vector<edge_id> fresh_src;
    for (edge_id id : ids) {
      if (forest.size() <= id) forest.resize(id + 1);
      Tree& t = forest[id];
      const bool before = t.replay != kNoEdge;
      const bool after = src.edge_alive(id);
      WeightedEdge cur = after ? src.edge(id) : WeightedEdge{};
      const bool same = before && after && t.e.u == cur.u && t.e.v == cur.v &&
                        t.e.w == cur.weight;
      if (same) continue;
      if (before) {
        gone.push_back(t.replay);
        t.replay = kNoEdge;
      }
      if (after) {
        fresh.push_back({cur.u, cur.v, cur.weight});
        fresh_src.push_back(id);
      }
    }
    src.clear_structure_journal();
    auto t0 = Clock::now();
    if (gone.size() == 1) sld->erase(gone[0]);
    if (gone.size() > 1) sld->erase_batch(gone);
    std::vector<edge_id> made;
    if (fresh.size() == 1)
      made.push_back(sld->insert_output_sensitive(fresh[0].u, fresh[0].v, fresh[0].weight));
    if (fresh.size() > 1) made = sld->insert_batch(fresh);
    auto t1 = Clock::now();
    for (size_t i = 0; i < made.size(); ++i) {
      const auto& f = fresh[i];
      forest[fresh_src[i]] = Tree{{f.u, f.v, f.weight}, made[i]};
    }
    *added = fresh.size();
    return since_ns(t0, t1);
  }
};

/// Max node depth of a dendrogram (the paper's h), iteratively.
size_t dendrogram_height(const Dendrogram& d) {
  std::vector<uint32_t> depth(d.capacity(), 0);
  std::vector<edge_id> path;
  size_t h = 0;
  for (edge_id e = 0; e < d.capacity(); ++e) {
    if (!d.alive(e) || depth[e]) continue;
    path.clear();
    edge_id x = e;
    while (x != kNoEdge && !depth[x]) {
      path.push_back(x);
      x = d.parent(x);
    }
    uint32_t base = x == kNoEdge ? 0 : depth[x];
    for (auto it = path.rbegin(); it != path.rend(); ++it) depth[*it] = ++base;
    h = std::max<size_t>(h, base);
  }
  return h;
}

/// Per-layer totals accumulated over the measured batches of the
/// traced pass (the bulk load is excluded).
struct Layers {
  uint64_t flushes = 0, ops = 0;
  uint64_t wall_ns = 0, drain_ns = 0, wal_ns = 0, apply_ns = 0, freeze_ns = 0,
           publish_ns = 0, checkpoint_ns = 0, checkpoints = 0, dirty_shards = 0;
  uint64_t msf_ns = 0, sld_ns = 0, parent_changes = 0, shard_erases = 0,
           tree_erases = 0, replaced = 0;
  uint64_t refresh_ns = 0, refreshes = 0, lookup_ns = 0, lookups = 0,
           labels_ns = 0, labels = 0;
};

/// The service's write path assembled from its public components, so
/// each layer's call can be timed from outside. Mirrors SldService's
/// construction and flush() order (see sld_service.cpp).
class TracedEngine {
 public:
  TracedEngine(const Workload& w, const std::string& wal_dir)
      : router_(w.n, w.shards, SpineIndex::kLct, obs_) {
    epochs_.set_retention(engine::ServiceConfig{}.retain_epochs);
    epochs_.publish(router_.build_snapshot(0, nullptr, false));
    broker_ = std::make_unique<engine::QueryBroker>(
        epochs_, hub_, obs_, engine::QueryBroker::Options{});
    persist_ = std::make_unique<persist::PersistenceManager>(
        wal_options(wal_dir), persist::local_backend(), obs_);
    persist_->require_fresh();
    const engine::ShardMap& map = router_.shard_map();
    for (int k = 0; k < map.num_shards; ++k)
      split_.push_back(std::make_unique<ShardSplit>(std::max<vertex_id>(map.local_size(k), 1)));
    Rng rng(w.n, 0x5eed0003);
    for (auto& p : probes_)
      p = {static_cast<vertex_id>(rng.below(w.n)), static_cast<vertex_id>(rng.below(w.n))};
  }
  ~TracedEngine() { broker_->shutdown(); }
  TracedEngine(const TracedEngine&) = delete;
  TracedEngine& operator=(const TracedEngine&) = delete;

  ticket_t insert(vertex_id u, vertex_id v, double w) {
    return queue_.enqueue_insert(u, v, w);
  }
  void erase(ticket_t t) { queue_.enqueue_erase(t); }
  std::future<ResultSet> submit(QueryRequest r) { return broker_->submit(std::move(r)); }

  /// One flush in SldService::flush() order, each call timed; then
  /// (outside the flush's wall time) the view-layer probes for the
  /// epoch just published. The batch is kept for split_all().
  uint64_t flush() {
    auto t0 = Clock::now();
    engine::MutationQueue::Drained batch = queue_.drain();
    auto t1 = Clock::now();
    const uint64_t e = next_epoch_++;
    persist_->log_batch(e, batch);
    auto t2 = Clock::now();
    router_.apply(batch);
    auto t3 = Clock::now();
    EpochManager::Snap prev = epochs_.acquire();
    obs::EpochTrace seed;
    seed.ops = batch.size();
    seed.drain_ns = since_ns(t0, t1);
    seed.apply_ns = since_ns(t2, t3);
    auto t4 = Clock::now();
    EpochManager::Snap snap = router_.build_snapshot(e, prev.get(), false, seed);
    auto t5 = Clock::now();
    epochs_.publish(snap);
    auto t6 = Clock::now();
    const uint64_t ck = persist_->last_checkpoint();
    persist_->on_publish(*snap, queue_.next_ticket());
    auto t7 = Clock::now();
    hub_.notify(snap);
    auto t8 = Clock::now();
    prev.reset();
    if (measuring_) {
      Layers& L = layers_;
      ++L.flushes;
      L.ops += batch.size();
      L.wall_ns += since_ns(t0, t8);
      L.drain_ns += since_ns(t0, t1);
      L.wal_ns += since_ns(t1, t2) + since_ns(t6, t7);
      L.apply_ns += since_ns(t2, t3);
      L.freeze_ns += since_ns(t4, t5);
      L.publish_ns += since_ns(t5, t6) + since_ns(t7, t8);
      L.dirty_shards += snap->delta().num_rebuilt();
      if (persist_->last_checkpoint() != ck) {
        ++L.checkpoints;
        L.checkpoint_ns += since_ns(t6, t7);
      }
    }
    if (measuring_) probe_views(snap);
    batches_.push_back(std::move(batch));
    return e;
  }

  void start_measuring() {
    measuring_ = true;
    first_measured_ = batches_.size();
    for (int t = 0; t < 4; ++t)
      views_[t] = std::make_shared<engine::ThresholdView>(epochs_.acquire(), kTaus[t]);
    base_ = obs_->stats.report();
  }

  /// Replay every flushed batch through the standalone per-shard
  /// write path (after the pass, so the split's own work does not
  /// interleave with the timed flushes). Returns the number of shards
  /// whose replayed DynSLD ended with a different forest size than the
  /// clustering it shadows (a broken split; counted as failures).
  int split_all() {
    for (size_t i = 0; i < batches_.size(); ++i) split(batches_[i], i >= first_measured_);
    batches_.clear();
    int bad = 0;
    for (const auto& s : split_) bad += s->sld->num_edges() != s->msf->num_tree_edges();
    return bad;
  }
  const Layers& layers() const { return layers_; }
  engine::EngineStats::Report stats_delta() const {
    engine::EngineStats::Report now = obs_->stats.report(), d{};
#define PERFBENCH_DELTA(name) d.name = now.name - base_.name;
    DYNSLD_ENGINE_COUNTERS(PERFBENCH_DELTA)
#undef PERFBENCH_DELTA
    return d;
  }
  EpochManager::Snap snapshot() const { return epochs_.acquire(); }
  uint64_t nontree_edges() const {
    uint64_t k = 0;
    for (const auto& s : split_) k += s->msf->num_edges() - s->msf->num_tree_edges();
    return k;
  }
  size_t height() const {
    size_t h = 0;
    for (const auto& s : split_) h = std::max(h, dendrogram_height(s->msf->dendrogram()));
    return h;
  }

 private:
  struct Loc {
    int shard = -1;  // -1: cross table
    DynamicClustering::graph_edge handle = 0;
  };

  /// Route the batch exactly as ShardRouter::apply does (erases then
  /// inserts per shard) into the standalone clusterings, timing the
  /// clustering calls and the DynSLD replay of their forest changes.
  void split(const engine::MutationQueue::Drained& batch, bool measured) {
    const engine::ShardMap& map = router_.shard_map();
    const size_t K = split_.size();
    std::vector<std::vector<DynamicClustering::graph_edge>> erases(K);
    std::vector<std::vector<DynamicClustering::EdgeUpdate>> inserts(K);
    std::vector<std::vector<ticket_t>> insert_tickets(K);
    for (const auto& op : batch.erases) {
      const Loc& l = locs_.at(op.ticket);
      if (l.shard >= 0) erases[l.shard].push_back(l.handle);
    }
    for (const auto& op : batch.inserts) {
      if (locs_.size() <= op.ticket) locs_.resize(op.ticket + 1);
      if (!map.intra(op.u, op.v)) continue;
      int k = map.home(op.u);
      vertex_id base = map.base(k);
      inserts[k].push_back({op.u - base, op.v - base, op.w});
      insert_tickets[k].push_back(op.ticket);
    }
    for (size_t k = 0; k < K; ++k) {
      ShardSplit& s = *split_[k];
      size_t added = 0;
      uint64_t msf_ns = 0, sld_ns = 0, changes = 0;
      if (!erases[k].empty()) {
        for (auto g : erases[k]) layers_.tree_erases += measured && s.msf->is_tree_edge(g);
        auto t0 = Clock::now();
        s.msf->erase_edges(erases[k]);
        msf_ns += since_ns(t0, Clock::now());
        changes += s.msf->sld().structure_journal().parent_changed.size();
        sld_ns += s.replay(&added);
        if (measured) {
          layers_.shard_erases += erases[k].size();
          layers_.replaced += added;
        }
      }
      if (!inserts[k].empty()) {
        auto t0 = Clock::now();
        std::vector<DynamicClustering::graph_edge> h = s.msf->insert_edges(inserts[k]);
        msf_ns += since_ns(t0, Clock::now());
        changes += s.msf->sld().structure_journal().parent_changed.size();
        sld_ns += s.replay(&added);
        for (size_t i = 0; i < h.size(); ++i)
          locs_[insert_tickets[k][i]] = Loc{static_cast<int>(k), h[i]};
      }
      if (measured) {
        layers_.msf_ns += msf_ns;
        layers_.sld_ns += sld_ns;
        layers_.parent_changes += changes;
      }
    }
  }

  /// View-layer probes on the epoch just published: refresh the
  /// standing per-tau views, time point lookups on them, and
  /// materialize one tau's flat labels (rotating).
  void probe_views(const EpochManager::Snap& snap) {
    for (int t = 0; t < 4; ++t) {
      auto t0 = Clock::now();
      views_[t] = engine::ThresholdView::refreshed(views_[t], snap);
      layers_.refresh_ns += since_ns(t0, Clock::now());
      ++layers_.refreshes;
    }
    auto t0 = Clock::now();
    for (const auto& view : views_)
      for (const auto& [a, b] : probes_) {
        view->same_cluster(a, b);
        view->cluster_size(a);
      }
    layers_.lookup_ns += since_ns(t0, Clock::now());
    layers_.lookups += 2 * views_.size() * probes_.size();
    auto t1 = Clock::now();
    views_[layers_.flushes % 4]->flat_clustering();
    layers_.labels_ns += since_ns(t1, Clock::now());
    ++layers_.labels;
  }

  std::shared_ptr<engine::EngineObs> obs_ = std::make_shared<engine::EngineObs>();
  engine::MutationQueue queue_{&obs_->stats};
  engine::ShardRouter router_;
  EpochManager epochs_;
  engine::SubscriptionHub hub_;
  std::unique_ptr<engine::QueryBroker> broker_;  // after hub_: dies first
  std::unique_ptr<persist::PersistenceManager> persist_;
  uint64_t next_epoch_ = 1;
  std::vector<std::unique_ptr<ShardSplit>> split_;
  std::vector<Loc> locs_;  // by ticket
  std::array<std::shared_ptr<const engine::ThresholdView>, 4> views_;
  std::array<std::pair<vertex_id, vertex_id>, 64> probes_;
  bool measuring_ = false;
  std::vector<engine::MutationQueue::Drained> batches_;  // for split_all()
  size_t first_measured_ = 0;
  Layers layers_;
  engine::EngineStats::Report base_{};
};

// ---------------------------------------------------------------------
// Runs
// ---------------------------------------------------------------------

struct Options {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 0;
  bool trace = false;
  bool tiny = false;
  std::string work_dir;
};

/// Re-check the sampled point answers and post-flush flat clusterings
/// at their epochs. Returns mismatches.
uint64_t check_samples(const Stream& s, const Workload& w,
                       const std::vector<ReadOp>& reads, std::vector<Sample>& samples,
                       const std::vector<WriteResult::FlatCheck>& flats) {
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.rs.epoch < b.rs.epoch; });
  uint64_t bad = 0;
  Oracle o(s, w.n);
  for (const Sample& smp : samples) {
    o.advance_to(smp.rs.epoch);
    bad += !answer_ok(o, reads[smp.idx].q, smp.rs.results.at(0));
  }
  Oracle of(s, w.n);
  for (const auto& f : flats) {  // in epoch order
    of.advance_to(f.epoch);
    bad += f.hash != partition_hash(of.roots(f.tau_idx));
  }
  return bad;
}

struct PassResult {
  WriteResult write;
  LoadResult load;
  int final_mismatches = 0;
  uint64_t wrong = 0;
};

/// Run the writer (this thread) beside the read generator (one more
/// thread) from a common start, then check the answers.
template <class Eng>
PassResult run_pass(Eng& eng, const Stream& s, const Workload& w,
                    const std::vector<ReadOp>& reads,
                    std::vector<ticket_t>& tickets, bool traced) {
  PassResult r;
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(20);
  {
    std::jthread gen([&] {
      r.load = run_load(reads, w.req_rate, start, traced,
                        [&](QueryRequest q) { return eng.submit(std::move(q)); });
    });
    std::this_thread::sleep_until(start);
    r.write = write_loop(eng, s, tickets);
  }
  Oracle o(s, w.n);
  r.final_mismatches = check_final(o, eng.snapshot());
  r.wrong = check_samples(s, w, reads, r.load.samples, r.write.flat_checks);
  return r;
}

struct Metric {
  std::string name, unit;
  double value;
};

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Aggregate non-idle CPU ticks (steal included) and steal ticks from
/// /proc/stat (0, 0 when unavailable).
std::pair<uint64_t, uint64_t> cpu_ticks() {
  std::ifstream f("/proc/stat");
  std::string cpu;
  uint64_t busy = 0, steal = 0, x;
  if (!(f >> cpu) || cpu != "cpu") return {0, 0};
  for (int i = 0; i < 8 && (f >> x); ++i) {
    if (i != 3 && i != 4) busy += x;  // skip idle and iowait
    if (i == 7) steal = x;
  }
  return {busy, steal};
}

int usable_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return CPU_COUNT(&set);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto val = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + a);
      return argv[++i];
    };
    if (a == "--workload") o.workload = val();
    else if (a == "--seed") o.seed = std::stoull(val());
    else if (a == "--seconds") o.seconds = std::stoi(val());
    else if (a == "--trace") o.trace = std::stoi(val()) != 0;
    else if (a == "--work-dir") o.work_dir = val();
    else if (a == "--tiny") o.tiny = true;
    else throw std::invalid_argument("unknown argument " + a);
  }
  if (o.workload.empty() || o.work_dir.empty() || o.seconds < 1)
    throw std::invalid_argument("need --workload, --work-dir and --seconds >= 1");
  return o;
}

int run(const Options& opt) {
  const auto [ticks0, steal0] = cpu_ticks();
  const Workload w = make_workload(opt.workload, opt.seconds, opt.tiny);

  // Fixed environment: a pinned pool, and the writer, the generator and
  // the broker dispatcher (plus pool workers beyond the caller) within
  // the usable CPUs.
  const int pool = par::Scheduler::instance().num_workers();
  if (!std::getenv("DYNSLD_NUM_THREADS"))
    throw std::runtime_error("DYNSLD_NUM_THREADS must pin the pool size");
  const int threads = 3 + (pool - 1);
  if (threads > usable_cpus())
    throw std::runtime_error("thread budget " + std::to_string(threads) +
                             " exceeds the " + std::to_string(usable_cpus()) +
                             " usable CPUs");

  const Stream s = make_stream(w, opt.seed);
  const std::vector<ReadOp> reads = make_reads(w, opt.seed);
  std::filesystem::create_directories(opt.work_dir);

  // Untraced pass through the public service. Set-up (service
  // construction through the bulk-load flush) repeats; the last
  // service serves the measured pass.
  std::vector<double> setup_s;
  std::unique_ptr<engine::SldService> svc;
  std::unique_ptr<TempDir> dir;
  std::vector<ticket_t> tickets;
  for (int rep = 0; rep < w.setup_reps; ++rep) {
    svc.reset();
    dir = std::make_unique<TempDir>(opt.work_dir, w.name);
    auto t0 = Clock::now();
    engine::ServiceConfig cfg;
    cfg.num_vertices = w.n;
    cfg.num_shards = w.shards;
    cfg.persist = wal_options(dir->path());
    svc = std::make_unique<engine::SldService>(cfg);
    bulk_load(*svc, s, tickets);
    setup_s.push_back(since_us(t0, Clock::now()) / 1e6);
  }
  PassResult plain = run_pass(*svc, s, w, reads, tickets, false);
  svc.reset();
  dir.reset();

  uint64_t attempted = sum(plain.write.ops) + reads.size();
  uint64_t failed = plain.load.errors + plain.wrong + plain.final_mismatches +
                    plain.write.epoch_mismatches;
  const double late_p99 = percentile(plain.load.late_us, 0.99);
  bool valid = percentile(plain.load.late_us, 0.5) <= kGenLateBoundUs;
  std::vector<Metric> m;

  if (!opt.trace) {
    const WriteResult& wr = plain.write;
    const LoadResult& ld = plain.load;
    m = {
        {"setup_s", "s", percentile(setup_s, 0.5)},
        {"ingest_ops_per_s", "ops/s",
         windowed(wr.ops.size(), 3,
                  [&](size_t a, size_t b) {
                    return ratio(std::accumulate(wr.ops.begin() + a, wr.ops.begin() + b, 0.0),
                                 std::accumulate(wr.busy_s.begin() + a, wr.busy_s.begin() + b, 0.0));
                  })},
        {"flush_p50_ms", "ms", windowed_pct(wr.flush_ms, 3, 0.5)},
        {"flush_p90_ms", "ms", windowed_pct(wr.flush_ms, 3, 0.9)},
        {"flat_read_p50_ms", "ms", windowed_pct(wr.flat_ms, 3, 0.5)},
        {"query_p50_us", "us", windowed_pct(ld.point_us, 5, 0.5)},
        {"peak_rss_mb", "MB", peak_rss_mb()},
    };
  } else {
    TempDir tdir(opt.work_dir, w.name + "-traced");
    TracedEngine eng(w, tdir.path());
    std::vector<ticket_t> tt;
    bulk_load(eng, s, tt);
    eng.start_measuring();
    PassResult traced = run_pass(eng, s, w, reads, tt, true);
    attempted += sum(traced.write.ops) + reads.size();
    failed += traced.load.errors + traced.wrong + traced.final_mismatches +
              traced.write.epoch_mismatches + eng.split_all();
    valid = valid && percentile(traced.load.late_us, 0.5) <= kGenLateBoundUs;

    const Layers& L = eng.layers();
    const engine::EngineStats::Report d = eng.stats_delta();
    const double ops = static_cast<double>(L.ops), fl = static_cast<double>(L.flushes);
    // ShardRouter::apply is stood in for by the standalone msf + dynsld
    // split, timed on its own: what stays unattributed is the router's
    // own work beyond the shards' clusterings, any gap between the
    // timed calls, and any divergence of the split from the router.
    const uint64_t attributed = L.drain_ns + L.wal_ns + L.msf_ns + L.freeze_ns + L.publish_ns;
    double plain_flush_ns = 0;
    for (double x : plain.write.flush_ms) plain_flush_ns += x * 1e6;
    const auto [ticks1, steal1] = cpu_ticks();
    const std::vector<double>& sub = traced.load.submit_us;
    m = {
        {"msf.self_us_per_op", "us", ratio((double(L.msf_ns) - double(L.sld_ns)) / 1e3, ops)},
        {"msf.tree_erase_frac", "fraction", ratio(L.tree_erases, L.shard_erases)},
        {"msf.replaced_frac", "fraction", ratio(L.replaced, L.tree_erases)},
        {"msf.nontree_edges", "count", double(eng.nontree_edges())},
        {"dynsld.update_us_per_op", "us", ratio(L.sld_ns / 1e3, ops)},
        {"dynsld.parent_changes_per_op", "count", ratio(L.parent_changes, ops)},
        {"dynsld.height", "count", double(eng.height())},
        {"freeze.us_per_flush", "us", ratio(L.freeze_ns / 1e3, fl)},
        {"freeze.patched_frac", "fraction",
         ratio(d.shard_snapshots_patched, d.shard_snapshots_built)},
        {"freeze.rounds_rerun_frac", "fraction",
         ratio(d.contraction_rounds_rerun, d.contraction_rounds_total)},
        {"wal.append_us", "us", ratio((L.wal_ns - L.checkpoint_ns) / 1e3, fl)},
        {"wal.bytes_per_op", "B", ratio(d.wal_bytes, ops)},
        {"wal.checkpoint_ms", "ms", ratio(L.checkpoint_ns / 1e6, L.checkpoints)},
        {"wal.checkpoints", "count", double(L.checkpoints)},
        {"queue.drain_us", "us", ratio(L.drain_ns / 1e3, fl)},
        {"queue.coalesced_frac", "fraction", ratio(2.0 * d.coalesced_pairs, ops)},
        {"router.apply_us", "us", ratio(L.apply_ns / 1e3, fl)},
        {"router.cross_frac", "fraction", ratio(d.cross_ops, ops)},
        {"router.dirty_shards_per_flush", "count", ratio(L.dirty_shards, fl)},
        {"publish.us_per_flush", "us", ratio(L.publish_ns / 1e3, fl)},
        {"broker.submit_p99_us", "us", percentile(sub, 0.99)},
        {"broker.submit_stalls", "count",
         double(std::count_if(sub.begin(), sub.end(), [](double x) { return x > kStallUs; }))},
        {"broker.groups_per_cycle", "count", ratio(d.broker_groups, d.broker_batches)},
        {"view.refresh_us", "us", ratio(L.refresh_ns / 1e3, L.refreshes)},
        {"view.lookup_ns", "ns", ratio(L.lookup_ns, L.lookups)},
        {"view.full_refresh_frac", "fraction",
         ratio(d.refresh_views_full, d.refresh_views_full + d.refresh_views_incremental +
                                         d.refresh_views_reused)},
        {"labels.materialize_us", "us", ratio(L.labels_ns / 1e3, L.labels)},
        {"labels.patched_frac", "fraction",
         ratio(d.labels_patched, d.labels_patched + d.labels_rebuilt + d.labels_reused)},
        {"tail.query_p99_us", "us", windowed_pct(plain.load.point_us, 5, 0.99)},
        {"tail.flat_read_p90_ms", "ms", windowed_pct(plain.write.flat_ms, 3, 0.9)},
        {"bench.gen_late_p99_us", "us", late_p99},
        {"bench.steal_frac", "fraction", ratio(steal1 - steal0, ticks1 - ticks0)},
        {"bench.unattributed_frac", "fraction", 1.0 - ratio(attributed, L.wall_ns)},
        {"bench.trace_overhead_frac", "fraction", ratio(L.wall_ns, plain_flush_ns) - 1.0},
    };
  }

  if (!valid)
    std::fprintf(stderr, "perfbench: invalid run: generator median lateness above %.0f us\n",
                 kGenLateBoundUs);
  if (failed)
    std::fprintf(stderr, "perfbench: %llu failed (errors, wrong answers or epoch drift)\n",
                 static_cast<unsigned long long>(failed));
  const bool correct = valid && failed == 0;
  std::ostringstream js;
  js.precision(17);
  js << "{\"correct\": " << (correct ? "true" : "false") << ", \"attempted\": " << attempted
     << ", \"failed\": " << failed << ", \"metrics\": {";
  for (size_t i = 0; i < m.size(); ++i) {
    double v = std::isfinite(m[i].value) ? m[i].value : 0.0;
    js << (i ? ", " : "") << "\"" << m[i].name << "\": {\"value\": " << v
       << ", \"unit\": \"" << m[i].unit << "\"}";
  }
  js << "}}";
  std::printf("%s\n", js.str().c_str());
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}

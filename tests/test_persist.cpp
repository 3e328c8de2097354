// Durability plane tests: WAL framing and torn tails, checkpoint
// round-trips, compaction, crash-injected recovery, and AsOf time
// travel.
//
// The centerpiece is the crash-injection harness: a FaultBackend that
// kills the write path after a byte budget — mid-record, mid-header,
// mid-checkpoint, wherever the budget lands — so randomized budgets
// sweep crash points across every structure the plane writes. After
// each injected crash the directory is recovered with the real backend
// and the republished epochs must match the pre-crash run BIT FOR BIT:
// exact flat-label arrays (labels are canonical — a pure function of
// the snapshot and tau), exact size histograms, exact cluster counts.
// Every workload draws distinct edge weights, which is what makes the
// dendrogram (and hence the replayed snapshot) unique; equal-weight
// ties are the documented exactness caveat (docs/DURABILITY.md).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "engine/cluster_view.hpp"
#include "engine/query.hpp"
#include "engine/sld_service.hpp"
#include "persist/bytes.hpp"
#include "persist/checkpoint.hpp"
#include "persist/crc32c.hpp"
#include "persist/file_backend.hpp"
#include "persist/persist.hpp"
#include "persist/wal.hpp"
#include "test_util.hpp"

namespace dynsld::engine {
namespace {

namespace fs = std::filesystem;

/// A unique scratch directory, recursively removed on destruction.
struct TempDir {
  std::string path;
  TempDir() {
    static std::atomic<int> seq{0};
    path = (fs::temp_directory_path() /
            ("dynsld_persist_" + std::to_string(seq.fetch_add(1)) + "_" +
             std::to_string(
                 reinterpret_cast<uintptr_t>(this) & 0xffffffu)))
               .string();
    fs::create_directories(path);
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
};

/// Crash injection: delegates to the real backend until a byte budget
/// runs out, then dies. The fatal append writes exactly the remaining
/// budget — a torn prefix on disk, like a crash mid-write(2) — and
/// every later write fails. write_atomic is all-or-nothing, honoring
/// the rename-publication contract: with insufficient budget NOTHING
/// lands. Reads and directory ops never fail (recovery uses them).
class FaultBackend : public persist::FileBackend {
 public:
  FaultBackend(std::shared_ptr<persist::FileBackend> inner, uint64_t budget)
      : inner_(std::move(inner)), budget_(budget) {}

  bool dead() const { return dead_; }

  bool mkdirs(const std::string& dir) override { return inner_->mkdirs(dir); }
  std::vector<std::string> list(const std::string& dir) override {
    return inner_->list(dir);
  }
  bool read_file(const std::string& path, std::string* out) override {
    return inner_->read_file(path, out);
  }
  bool remove(const std::string& path) override { return inner_->remove(path); }
  bool truncate(const std::string& path, uint64_t size) override {
    return inner_->truncate(path, size);
  }

  std::unique_ptr<File> open_append(const std::string& path) override {
    if (dead_) return nullptr;
    auto f = inner_->open_append(path);
    if (!f) return nullptr;
    return std::make_unique<FaultFile>(std::move(f), this);
  }

  bool write_atomic(const std::string& path,
                    const std::string& bytes) override {
    if (dead_ || budget_ < bytes.size()) {
      dead_ = true;
      return false;
    }
    budget_ -= bytes.size();
    return inner_->write_atomic(path, bytes);
  }

 private:
  class FaultFile : public File {
   public:
    FaultFile(std::unique_ptr<File> inner, FaultBackend* owner)
        : inner_(std::move(inner)), owner_(owner) {}
    bool append(const void* data, size_t len) override {
      if (owner_->dead_) return false;
      if (owner_->budget_ >= len) {
        owner_->budget_ -= len;
        return inner_->append(data, len);
      }
      // The crash: a prefix lands, the rest never will.
      inner_->append(data, static_cast<size_t>(owner_->budget_));
      inner_->sync();
      owner_->budget_ = 0;
      owner_->dead_ = true;
      return false;
    }
    bool sync() override { return !owner_->dead_ && inner_->sync(); }
    uint64_t size() const override { return inner_->size(); }

   private:
    std::unique_ptr<File> inner_;
    FaultBackend* owner_;
  };

  std::shared_ptr<persist::FileBackend> inner_;
  uint64_t budget_;
  bool dead_ = false;
};

/// Distinct, deterministic edge weights (999983 is prime and coprime
/// with the multiplier, so idx -> weight is injective below it).
double unique_weight(uint64_t idx) {
  return static_cast<double>(idx * 2654435761ull % 999983ull) / 999983.0;
}

/// Everything one epoch must reproduce bit for bit after recovery.
struct EpochFingerprint {
  std::vector<vertex_id> labels;  // exact canonical label array
  SizeHistogram hist;
  uint64_t num_clusters = 0;
};

EpochFingerprint fingerprint(const EpochManager::Snap& snap, double tau) {
  EpochFingerprint fp;
  fp.labels = snap->flat_clustering(tau);
  ThresholdView view(snap, tau);
  fp.hist = view.size_histogram();
  fp.num_clusters = view.num_clusters();
  return fp;
}

void expect_fingerprint_eq(const EpochFingerprint& a,
                           const EpochFingerprint& b) {
  EXPECT_EQ(a.labels, b.labels);
  EXPECT_EQ(a.hist, b.hist);
  EXPECT_EQ(a.num_clusters, b.num_clusters);
}

// ---- low-level codecs -------------------------------------------------

TEST(Crc32c, KnownAnswerAndChaining) {
  // The CRC-32C check value: crc of the ASCII digits "123456789".
  const char digits[] = "123456789";
  EXPECT_EQ(persist::crc32c(digits, 9), 0xE3069283u);
  EXPECT_EQ(persist::crc32c("", 0), 0u);
  // Chaining: crc(a ++ b) == crc(b, seed = crc(a)).
  const std::string a = "hello ", b = "world";
  uint32_t whole = persist::crc32c((a + b).data(), a.size() + b.size());
  uint32_t chained =
      persist::crc32c(b.data(), b.size(), persist::crc32c(a.data(), a.size()));
  EXPECT_EQ(whole, chained);
}

TEST(Bytes, RoundTripAndUnderrunSafety) {
  persist::ByteWriter w;
  w.u8(7);
  w.u32(0xDEADBEEFu);
  w.u64(1ull << 40);
  w.f64(-0.125);
  std::vector<uint32_t> vec{1, 2, 3};
  w.pod_vec(vec);
  persist::ByteReader r(w.bytes().data(), w.bytes().size());
  EXPECT_EQ(r.u8(), 7u);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 1ull << 40);
  EXPECT_EQ(r.f64(), -0.125);
  EXPECT_EQ(r.pod_vec<uint32_t>(), vec);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
  // Underrun: zero values, sticky !ok(), no crash.
  EXPECT_EQ(r.u64(), 0u);
  EXPECT_FALSE(r.ok());
  // A pod_vec whose count field lies about the remaining bytes must
  // not allocate terabytes; it must just fail.
  persist::ByteWriter bad;
  bad.u64(1ull << 60);  // "count"
  persist::ByteReader br(bad.bytes().data(), bad.bytes().size());
  EXPECT_TRUE(br.pod_vec<uint64_t>().empty());
  EXPECT_FALSE(br.ok());
}

TEST(Wal, SegmentRoundTrip) {
  TempDir dir;
  persist::PersistOptions opts;
  opts.dir = dir.path;
  opts.fsync_policy = persist::FsyncPolicy::kEveryN;
  opts.fsync_every_n = 1;
  MutationQueue::Drained b1, b2;
  b1.inserts.push_back({0, 1, 2, 0.5});
  b1.inserts.push_back({1, 3, 4, 0.25});
  b2.erases.push_back({0, 1, 2});
  {
    persist::WalWriter w(persist::local_backend(), opts, nullptr);
    EXPECT_TRUE(w.append(1, b1));
    EXPECT_TRUE(w.append(2, b2));
    EXPECT_TRUE(w.append(3, {}));  // empty batches are legal records
  }
  std::string bytes;
  ASSERT_TRUE(persist::local_backend()->read_file(
      dir.path + "/" + persist::WalReader::segment_name(1), &bytes));
  auto scan = persist::WalReader::scan(bytes);
  ASSERT_TRUE(scan.ok);
  EXPECT_FALSE(scan.torn);
  ASSERT_EQ(scan.records.size(), 3u);
  EXPECT_EQ(scan.records[0].epoch, 1u);
  ASSERT_EQ(scan.records[0].batch.inserts.size(), 2u);
  EXPECT_EQ(scan.records[0].batch.inserts[1].ticket, 1u);
  EXPECT_EQ(scan.records[0].batch.inserts[1].w, 0.25);
  ASSERT_EQ(scan.records[1].batch.erases.size(), 1u);
  EXPECT_EQ(scan.records[1].batch.erases[0].v, 2u);
  EXPECT_TRUE(scan.records[2].batch.empty());
  // Name parsing is strict round-trip.
  uint64_t e = 0;
  EXPECT_TRUE(persist::WalReader::parse_segment_name(
      persist::WalReader::segment_name(42), &e));
  EXPECT_EQ(e, 42u);
  EXPECT_FALSE(persist::WalReader::parse_segment_name("wal-abc.log", &e));
  EXPECT_FALSE(persist::WalReader::parse_segment_name(
      persist::WalReader::segment_name(42) + ".tmp", &e));
}

TEST(Wal, TornTailStopsScanAndTruncates) {
  TempDir dir;
  persist::PersistOptions opts;
  opts.dir = dir.path;
  MutationQueue::Drained b;
  b.inserts.push_back({0, 1, 2, 0.5});
  {
    persist::WalWriter w(persist::local_backend(), opts, nullptr);
    ASSERT_TRUE(w.append(1, b));
    ASSERT_TRUE(w.append(2, b));
  }
  const std::string path =
      dir.path + "/" + persist::WalReader::segment_name(1);
  std::string clean;
  ASSERT_TRUE(persist::local_backend()->read_file(path, &clean));
  // Appending a valid record's PREFIX simulates a crash mid-append.
  std::string torn_rec = persist::WalWriter::encode_record(3, b);
  {
    std::ofstream f(path, std::ios::binary | std::ios::app);
    f.write(torn_rec.data(), static_cast<std::streamsize>(torn_rec.size() / 2));
  }
  std::string dirty;
  ASSERT_TRUE(persist::local_backend()->read_file(path, &dirty));
  auto scan = persist::WalReader::scan(dirty);
  ASSERT_TRUE(scan.ok);
  EXPECT_TRUE(scan.torn);
  EXPECT_EQ(scan.records.size(), 2u);
  EXPECT_EQ(scan.valid_bytes, clean.size());
  // A flipped payload byte is also a tear (CRC catches it) even though
  // the length field is intact.
  std::string corrupt = clean;
  corrupt[corrupt.size() - 3] ^= 0x40;
  auto scan2 = persist::WalReader::scan(corrupt);
  ASSERT_TRUE(scan2.ok);
  EXPECT_TRUE(scan2.torn);
  EXPECT_EQ(scan2.records.size(), 1u);
  // Truncation restores a clean segment.
  ASSERT_TRUE(persist::local_backend()->truncate(path, scan.valid_bytes));
  std::string fixed;
  ASSERT_TRUE(persist::local_backend()->read_file(path, &fixed));
  EXPECT_FALSE(persist::WalReader::scan(fixed).torn);
}

TEST(Wal, FsyncPolicies) {
  MutationQueue::Drained b;
  b.inserts.push_back({0, 1, 2, 0.5});
  auto run = [&](persist::FsyncPolicy pol, uint64_t n,
                 std::chrono::milliseconds iv) {
    TempDir dir;
    persist::PersistOptions opts;
    opts.dir = dir.path;
    opts.fsync_policy = pol;
    opts.fsync_every_n = n;
    opts.fsync_interval = iv;
    auto obs = std::make_shared<EngineObs>();
    {
      persist::WalWriter w(persist::local_backend(), opts, obs);
      for (uint64_t e = 1; e <= 4; ++e) EXPECT_TRUE(w.append(e, b));
    }
    return obs->stats.wal_fsyncs.load();
  };
  EXPECT_EQ(run(persist::FsyncPolicy::kOff, 0, {}), 0u);
  EXPECT_EQ(run(persist::FsyncPolicy::kEveryN, 1, {}), 4u);
  EXPECT_EQ(run(persist::FsyncPolicy::kEveryN, 2, {}), 2u);
  // Interval 0: every append is past due.
  EXPECT_EQ(
      run(persist::FsyncPolicy::kInterval, 0, std::chrono::milliseconds(0)),
      4u);
}

TEST(Wal, SyncIfDueCoversBurstThenSilence) {
  // kInterval's clock used to be checked only inside append(), so a
  // burst followed by silence left the tail unsynced indefinitely.
  // sync_if_due() is the out-of-band deadline check.
  MutationQueue::Drained b;
  b.inserts.push_back({0, 1, 2, 0.5});
  TempDir dir;
  persist::PersistOptions opts;
  opts.dir = dir.path;
  opts.fsync_policy = persist::FsyncPolicy::kInterval;
  opts.fsync_interval = std::chrono::milliseconds(25);
  auto obs = std::make_shared<EngineObs>();
  persist::WalWriter w(persist::local_backend(), opts, obs);
  EXPECT_TRUE(w.append(1, b));  // the burst
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  // Deadline passed with no further appends: the check pays exactly the
  // one owed fsync. (On a pathologically slow machine the append itself
  // may have paid it — either way the total is one, never zero.)
  EXPECT_TRUE(w.sync_if_due());
  EXPECT_EQ(obs->stats.wal_fsyncs.load(), 1u);
  // Nothing pending: later ticks never re-sync, however long the lull.
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_TRUE(w.sync_if_due());
  EXPECT_EQ(obs->stats.wal_fsyncs.load(), 1u);
}

TEST(Wal, SyncIfDueIsPolicyGated) {
  MutationQueue::Drained b;
  b.inserts.push_back({0, 1, 2, 0.5});
  for (auto pol : {persist::FsyncPolicy::kOff, persist::FsyncPolicy::kEveryN}) {
    TempDir dir;
    persist::PersistOptions opts;
    opts.dir = dir.path;
    opts.fsync_policy = pol;
    opts.fsync_every_n = 4;  // far from due
    auto obs = std::make_shared<EngineObs>();
    persist::WalWriter w(persist::local_backend(), opts, obs);
    EXPECT_TRUE(w.append(1, b));
    EXPECT_TRUE(w.sync_if_due());  // not an interval policy: no-op
    EXPECT_EQ(obs->stats.wal_fsyncs.load(), 0u);
  }
}

TEST(Persist, IntervalLullSyncedByIdleTickWithinOneTick) {
  // Service-level: the background writer's idle tick (and empty
  // flushes) must honor the interval deadline, so a lull after a burst
  // is synced within roughly interval + one writer tick.
  TempDir dir;
  ServiceConfig cfg;
  cfg.num_vertices = 16;
  cfg.persist.dir = dir.path;
  cfg.persist.fsync_policy = persist::FsyncPolicy::kInterval;
  cfg.persist.fsync_interval = std::chrono::milliseconds(25);
  cfg.flush_interval = std::chrono::milliseconds(5);  // the writer tick
  cfg.flush_threshold = 1000;  // only the interval timer flushes
  SldService svc(cfg);
  svc.start_writer();
  uint64_t base = svc.stats().wal_fsyncs;
  svc.insert(1, 2, 0.5);
  svc.flush();
  if (svc.stats().wal_fsyncs != base) {
    // The append itself paid the sync (clock already past due on a slow
    // machine): burst again immediately so records are left pending.
    base = svc.stats().wal_fsyncs;
    svc.insert(2, 3, 0.6);
    svc.flush();
  }
  // Pure silence from here. The idle tick must pay the owed fsync; the
  // loop bound is generous for CI, the expected latency is
  // interval + one tick (~30 ms).
  auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(2000);
  while (svc.stats().wal_fsyncs == base &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  EXPECT_GT(svc.stats().wal_fsyncs, base)
      << "burst-then-silence left the WAL tail unsynced past the interval";
  svc.stop_writer();
}

TEST(Persist, OptionsValidateRejectsZeroKnobs) {
  TempDir dir;
  ServiceConfig cfg;
  cfg.num_vertices = 8;
  cfg.persist.dir = dir.path;
  {
    ServiceConfig c = cfg;
    c.persist.rehydrate_cache = 0;  // used to be silently clamped to 1
    EXPECT_THROW(SldService svc(c), std::invalid_argument);
    EXPECT_THROW(persist::recover(c), std::invalid_argument);
  }
  {
    ServiceConfig c = cfg;
    c.persist.fsync_policy = persist::FsyncPolicy::kEveryN;
    c.persist.fsync_every_n = 0;
    EXPECT_THROW(SldService svc(c), std::invalid_argument);
  }
  {
    ServiceConfig c = cfg;
    c.persist.checkpoint_every = 0;
    EXPECT_THROW(SldService svc(c), std::invalid_argument);
  }
  // fsync_every_n = 0 is legal when the policy never reads it.
  {
    ServiceConfig c = cfg;
    c.persist.fsync_policy = persist::FsyncPolicy::kOff;
    c.persist.fsync_every_n = 0;
    SldService svc(c);
    svc.insert(1, 2, 0.5);
    EXPECT_EQ(svc.flush(), 1u);
  }
}

TEST(AsOf, RehydrateCacheCapacityOneBoundary) {
  // Capacity 1 — the smallest legal value (and the old clamp target for
  // zero) — must behave as a real one-entry LRU: a repeat of the cached
  // epoch is a hit, alternating epochs decode every time.
  TempDir dir;
  const double tau = 0.5;
  ServiceConfig cfg;
  cfg.num_vertices = 32;
  cfg.retain_epochs = 1;  // everything historical leaves the ring fast
  cfg.persist.dir = dir.path;
  cfg.persist.checkpoint_every = 2;
  cfg.persist.retain_checkpoints = 8;
  cfg.persist.rehydrate_cache = 1;
  SldService svc(cfg);
  auto rng = test::test_rng();
  uint64_t widx = 0;
  for (int i = 0; i < 8; ++i) {
    auto [u, v] = test::random_distinct_pair(rng, 32);
    svc.insert(u, v, unique_weight(widx++));
    svc.flush();
  }
  auto asof = [&](uint64_t e) {
    QueryRequest req;
    req.queries = {NumClustersQuery{tau}};
    req.consistency = AsOf{e};
    return svc.submit(std::move(req)).get().epoch;
  };
  EXPECT_EQ(asof(2), 2u);
  EXPECT_EQ(svc.stats().asof_rehydrated, 1u);
  EXPECT_EQ(asof(2), 2u);  // cache hit: no second decode
  EXPECT_EQ(svc.stats().asof_rehydrated, 1u);
  EXPECT_EQ(asof(4), 4u);  // evicts epoch 2 (capacity one)
  EXPECT_EQ(svc.stats().asof_rehydrated, 2u);
  EXPECT_EQ(asof(2), 2u);  // decoded again
  EXPECT_EQ(svc.stats().asof_rehydrated, 3u);
}

// ---- checkpoint codec -------------------------------------------------

TEST(Checkpoint, SnapshotCodecRoundTripIsByteExact) {
  ServiceConfig cfg;
  cfg.num_vertices = 40;
  cfg.num_shards = 4;
  cfg.capture_edges = true;
  SldService svc(cfg);
  auto rng = test::test_rng();
  uint64_t widx = 0;
  std::vector<ticket_t> live;
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < 12; ++i) {
      auto [u, v] = test::random_distinct_pair(rng, 40);
      live.push_back(svc.insert(u, v, unique_weight(widx++)));
    }
    if (round == 2) svc.erase(live[3]);
    svc.flush();
  }
  auto snap = svc.snapshot();
  persist::ByteWriter w;
  persist::SnapshotCodec::encode(*snap, w);
  persist::ByteReader r(w.bytes().data(), w.bytes().size());
  auto decoded = persist::SnapshotCodec::decode(r, nullptr);
  ASSERT_TRUE(decoded);
  EXPECT_TRUE(r.ok());
  EXPECT_EQ(r.remaining(), 0u);
  EXPECT_EQ(decoded->epoch(), snap->epoch());
  EXPECT_EQ(decoded->num_tree_edges(), snap->num_tree_edges());
  EXPECT_EQ(decoded->cross().size(), snap->cross().size());
  EXPECT_EQ(decoded->captured_edges().size(), snap->captured_edges().size());
  for (double tau : {0.2, 0.5, 0.9})
    EXPECT_EQ(decoded->flat_clustering(tau), snap->flat_clustering(tau));
  // Byte-exactness: re-encoding the decoded snapshot reproduces the
  // original encoding bit for bit.
  persist::ByteWriter w2;
  persist::SnapshotCodec::encode(*decoded, w2);
  EXPECT_EQ(w.bytes(), w2.bytes());
  // Malformed input degrades to null, never UB: truncate mid-stream.
  persist::ByteReader half(w.bytes().data(), w.bytes().size() / 2);
  EXPECT_EQ(persist::SnapshotCodec::decode(half, nullptr), nullptr);
}

/// Version 5 changed the shard and delta encodings (no v endpoint
/// array, no cross-churn counts or patch records), so a version-4 file
/// must be refused at the header, not decoded as version 5. The stamped
/// file is otherwise well-formed: the CRC covers only the payload and
/// stays valid.
TEST(Checkpoint, ReadRejectsVersion4File) {
  TempDir dir;
  ServiceConfig cfg;
  cfg.num_vertices = 16;
  SldService svc(cfg);
  for (vertex_id v = 0; v + 1 < 16; ++v)
    svc.insert(v, v + 1, unique_weight(v));
  svc.flush();
  persist::PersistOptions opts;
  opts.dir = dir.path;
  persist::CheckpointWriter writer(persist::local_backend(), opts, nullptr);
  ASSERT_TRUE(writer.write(*svc.snapshot(), /*next_ticket=*/15, {}));
  std::string bytes;
  ASSERT_TRUE(persist::local_backend()->read_file(
      dir.path + "/" + persist::CheckpointWriter::file_name(
                           svc.snapshot()->epoch()),
      &bytes));
  persist::CheckpointData data;
  ASSERT_TRUE(persist::CheckpointWriter::read(bytes, &data));

  constexpr size_t kVersionAt = 8;  // after the 8-byte magic
  persist::ByteReader ver(bytes.data() + kVersionAt, 4);
  ASSERT_EQ(ver.u32(), 5u);
  persist::ByteWriter stamp;
  stamp.u32(4);
  bytes.replace(kVersionAt, 4, stamp.bytes());
  EXPECT_FALSE(persist::CheckpointWriter::read(bytes, &data));
}

/// Queries follow the decoded arrays unchecked, so decode refuses any
/// index they could not follow safely: a parent slot far past the node
/// table, a leaf hook far past it, and a node endpoint outside the
/// shard's vertex range.
TEST(Checkpoint, DecodeRejectsIndexOutsideItsTable) {
  const vertex_id n = 16;
  ServiceConfig cfg;
  cfg.num_vertices = n;
  cfg.num_shards = 1;
  SldService svc(cfg);
  for (vertex_id v = 0; v + 1 < n; ++v)
    svc.insert(v, v + 1, unique_weight(v));
  svc.flush();
  auto snap = svc.snapshot();
  persist::ByteWriter full, shard;
  persist::SnapshotCodec::encode(*snap, full);
  persist::SnapshotCodec::encode_shard(snap->shard(0), shard);
  const size_t at = full.bytes().find(shard.bytes());
  ASSERT_NE(at, std::string::npos);
  ASSERT_GE(snap->shard(0).num_nodes(), 2u);
  // Walk encode_shard's layout (u32 n, u32 base, then u64-counted
  // arrays) to the first entry of u_, parent_ and leaf_parent_. The
  // unit ends with leaf_parent_.
  persist::ByteReader r(shard.bytes().data(), shard.bytes().size());
  auto entry_at = [&] { return shard.bytes().size() - r.remaining() + 8; };
  r.u32();
  r.u32();
  const size_t u_at = entry_at();
  r.pod_vec<vertex_id>();  // u_
  r.pod_vec<double>();     // weight_
  const size_t parent_at = entry_at();
  r.pod_vec<int32_t>();    // parent_
  const size_t leaf_parent_at = entry_at();
  ASSERT_EQ(r.pod_vec<int32_t>().size(), n);  // leaf_parent_
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r.remaining(), 0u);

  auto decodes_with = [&](size_t entry, uint32_t value) {
    persist::ByteWriter w;
    w.u32(value);
    std::string bytes = full.bytes();
    bytes.replace(at + entry, 4, w.bytes());
    persist::ByteReader in(bytes.data(), bytes.size());
    return persist::SnapshotCodec::decode(in, nullptr) != nullptr;
  };
  persist::ByteReader whole(full.bytes().data(), full.bytes().size());
  EXPECT_NE(persist::SnapshotCodec::decode(whole, nullptr), nullptr);
  EXPECT_FALSE(decodes_with(parent_at, 1u << 28)) << "parent_[0]";
  EXPECT_FALSE(decodes_with(leaf_parent_at, 1u << 28)) << "leaf_parent_[0]";
  EXPECT_FALSE(decodes_with(u_at, n)) << "u_[0]";
}

// ---- service wiring ---------------------------------------------------

TEST(Persist, FreshServiceRefusesDirWithExistingState) {
  TempDir dir;
  ServiceConfig cfg;
  cfg.num_vertices = 16;
  cfg.persist.dir = dir.path;
  {
    SldService svc(cfg);
    svc.insert(1, 2, 0.5);
    svc.flush();
  }
  EXPECT_THROW(SldService svc2(cfg), std::runtime_error);
  // recover() is the sanctioned way back in.
  auto res = persist::recover(cfg);
  ASSERT_TRUE(res.service);
  EXPECT_EQ(res.tip_epoch, 1u);
}

TEST(Persist, RecoverEmptyDirIsFreshEngine) {
  TempDir dir;
  ServiceConfig cfg;
  cfg.num_vertices = 16;
  cfg.persist.dir = dir.path;
  auto res = persist::recover(cfg);
  ASSERT_TRUE(res.service);
  EXPECT_EQ(res.tip_epoch, 0u);
  EXPECT_EQ(res.checkpoint_epoch, 0u);
  EXPECT_EQ(res.records_replayed, 0u);
  EXPECT_FALSE(res.torn_tail_truncated);
  // And it is a live durable engine: mutations flow into the WAL.
  res.service->insert(0, 1, 0.5);
  EXPECT_EQ(res.service->flush(), 1u);
  EXPECT_EQ(res.service->stats().wal_records, 1u);
  // Empty-dir recover must not throw on a second round trip either.
  res.service.reset();
  auto res2 = persist::recover(cfg);
  EXPECT_EQ(res2.tip_epoch, 1u);
  EXPECT_EQ(res2.records_replayed, 1u);
}

/// Shared workload: seeded churn against a persisted service, flushing
/// every few ops and fingerprinting every published epoch at `tau`.
/// Returns the per-epoch fingerprints of the original run.
std::map<uint64_t, EpochFingerprint> churn_workload(SldService& svc,
                                                    uint64_t seed, int steps,
                                                    double tau) {
  par::Rng rng(seed);
  const vertex_id n = svc.num_vertices();
  uint64_t widx = 0;
  std::vector<ticket_t> applied;
  std::vector<std::pair<vertex_id, vertex_id>> applied_uv;
  std::map<uint64_t, EpochFingerprint> fps;
  for (int step = 0; step < steps; ++step) {
    int ops = 1 + static_cast<int>(rng.next_bounded(5));
    for (int i = 0; i < ops; ++i) {
      if (!applied.empty() && rng.next_double() < 0.3) {
        size_t j = rng.next_bounded(applied.size());
        if (rng.next_double() < 0.5)
          svc.erase(applied[j]);
        else
          svc.erase(applied_uv[j].first, applied_uv[j].second);
        applied[j] = applied.back();
        applied.pop_back();
        applied_uv[j] = applied_uv.back();
        applied_uv.pop_back();
      } else {
        auto [u, v] = test::random_distinct_pair(rng, n);
        applied.push_back(svc.insert(u, v, unique_weight(seed * 1000 + widx++)));
        applied_uv.push_back({u, v});
      }
    }
    uint64_t before = svc.epoch();
    uint64_t e = svc.flush();
    if (e != before) fps[e] = fingerprint(svc.snapshot(), tau);
  }
  return fps;
}

TEST(Persist, RecoverWalOnlyReplaysEveryEpochBitForBit) {
  TempDir dir;
  const double tau = 0.5;
  ServiceConfig cfg;
  cfg.num_vertices = 40;
  cfg.num_shards = 4;
  cfg.retain_epochs = 256;  // ring holds the whole replayed history
  cfg.persist.dir = dir.path;
  cfg.persist.checkpoint_every = 1'000'000;  // WAL-only recovery
  std::map<uint64_t, EpochFingerprint> fps;
  {
    SldService svc(cfg);
    fps = churn_workload(svc, 17, 25, tau);
  }
  auto res = persist::recover(cfg);
  ASSERT_TRUE(res.service);
  EXPECT_EQ(res.checkpoint_epoch, 0u);
  EXPECT_FALSE(res.torn_tail_truncated);
  ASSERT_FALSE(fps.empty());
  EXPECT_EQ(res.tip_epoch, fps.rbegin()->first);
  EXPECT_EQ(res.records_replayed, fps.size());
  EXPECT_EQ(res.service->stats().recovery_replayed, fps.size());
  // EVERY republished epoch fingerprints identically, served from the
  // recovered service's retention ring.
  for (const auto& [e, fp] : fps) {
    SCOPED_TRACE("epoch=" + std::to_string(e));
    auto snap = res.service->snapshot_at(e);
    ASSERT_TRUE(snap);
    expect_fingerprint_eq(fingerprint(snap, tau), fp);
  }
}

TEST(Persist, RecoverFromCheckpointPlusWalTail) {
  TempDir dir;
  const double tau = 0.4;
  ServiceConfig cfg;
  cfg.num_vertices = 48;
  cfg.num_shards = 3;
  cfg.retain_epochs = 256;
  cfg.persist.dir = dir.path;
  cfg.persist.checkpoint_every = 4;
  std::map<uint64_t, EpochFingerprint> fps;
  uint64_t pre_ckpts = 0;
  {
    SldService svc(cfg);
    fps = churn_workload(svc, 23, 22, tau);
    pre_ckpts = svc.stats().checkpoints_written;
  }
  ASSERT_GE(pre_ckpts, 2u);
  auto res = persist::recover(cfg);
  ASSERT_TRUE(res.service);
  EXPECT_GT(res.checkpoint_epoch, 0u);
  EXPECT_EQ(res.tip_epoch, fps.rbegin()->first);
  // Replay covers exactly the epochs past the checkpoint.
  EXPECT_EQ(res.records_replayed, res.tip_epoch - res.checkpoint_epoch);
  for (const auto& [e, fp] : fps) {
    if (e < res.checkpoint_epoch) continue;  // before the replay base
    SCOPED_TRACE("epoch=" + std::to_string(e));
    auto snap = res.service->snapshot_at(e);
    ASSERT_TRUE(snap);
    expect_fingerprint_eq(fingerprint(snap, tau), fp);
  }
  // The recovered engine keeps serving and persisting: more churn, a
  // second crashless restart, still bit-for-bit.
  auto more = churn_workload(*res.service, 29, 8, tau);
  res.service.reset();
  auto res2 = persist::recover(cfg);
  ASSERT_TRUE(res2.service);
  EXPECT_EQ(res2.tip_epoch, more.rbegin()->first);
  expect_fingerprint_eq(fingerprint(res2.service->snapshot(), tau),
                        more.rbegin()->second);
}

TEST(Persist, TicketAndLedgerContinuityAfterRecovery) {
  TempDir dir;
  ServiceConfig cfg;
  cfg.num_vertices = 16;
  cfg.persist.dir = dir.path;
  ticket_t t_max = 0;
  {
    SldService svc(cfg);
    svc.insert(0, 1, 0.1);
    ticket_t t2 = svc.insert(2, 3, 0.2);
    svc.flush();
    svc.erase(t2);  // applied-then-erased: the ticket existed
    t_max = svc.insert(4, 5, 0.3);
    svc.flush();
  }
  auto res = persist::recover(cfg);
  auto& svc = *res.service;
  // New tickets never collide with history, including erased tickets.
  ticket_t fresh = svc.insert(6, 7, 0.4);
  EXPECT_GT(fresh, t_max);
  // The endpoint ledger survived: erase-by-endpoints of a pre-crash
  // edge resolves, and a dead edge does not.
  EXPECT_TRUE(svc.erase(vertex_id{0}, vertex_id{1}));
  EXPECT_FALSE(svc.erase(vertex_id{2}, vertex_id{3}));
  svc.flush();
  EXPECT_TRUE(svc.same_cluster(6, 7, 0.5));
  EXPECT_FALSE(svc.same_cluster(0, 1, 0.99));
}

/// SldService::replay re-enacts exactly one logged epoch: forced epoch
/// numbers (empty epochs included), original tickets, the checkpoint's
/// ticket floor, the endpoint ledger, and no enqueue stats or tap.
TEST(Persist, ReplayReenactsOneEpoch) {
  ServiceConfig cfg;
  cfg.num_vertices = 16;
  SldService svc(cfg);
  int tapped = 0;
  svc.set_epoch_tap({[&](uint64_t, const std::string&) { ++tapped; },
                     [&](uint64_t) { ++tapped; }});

  // A checkpoint: live edges under their tickets, plus a floor above an
  // erased-then-forgotten ticket (30).
  MutationQueue::Drained ck;
  ck.inserts = {{7, 0, 1, 0.1}, {9, 2, 3, 0.2}};
  EXPECT_EQ(svc.replay(12, ck, 31), 12u);
  EXPECT_EQ(svc.epoch(), 12u);
  EXPECT_TRUE(ThresholdView(svc.snapshot(), 0.5).same_cluster(2, 3));

  // A WAL record erasing ticket 9, then an empty epoch.
  MutationQueue::Drained rec;
  rec.erases = {{9}};
  svc.replay(13, rec);
  svc.replay(14, {});
  EXPECT_EQ(svc.epoch(), 14u);
  EXPECT_EQ(svc.snapshot()->epoch(), 14u);
  EXPECT_FALSE(ThresholdView(svc.snapshot(), 0.5).same_cluster(2, 3));

  const EngineStats::Report r = svc.stats();
  EXPECT_EQ(r.inserts_enqueued, 0u);
  EXPECT_EQ(r.erases_enqueued, 0u);
  EXPECT_EQ(r.flushes, 2u);  // the empty epoch publishes but applies nothing
  EXPECT_EQ(tapped, 0);

  // Live traffic continues after the replayed history: tickets above
  // the floor, the ledger resolves the replayed edge, the next epoch
  // follows the last replayed one, and the tap fires again.
  EXPECT_EQ(svc.insert(4, 5, 0.3), 31u);
  EXPECT_TRUE(svc.erase(vertex_id{0}, vertex_id{1}));
  EXPECT_FALSE(svc.erase(vertex_id{2}, vertex_id{3}));
  EXPECT_EQ(svc.flush(), 15u);
  EXPECT_EQ(tapped, 1);
  EXPECT_FALSE(ThresholdView(svc.snapshot(), 0.5).same_cluster(0, 1));
}

// ---- crash injection --------------------------------------------------

TEST(Persist, RandomizedCrashPointsRecoverBitForBit) {
  const double tau = 0.5;
  auto rng = test::test_rng();
  int torn_seen = 0;
  for (int trial = 0; trial < 10; ++trial) {
    SCOPED_TRACE("trial=" + std::to_string(trial));
    TempDir dir;
    ServiceConfig cfg;
    cfg.num_vertices = 40;
    cfg.num_shards = 4;
    cfg.retain_epochs = 256;
    cfg.persist.dir = dir.path;
    cfg.persist.checkpoint_every = 5;
    cfg.persist.fsync_every_n = 1;
    // Budgets sweep the interesting range: death inside the first
    // records through death inside a late checkpoint.
    uint64_t budget = 40 + rng.next_bounded(6000);
    std::map<uint64_t, EpochFingerprint> fps;
    bool died = false;
    {
      // Attach the fault plane by hand: same wiring the constructor
      // does, but over the injected backend.
      ServiceConfig boot = cfg;
      boot.persist.dir.clear();
      SldService svc(boot);
      auto fault =
          std::make_shared<FaultBackend>(persist::local_backend(), budget);
      svc.attach_persistence(std::make_unique<persist::PersistenceManager>(
          cfg.persist, fault, svc.obs_shared()));
      fps = churn_workload(svc, 100 + trial, 20, tau);
      died = fault->dead();
    }
    ASSERT_FALSE(fps.empty());
    auto res = persist::recover(cfg);
    ASSERT_TRUE(res.service);
    if (res.torn_tail_truncated) ++torn_seen;
    if (!died) {
      // Budget never ran out: full history must come back.
      EXPECT_EQ(res.tip_epoch, fps.rbegin()->first);
    }
    // Whatever the recovered tip is, it is a REAL epoch the original
    // run published, and its state matches bit for bit. With
    // fsync_every_n=1 everything the WAL accepted is on disk, so the
    // tip can only trail by the records the crash swallowed.
    if (res.tip_epoch == 0) continue;  // died before the first record
    ASSERT_TRUE(fps.count(res.tip_epoch))
        << "recovered to an epoch the original never published: "
        << res.tip_epoch;
    for (const auto& [e, fp] : fps) {
      if (e < res.checkpoint_epoch || e > res.tip_epoch) continue;
      SCOPED_TRACE("epoch=" + std::to_string(e));
      auto snap = res.service->snapshot_at(e);
      ASSERT_TRUE(snap);
      expect_fingerprint_eq(fingerprint(snap, tau), fp);
    }
    // The survivor is a live engine: it accepts churn and persists it.
    auto more = churn_workload(*res.service, 200 + trial, 4, tau);
    EXPECT_EQ(res.service->epoch(), more.rbegin()->first);
  }
  // Across 10 random budgets at least one crash should land mid-write;
  // if none did, the sweep is not exercising tears at all.
  EXPECT_GT(torn_seen, 0);
}

TEST(Persist, CorruptNewestCheckpointFallsBackToOlder) {
  TempDir dir;
  const double tau = 0.6;
  ServiceConfig cfg;
  cfg.num_vertices = 32;
  cfg.num_shards = 2;
  cfg.retain_epochs = 256;
  cfg.persist.dir = dir.path;
  cfg.persist.checkpoint_every = 3;
  cfg.persist.retain_checkpoints = 8;  // keep deep history for fallback
  std::map<uint64_t, EpochFingerprint> fps;
  {
    SldService svc(cfg);
    fps = churn_workload(svc, 31, 15, tau);
    ASSERT_GE(svc.stats().checkpoints_written, 2u);
  }
  // Find the newest checkpoint and flip a payload byte.
  std::vector<std::string> ckpts;
  for (const auto& name : persist::local_backend()->list(dir.path)) {
    uint64_t e;
    if (persist::CheckpointWriter::parse_file_name(name, &e))
      ckpts.push_back(name);
  }
  ASSERT_GE(ckpts.size(), 2u);
  const std::string newest = dir.path + "/" + ckpts.back();
  {
    std::fstream f(newest, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(60);
    char c;
    f.seekg(60);
    f.get(c);
    c ^= 0x11;
    f.seekp(60);
    f.put(c);
  }
  auto res = persist::recover(cfg);
  ASSERT_TRUE(res.service);
  // Fallback: an OLDER checkpoint anchored replay, and the WAL (whose
  // segments the retention window kept) still carried it to the tip.
  uint64_t newest_epoch = 0;
  ASSERT_TRUE(
      persist::CheckpointWriter::parse_file_name(ckpts.back(), &newest_epoch));
  EXPECT_LT(res.checkpoint_epoch, newest_epoch);
  EXPECT_EQ(res.tip_epoch, fps.rbegin()->first);
  expect_fingerprint_eq(fingerprint(res.service->snapshot(), tau),
                        fps.rbegin()->second);
}

TEST(Persist, CompactionBoundsHistoryAndKeepsRecoverability) {
  TempDir dir;
  const double tau = 0.5;
  ServiceConfig cfg;
  cfg.num_vertices = 32;
  cfg.num_shards = 2;
  cfg.persist.dir = dir.path;
  cfg.persist.checkpoint_every = 2;
  cfg.persist.retain_checkpoints = 2;
  std::map<uint64_t, EpochFingerprint> fps;
  uint64_t removed_ckpts = 0, removed_segs = 0;
  {
    SldService svc(cfg);
    fps = churn_workload(svc, 41, 24, tau);
    auto r = svc.stats();
    removed_ckpts = r.checkpoints_removed;
    removed_segs = r.wal_segments_removed;
  }
  // Compaction actually ran...
  EXPECT_GT(removed_ckpts, 0u);
  EXPECT_GT(removed_segs, 0u);
  // ...and bounded the directory: at most retain_checkpoints checkpoint
  // files, and segments only above the retained horizon.
  size_t n_ckpt = 0, n_seg = 0;
  for (const auto& name : persist::local_backend()->list(dir.path)) {
    uint64_t e;
    if (persist::CheckpointWriter::parse_file_name(name, &e)) ++n_ckpt;
    if (persist::WalReader::parse_segment_name(name, &e)) ++n_seg;
  }
  EXPECT_LE(n_ckpt, cfg.persist.retain_checkpoints);
  EXPECT_LE(n_seg, cfg.persist.retain_checkpoints + 1);
  auto res = persist::recover(cfg);
  ASSERT_TRUE(res.service);
  EXPECT_EQ(res.tip_epoch, fps.rbegin()->first);
  expect_fingerprint_eq(fingerprint(res.service->snapshot(), tau),
                        fps.rbegin()->second);
}

// ---- AsOf time travel -------------------------------------------------

TEST(AsOf, RingRehydrationAndUnavailability) {
  TempDir dir;
  const double tau = 0.5;
  ServiceConfig cfg;
  cfg.num_vertices = 32;
  cfg.num_shards = 2;
  cfg.retain_epochs = 2;  // tiny ring: epochs age out fast
  cfg.persist.dir = dir.path;
  cfg.persist.checkpoint_every = 4;
  cfg.persist.retain_checkpoints = 8;
  SldService svc(cfg);
  auto rng = test::test_rng();
  std::map<uint64_t, EpochFingerprint> fps;
  uint64_t widx = 0;
  for (int i = 0; i < 12; ++i) {
    auto [u, v] = test::random_distinct_pair(rng, 32);
    svc.insert(u, v, unique_weight(widx++));
    uint64_t e = svc.flush();
    fps[e] = fingerprint(svc.snapshot(), tau);
  }
  ASSERT_EQ(svc.epoch(), 12u);

  auto asof = [&](uint64_t e) {
    QueryRequest req;
    req.queries = {FlatClusteringQuery{tau}, NumClustersQuery{tau}};
    req.consistency = AsOf{e};
    return svc.submit(std::move(req)).get();
  };

  // Ring tier: epoch 11 was just superseded (retain_epochs = 2).
  ResultSet ring = asof(11);
  EXPECT_EQ(ring.epoch, 11u);
  EXPECT_EQ(std::get<std::vector<vertex_id>>(ring.results[0]),
            fps[11].labels);
  EXPECT_EQ(std::get<uint64_t>(ring.results[1]), fps[11].num_clusters);
  EXPECT_EQ(svc.stats().asof_retained, 1u);

  // Checkpoint tier: epoch 4 is far below the ring but checkpointed.
  ResultSet cold = asof(4);
  EXPECT_EQ(cold.epoch, 4u);
  EXPECT_EQ(std::get<std::vector<vertex_id>>(cold.results[0]), fps[4].labels);
  EXPECT_EQ(std::get<uint64_t>(cold.results[1]), fps[4].num_clusters);
  EXPECT_EQ(svc.stats().asof_rehydrated, 1u);
  // Again: the rehydration LRU answers, no second decode.
  asof(4);
  EXPECT_EQ(svc.stats().asof_rehydrated, 1u);

  // Current epoch behaves like Latest (no historical tier involved).
  EXPECT_EQ(asof(12).epoch, 12u);

  // Cold epochs without a checkpoint, and future epochs, are typed
  // errors — never a silently different epoch.
  uint64_t unavailable_before = svc.stats().asof_unavailable;
  for (uint64_t bad : {uint64_t{5}, uint64_t{99}}) {
    QueryRequest req;
    req.queries = {NumClustersQuery{tau}};
    req.consistency = AsOf{bad};
    auto fut = svc.submit(std::move(req));
    try {
      fut.get();
      FAIL() << "AsOf{" << bad << "} should be unavailable";
    } catch (const QueryError& err) {
      EXPECT_EQ(err.code(), QueryErrorCode::kEpochUnavailable);
    }
  }
  EXPECT_EQ(svc.stats().asof_unavailable, unavailable_before + 2);

  // An empty AsOf request still resolves the epoch (or errors).
  QueryRequest empty;
  empty.consistency = AsOf{4};
  EXPECT_EQ(svc.submit(std::move(empty)).get().epoch, 4u);
}

TEST(AsOf, UnpersistedServiceServesRingOnly) {
  ServiceConfig cfg;
  cfg.num_vertices = 16;
  cfg.retain_epochs = 3;
  SldService svc(cfg);
  for (int i = 0; i < 6; ++i) {
    svc.insert(static_cast<vertex_id>(i), static_cast<vertex_id>(i + 1),
               unique_weight(static_cast<uint64_t>(i)));
    svc.flush();
  }
  QueryRequest ok;
  ok.queries = {NumClustersQuery{0.5}};
  ok.consistency = AsOf{5};
  EXPECT_EQ(svc.submit(std::move(ok)).get().epoch, 5u);
  QueryRequest gone;
  gone.queries = {NumClustersQuery{0.5}};
  gone.consistency = AsOf{1};
  auto fut = svc.submit(std::move(gone));
  try {
    fut.get();
    FAIL() << "epoch 1 fell off the ring and there is no rehydrator";
  } catch (const QueryError& err) {
    EXPECT_EQ(err.code(), QueryErrorCode::kEpochUnavailable);
  }
}

// ---- observability ----------------------------------------------------

TEST(Persist, CountersAndHistogramsReachTheScrapeSurface) {
  TempDir dir;
  ServiceConfig cfg;
  cfg.num_vertices = 24;
  cfg.persist.dir = dir.path;
  cfg.persist.checkpoint_every = 2;
  SldService svc(cfg);
  churn_workload(svc, 51, 10, 0.5);
  auto snap = svc.obs().registry.scrape();
  EXPECT_GT(snap.counter("engine.wal_records"), 0u);
  EXPECT_GT(snap.counter("engine.wal_bytes"), 0u);
  EXPECT_GT(snap.counter("engine.wal_fsyncs"), 0u);
  EXPECT_GT(snap.counter("engine.checkpoints_written"), 0u);
  const auto* append = snap.histogram("persist.append");
  ASSERT_NE(append, nullptr);
  EXPECT_GT(append->count, 0u);
  const auto* ckpt = snap.histogram("persist.checkpoint");
  ASSERT_NE(ckpt, nullptr);
  EXPECT_GT(ckpt->count, 0u);
  // The report mirrors the same counters (X-macro coverage in action).
  auto r = svc.stats();
  EXPECT_EQ(r.wal_records, snap.counter("engine.wal_records"));
  EXPECT_EQ(r.checkpoints_written, snap.counter("engine.checkpoints_written"));
}

}  // namespace
}  // namespace dynsld::engine

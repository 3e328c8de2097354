// Writer → replica replication: the in-memory epoch feed on the writer
// side (ReplicationSource) and the consuming process on the replica
// side (Replica).
//
// The feed is the durability stream, tee'd: every flush hands its WAL
// record bytes to the source through SldService::set_epoch_tap — the
// SAME bytes the WAL appends, so a replica applies bit-for-bit what
// recovery would read from disk. The source keeps the latest
// checkpoint's file bytes plus a ring of records newer than the
// checkpoint before it (so a connected replica still streams records
// a new checkpoint covers but the server had not yet sent it);
// a replica bootstraps from (checkpoint, newer records...) exactly like
// persist::recover() bootstraps from the directory, then tails live
// records. Why a tee instead of tailing the files directly: the WAL
// rides buffered stdio whose tail only reaches the filesystem at fsync
// granularity, so a disk tailer would lag the engine by the fsync
// policy; the tee sees every record the instant it is logged.
//
// The source is attachment-order robust: its constructor installs the
// tap first (all later flushes are captured), then forces the WAL's
// stdio buffer to disk and primes the ring from the directory (all
// earlier records are captured), deduplicating by epoch — so there is
// no gap no matter when it attaches.
//
// A replica is a full SldService (non-persisted) fed only by the
// stream: the checkpoint replayed as one epoch (live edges + ticket
// floor, SldService::replay), then each record replayed in strict
// epoch order — a gap or malformed record marks the replica desynced
// and stops the tail, never applies garbage. Queries against a replica
// go through its own broker, so AtLeastEpoch waits work at a lagging
// epoch: the wait releases when the replicated epoch arrives.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "engine/sld_service.hpp"
#include "net/socket.hpp"

namespace dynsld::net {

/// The writer-side feed (see the header comment). Construct one per
/// persisted service; the RpcServer does so automatically and serves
/// the stream to kRoleReplica connections. Thread-safe: the flush path
/// appends under the service's flush lock while the server thread
/// reads bootstraps and deltas.
class ReplicationSource {
 public:
  /// One bootstrap package: everything a fresh replica needs to reach
  /// the tip — the newest checkpoint's file bytes (empty = no
  /// checkpoint yet, start from epoch 0) and every record after it, in
  /// epoch order.
  struct Bootstrap {
    uint64_t checkpoint_epoch = 0;
    std::string checkpoint_bytes;
    std::vector<std::pair<uint64_t, std::string>> records;
  };

  /// Attaches to `svc` (which must have persistence — the feed is the
  /// durability stream; throws std::invalid_argument otherwise) and
  /// primes the ring from its directory. Detaches the tap on
  /// destruction.
  explicit ReplicationSource(engine::SldService& svc);
  /// Detaches the epoch tap (waits out any in-progress flush).
  ~ReplicationSource();

  ReplicationSource(const ReplicationSource&) = delete;
  ReplicationSource& operator=(const ReplicationSource&) = delete;

  /// Snapshot the full bootstrap package for a fresh replica.
  Bootstrap bootstrap();

  /// All ring records with epoch > `after`, epoch-ascending — the live
  /// fan-out read (each replica connection tracks its own high-water
  /// mark).
  std::vector<std::pair<uint64_t, std::string>> records_after(uint64_t after);

  /// Highest epoch the feed has seen (checkpoint or record).
  uint64_t tip() const;

  /// Install a cheap callback fired (under the source's lock) whenever
  /// a new record lands — the server points this at its poll-loop wake
  /// pipe. Replace with {} to clear.
  void set_wakeup(std::function<void()> fn);

 private:
  void on_batch(uint64_t epoch, const std::string& record);
  void on_checkpoint(uint64_t checkpoint_epoch);
  void prime_from_disk();

  engine::SldService& svc_;
  std::shared_ptr<engine::EngineObs> obs_;

  mutable std::mutex mu_;
  // Record ring keyed by epoch (a map: priming and live tapping can
  // overlap, and try_emplace dedups them; bytes are identical anyway).
  std::map<uint64_t, std::string> ring_;
  uint64_t ckpt_epoch_ = 0;
  std::string ckpt_bytes_;
  uint64_t tip_ = 0;
  std::function<void()> wakeup_;
};

/// A read replica: dials a writer's RpcServer as kRoleReplica,
/// bootstraps a local non-persisted SldService from the streamed
/// checkpoint, and applies the record stream on a background tail
/// thread (see the header comment). Queries go to service() — its
/// broker serves them at the replicated (possibly lagging) epoch.
class Replica {
 public:
  /// Connection + engine-shape options.
  struct Options {
    /// Writer address.
    std::string host = "127.0.0.1";
    uint16_t port = 0;
    /// Local engine config; num_vertices / num_shards must match the
    /// writer's (validated against the hello ack). The persist dir is
    /// ignored — a replica never writes durable state.
    engine::ServiceConfig cfg;
  };

  /// Connects, handshakes, bootstraps, and starts the tail thread.
  /// Throws std::runtime_error on connection failure, shape mismatch,
  /// or a malformed bootstrap.
  explicit Replica(Options opt);
  /// Stops the tail thread (shutting the socket down unblocks it).
  ~Replica();

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  /// The replica engine — submit queries here (its broker honors
  /// AtLeastEpoch waits at the replicated epoch).
  engine::SldService& service() { return *svc_; }

  /// Highest epoch applied locally.
  uint64_t applied_epoch() const;
  /// Did the stream break (epoch gap, malformed record, writer gone)?
  /// A desynced replica keeps serving its last applied epoch.
  bool desynced() const;
  /// Is the tail thread still consuming the stream?
  bool live() const;
  /// Block until applied_epoch() >= epoch (true) or the timeout/a
  /// desync hits (false).
  bool wait_for_epoch(uint64_t epoch, std::chrono::milliseconds timeout);

 private:
  void tail_loop();
  bool apply_record(const std::string& bytes);

  Options opt_;
  Fd fd_;
  std::unique_ptr<engine::SldService> svc_;
  std::thread tail_;

  mutable std::mutex mu_;
  std::condition_variable cv_;
  uint64_t applied_ = 0;  // guarded by mu_
  bool desynced_ = false;  // guarded by mu_
  bool live_ = false;      // guarded by mu_
};

}  // namespace dynsld::net

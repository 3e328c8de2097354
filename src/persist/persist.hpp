// The durability plane's front half: the PersistenceManager that rides
// the service's flush path, and recover() — the crash-recovery entry
// point that turns a directory back into a running engine.
//
// Write side (all calls under the service's flush lock):
//
//   flush: drain -> log_batch(epoch, batch)  [WAL append, pre-apply]
//            -> apply -> publish -> on_publish(snapshot, next_ticket)
//                                   [checkpoint every K epochs, rotate
//                                    the WAL segment, compact history]
//
// log_batch also maintains the manager's live-edge table (the alive
// ticket -> (u, v, w) multiset), which is what checkpoints serialize so
// recovery can rebuild a REAL mutable engine through the normal
// mutation path instead of thawing a frozen replica.
//
// Read side: rehydrate(epoch) serves the AsOf{epoch} checkpoint tier —
// an LRU of snapshots decoded from checkpoint files, shared with the
// broker through QueryBroker::set_rehydrator. Only exact checkpoint
// epochs rehydrate; anything else in cold history is unavailable by
// contract (docs/DURABILITY.md).
//
// recover(cfg) replays a directory:
//
//   1. load the newest checkpoint that validates (corrupt ones fall
//      back to older files — checkpoints publish atomically);
//   2. replay its live edges as one batch under their original
//      tickets and ticket floor, republishing the checkpoint epoch;
//   3. scan WAL segments in order and replay each record as its own
//      batch, republishing the exact epoch sequence; a torn
//      tail record is truncated away (bounded loss: whatever the fsync
//      policy left volatile), and the segment resumes appending there;
//   4. attach a PersistenceManager positioned to continue — same
//      segment, same checkpoint cadence — and hand back the service.
//
// The recovered engine is bit-for-bit the logged one: same tickets,
// same endpoint-ledger resolution, same epoch numbers, same labels and
// histograms per republished epoch (crash-injection asserted in
// tests/test_persist.cpp).
#pragma once

#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "engine/epoch.hpp"
#include "engine/mutation_queue.hpp"
#include "engine/sld_service.hpp"
#include "engine/stats.hpp"
#include "persist/checkpoint.hpp"
#include "persist/file_backend.hpp"
#include "persist/options.hpp"
#include "persist/wal.hpp"

namespace dynsld::persist {

/// The service's durability plane: WAL + checkpoint cadence +
/// compaction on the write side, the AsOf rehydration LRU on the read
/// side (see the header comment). Write-side methods are called under
/// the service's flush lock; rehydrate() has its own lock and runs on
/// the broker's dispatcher thread.
class PersistenceManager {
 public:
  /// Creates `opts.dir` if missing. `obs` (nullable) receives every
  /// persist counter and histogram.
  PersistenceManager(PersistOptions opts, std::shared_ptr<FileBackend> backend,
                     std::shared_ptr<engine::EngineObs> obs);

  /// Throw std::runtime_error when the directory already holds WAL or
  /// checkpoint files — a fresh service must not silently shadow
  /// durable state; resume it through recover() instead.
  void require_fresh() const;

  const PersistOptions& options() const { return opts_; }
  FileBackend& backend() { return *backend_; }

  /// WAL the batch that is about to become `epoch` (called after the
  /// drain, before the apply) and fold it into the live-edge table.
  void log_batch(uint64_t epoch, const engine::MutationQueue::Drained& batch);

  /// Fold a batch into the live-edge table: its inserts become alive,
  /// its erases die. log_batch() runs it for every logged batch;
  /// recover() for every replayed checkpoint and WAL record.
  void track_live(const engine::MutationQueue::Drained& batch);

  /// Checkpoint cadence hook, called after every publish: every
  /// `checkpoint_every` epochs, write ckpt-<epoch>.bin, rotate the WAL
  /// segment to <epoch + 1>, and compact history past the retention
  /// window. A failed checkpoint write retries at the next publish.
  void on_publish(const engine::EngineSnapshot& snap, uint64_t next_ticket);

  /// AsOf checkpoint tier: the snapshot of exactly `epoch`, from the
  /// LRU or decoded from ckpt-<epoch>.bin; null when no checkpoint at
  /// that epoch exists (or it fails validation).
  engine::EpochManager::Snap rehydrate(uint64_t epoch);

  /// Has the WAL writer poisoned itself on an I/O failure? (Appends
  /// are dropped from then on; tests use this to detect injected
  /// crash points.)
  bool wal_failed() const { return wal_.failed(); }

  /// Force a WAL sync now regardless of policy.
  bool sync_wal() { return wal_.sync(); }

  /// Honor the kInterval fsync deadline outside the append path (the
  /// service calls this from empty flushes and the writer's idle tick
  /// so a burst-then-silence workload never leaves the tail unsynced
  /// past the interval). No-op under other policies.
  bool sync_if_due() { return wal_.sync_if_due(); }

  // ---- recovery positioning (recover() drives these before attach) ----

  /// The checkpoint epoch the cadence counts from.
  void set_last_checkpoint(uint64_t epoch) { last_checkpoint_epoch_ = epoch; }
  /// Epoch of the newest durable checkpoint (0 = none yet). Flush-lock
  /// domain; the replication source reads it from the publish tap to
  /// notice cadence checkpoints and prune its record ring.
  uint64_t last_checkpoint() const { return last_checkpoint_epoch_; }
  /// Resume appending to the (already truncated) newest segment.
  bool resume_segment(const std::string& name) {
    return wal_.open_existing(name);
  }
  /// Alive edges tracked for the next checkpoint (introspection).
  size_t live_edges() const { return live_.size(); }

 private:
  /// One live-edge table entry (the ticket is the map key).
  struct Edge {
    vertex_id u, v;
    double w;
  };

  PersistOptions opts_;
  std::shared_ptr<FileBackend> backend_;
  std::shared_ptr<engine::EngineObs> obs_;
  WalWriter wal_;
  CheckpointWriter ckpt_;
  // Alive ticket -> edge, ticket-ascending (= insertion order, which
  // is the order checkpoints serialize and recovery re-inserts).
  // Flush-lock domain, like the WAL writer.
  std::map<uint64_t, Edge> live_;
  uint64_t last_checkpoint_epoch_ = 0;

  // AsOf rehydration LRU, most-recent first (own lock: dispatcher-
  // thread reads run concurrently with flush-side appends).
  std::mutex cache_mu_;
  std::list<std::pair<uint64_t, engine::EpochManager::Snap>> cache_;
};

/// What recover() reconstructed.
struct RecoverResult {
  /// The recovered engine, persistence attached and positioned to
  /// append. The background writer is NOT started (mirror of the
  /// constructor's contract).
  std::unique_ptr<engine::SldService> service;
  /// Epoch of the checkpoint replay started from (0 = none existed).
  uint64_t checkpoint_epoch = 0;
  /// Last epoch republished — the service's current epoch.
  uint64_t tip_epoch = 0;
  /// WAL records re-enacted past the checkpoint.
  uint64_t records_replayed = 0;
  /// A torn tail (or headerless partial segment) was truncated away.
  bool torn_tail_truncated = false;
};

/// Rebuild a service from `cfg.persist.dir` (see the header comment
/// for the protocol). `cfg` must have persistence enabled; an empty or
/// missing directory recovers to a fresh epoch-0 engine. Throws
/// std::invalid_argument when cfg.persist.dir is empty.
RecoverResult recover(engine::ServiceConfig cfg,
                      std::shared_ptr<FileBackend> backend = nullptr);

}  // namespace dynsld::persist

// Checkpoints: periodic full-state images that bound recovery replay
// and anchor AsOf time travel, plus the compactor that bounds the
// on-disk history window.
//
// Every `checkpoint_every` epochs the service hands the just-published
// EngineSnapshot to the CheckpointWriter, which serializes TWO views
// of the engine into one atomically published file:
//
//   - the LIVE EDGE TABLE (ticket, u, v, weight — ticket-ascending):
//     the alive edge multiset recovery re-inserts through the normal
//     mutation path, so the restored engine is a real, mutable engine,
//     not a frozen replica. Ticket order is insertion order, which
//     keeps the endpoint ledger's "erase the most recent copy"
//     resolution identical after recovery;
//   - the FROZEN SNAPSHOT (per-shard rank-sorted DendrogramSnapshot
//     primary arrays + cross-edge table + epoch/delta/trace metadata),
//     encoded by SnapshotCodec: byte-exact rehydration for AsOf{epoch}
//     queries at the checkpoint epoch, no replay required. Per shard
//     the codec stores n, base, u, weight, parent and leaf_parent
//     only; decode validates them and re-derives subtree counts and
//     jump pointers through the build's own helpers (the cluster-report
//     CSR builds lazily, as in a live snapshot).
//
//   checkpoint file  ckpt-<epoch>.bin
//     header   "DSLDCKP1" (8 B magic)  u32 version
//     frame    u32 payload_len   u32 crc32c(payload)
//     payload  u64 epoch   u64 next_ticket
//              u64 n_live  live*{u64 ticket  u32 u  u32 v  f64 w}
//              snapshot section (SnapshotCodec byte layout —
//              docs/DURABILITY.md)
//
// Publication is write-to-temp + rename (FileBackend::write_atomic),
// so a crash mid-checkpoint leaves the previous checkpoint intact and
// recovery falls back to it — checkpoints are all-or-nothing.
//
// The Compactor enforces the retention window after each successful
// checkpoint: keep the newest `retain_checkpoints` checkpoint files,
// delete older ones, and delete every WAL segment whose epochs are
// entirely at or below the oldest retained checkpoint (segments rotate
// at checkpoints, so this deletes whole files).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/epoch.hpp"
#include "engine/mutation_queue.hpp"
#include "engine/stats.hpp"
#include "persist/bytes.hpp"
#include "persist/file_backend.hpp"
#include "persist/options.hpp"

namespace dynsld::persist {

/// One alive edge at checkpoint time, keyed by its insertion ticket:
/// the queue's own insert op, so a checkpoint replays as one batch.
using LiveEdge = engine::MutationQueue::InsertOp;

/// Byte codec for a full EngineSnapshot (friend of EngineSnapshot and
/// DendrogramSnapshot — the one place their private arrays cross the
/// process boundary). encode/decode round-trip bit-exactly; the layout
/// is versioned by the checkpoint header.
struct SnapshotCodec {
  /// Serialize `snap` (shards, cross table, delta, trace, captured
  /// edges) into `out`.
  static void encode(const engine::EngineSnapshot& snap, ByteWriter& out);
  /// Serialize one shard's DendrogramSnapshot arrays — the per-shard
  /// unit encode() emits. Exposed so tests can compare a patched shard
  /// snapshot byte-for-byte against a freshly built one.
  static void encode_shard(const engine::DendrogramSnapshot& d,
                           ByteWriter& out);
  /// Rebuild a snapshot from codec bytes; null on malformed input.
  /// `obs` (nullable) becomes the decoded snapshot's observability
  /// bundle, normally the recovering service's own.
  static engine::EpochManager::Snap decode(
      ByteReader& in, std::shared_ptr<engine::EngineObs> obs);
};

/// Everything one checkpoint file holds, decoded (the snapshot section
/// stays as bytes so list-only consumers skip the decode).
struct CheckpointData {
  uint64_t epoch = 0;
  /// Ticket-counter floor: the queue resumes allocating above every
  /// ticket that ever existed, including erased ones absent from
  /// `live`.
  uint64_t next_ticket = 0;
  /// The live-edge table as one insert-only batch, ticket-ascending —
  /// what SldService::replay re-enacts.
  engine::MutationQueue::Drained live;
  /// SnapshotCodec bytes of the frozen EngineSnapshot.
  std::string snapshot_bytes;
};

/// Serializes and atomically publishes checkpoint files.
class CheckpointWriter {
 public:
  /// `obs` (nullable) receives the checkpoints_written counter and the
  /// persist.checkpoint histogram.
  CheckpointWriter(std::shared_ptr<FileBackend> backend, PersistOptions opts,
                   std::shared_ptr<engine::EngineObs> obs);

  /// Write ckpt-<epoch>.bin for `snap` + the live-edge table. False on
  /// I/O failure (the previous checkpoint, if any, is untouched).
  bool write(const engine::EngineSnapshot& snap, uint64_t next_ticket,
             const std::vector<LiveEdge>& live);

  /// Checkpoint file name for an epoch (zero-padded: lexicographic
  /// order == epoch order).
  static std::string file_name(uint64_t epoch);
  /// Parse a checkpoint file name; false when `name` is not one.
  static bool parse_file_name(const std::string& name, uint64_t* epoch);
  /// Decode a checkpoint file's bytes (header + CRC validated); false
  /// on any corruption — recovery then falls back to an older file.
  static bool read(const std::string& bytes, CheckpointData* out);

 private:
  std::shared_ptr<FileBackend> backend_;
  PersistOptions opts_;
  std::shared_ptr<engine::EngineObs> obs_;
};

/// Deletes checkpoints past the retention count and WAL segments fully
/// covered by the oldest retained checkpoint (see the header comment).
class Compactor {
 public:
  /// What one compaction pass removed.
  struct Result {
    size_t checkpoints_removed = 0;
    size_t segments_removed = 0;
  };

  /// Run one pass over `opts.dir`. `obs` (nullable) receives the
  /// *_removed counters.
  static Result run(FileBackend& backend, const PersistOptions& opts,
                    engine::EngineObs* obs);
};

}  // namespace dynsld::persist

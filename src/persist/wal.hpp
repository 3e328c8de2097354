// Write-ahead log: epoch-stamped, checksummed batch records in
// append-only segment files.
//
// The coalescing queue's drained batches are the natural WAL unit —
// they are exactly what the flush applies, already deduplicated and
// annihilated, with every erase carrying its ledger-resolved
// endpoints. At flush time (after the drain, before the apply, under
// the flush lock) the service hands each non-empty batch to the
// WalWriter, which appends ONE record per epoch:
//
//   segment file  wal-<first_epoch>.log
//     header   "DSLDWAL1" (8 B magic)  u32 version
//     record*  u32 payload_len   u32 crc32c(payload)   payload
//     payload  u64 epoch   u32 n_inserts   u32 n_erases
//              insert*  u64 ticket  u32 u  u32 v  f64 weight
//              erase*   u64 ticket  u32 u  u32 v
//
// (all integers little-endian; weights are raw IEEE-754 bits — byte
// layouts in docs/DURABILITY.md). Segments rotate at checkpoints, so
// one segment holds exactly the epochs between two checkpoints and
// compaction deletes whole files, never rewrites them.
//
// Torn tails are expected, not errors: a crash mid-append leaves a
// trailing record whose length/CRC cannot validate. WalReader::scan
// stops at the first invalid record and reports the valid byte prefix;
// recovery (persist::read_history) truncates the file there — losing
// at most the epochs the fsync policy said could be lost.
//
// A failed append POISONS the writer (every later append no-ops and
// reports failure): after an I/O error the log's tail is unknown, and
// appending more records after a hole would corrupt the epoch
// sequence. A real deployment treats a poisoned WAL as fatal; the
// crash-injection tests use it to simulate the death of the write
// path at exact byte offsets.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/mutation_queue.hpp"
#include "engine/stats.hpp"
#include "persist/file_backend.hpp"
#include "persist/options.hpp"

namespace dynsld::persist {

/// One decoded WAL record: the batch that produced `epoch`.
struct WalRecord {
  uint64_t epoch = 0;
  engine::MutationQueue::Drained batch;
};

/// Appends epoch records to the active segment under the configured
/// fsync policy (see the header comment). Not thread-safe — the
/// service serializes all appends under its flush lock.
class WalWriter {
 public:
  /// `obs` (nullable) receives wal_* counters and the persist.append /
  /// persist.fsync histograms.
  WalWriter(std::shared_ptr<FileBackend> backend, PersistOptions opts,
            std::shared_ptr<engine::EngineObs> obs);
  /// Closes (and syncs) the active segment.
  ~WalWriter();

  /// Append the record of `epoch`. Opens a segment named after `epoch`
  /// lazily when none is active. Returns false (and poisons the
  /// writer) on any I/O failure.
  bool append(uint64_t epoch, const engine::MutationQueue::Drained& batch);

  /// Close the active segment (synced) and start a fresh one whose
  /// name stamps `first_epoch` — called right after a checkpoint so
  /// compaction can delete whole segments.
  bool begin_segment(uint64_t first_epoch);

  /// Resume appending to an existing segment file (recovery: the torn
  /// tail, if any, has already been truncated away).
  bool open_existing(const std::string& name);

  /// Sync the active segment now regardless of policy (used when
  /// closing a segment; also handy in tests).
  bool sync();

  /// Interval-policy deadline check, callable OUTSIDE the append path.
  /// append() only evaluates the kInterval clock when a record arrives,
  /// so a burst followed by silence would leave the tail unsynced
  /// indefinitely; the service calls this from its idle tick and from
  /// empty flushes so a lull never exceeds the interval by more than
  /// one tick. No-op (returns true) unless policy is kInterval, there
  /// are unsynced records, and the interval has elapsed.
  bool sync_if_due();

  /// Has an append or open failed? A poisoned writer drops all
  /// subsequent appends.
  bool failed() const { return failed_; }

  /// Serialize one record (framing + payload) — exposed for tests and
  /// size accounting.
  static std::string encode_record(uint64_t epoch,
                                   const engine::MutationQueue::Drained& batch);

 private:
  bool ensure_segment(uint64_t first_epoch);
  void maybe_sync();

  std::shared_ptr<FileBackend> backend_;
  PersistOptions opts_;
  std::shared_ptr<engine::EngineObs> obs_;
  std::unique_ptr<FileBackend::File> file_;
  uint64_t records_since_sync_ = 0;
  std::chrono::steady_clock::time_point last_sync_{};
  bool failed_ = false;
};

/// Decodes segment files (see the format in the header comment).
/// Stateless — all methods are static.
class WalReader {
 public:
  /// What scanning one segment's bytes produced.
  struct Scan {
    /// Records that validated, in file order.
    std::vector<WalRecord> records;
    /// Byte offset where each record's frame starts (parallel to
    /// `records`): where a cut before records[i] truncates the file.
    std::vector<uint64_t> starts;
    /// Byte offset just past the last valid record (the truncation
    /// point when `torn`).
    uint64_t valid_bytes = 0;
    /// A trailing partial or checksum-failing record was present.
    bool torn = false;
    /// Header present and well-formed (false = not a WAL segment).
    bool ok = false;
  };

  /// Segment file name for a first epoch (zero-padded so the
  /// lexicographic directory order is the epoch order).
  static std::string segment_name(uint64_t first_epoch);
  /// Parse a segment file name; false when `name` is not one.
  static bool parse_segment_name(const std::string& name,
                                 uint64_t* first_epoch);
  /// Scan a whole segment's bytes (see Scan).
  static Scan scan(const std::string& bytes);
  /// Decode ONE framed record (u32 len + u32 crc32c + payload — the
  /// exact bytes WalWriter::encode_record produced, without any segment
  /// header). False on truncation, checksum mismatch, or trailing
  /// bytes. The replication stream ships records in this framing, so a
  /// replica applies them with the same validation as recovery.
  static bool decode_record(const std::string& bytes, WalRecord* out);
};

}  // namespace dynsld::persist

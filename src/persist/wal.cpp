#include "persist/wal.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstring>

#include "obs/trace.hpp"
#include "persist/bytes.hpp"
#include "persist/crc32c.hpp"

namespace dynsld::persist {

namespace {

constexpr char kMagic[8] = {'D', 'S', 'L', 'D', 'W', 'A', 'L', '1'};
constexpr uint32_t kVersion = 1;
constexpr size_t kHeaderBytes = sizeof(kMagic) + 4;

// Decode one record payload (the bytes after the len/crc frame, CRC
// already verified). False when the payload is short, malformed, or
// longer than its contents — shared by scan() and decode_record() so a
// replica applies streamed records with exactly recovery's validation.
bool parse_payload(const char* payload, uint32_t len, WalRecord* out) {
  ByteReader r(payload, len);
  out->epoch = r.u64();
  uint32_t n_ins = r.u32();
  uint32_t n_ers = r.u32();
  // Count sanity BEFORE reserving: the counts must exactly account for
  // the payload length (24 B per insert, 16 B per erase, 16 B header),
  // so a crafted frame cannot force a multi-gigabyte reserve.
  if (!r.ok() ||
      uint64_t(n_ins) * 24 + uint64_t(n_ers) * 16 + 16 != uint64_t(len))
    return false;
  out->batch.inserts.reserve(n_ins);
  out->batch.erases.reserve(n_ers);
  for (uint32_t i = 0; i < n_ins; ++i) {
    engine::MutationQueue::InsertOp op;
    op.ticket = r.u64();
    op.u = r.u32();
    op.v = r.u32();
    op.w = r.f64();
    out->batch.inserts.push_back(op);
  }
  for (uint32_t i = 0; i < n_ers; ++i) {
    engine::MutationQueue::EraseOp op;
    op.ticket = r.u64();
    op.u = r.u32();
    op.v = r.u32();
    out->batch.erases.push_back(op);
  }
  return r.ok() && r.remaining() == 0;
}

}  // namespace

WalWriter::WalWriter(std::shared_ptr<FileBackend> backend, PersistOptions opts,
                     std::shared_ptr<engine::EngineObs> obs)
    : backend_(std::move(backend)),
      opts_(std::move(opts)),
      obs_(std::move(obs)),
      last_sync_(std::chrono::steady_clock::now()) {}

WalWriter::~WalWriter() {
  if (file_ && !failed_) file_->sync();
}

std::string WalWriter::encode_record(
    uint64_t epoch, const engine::MutationQueue::Drained& batch) {
  ByteWriter payload;
  payload.u64(epoch);
  payload.u32(static_cast<uint32_t>(batch.inserts.size()));
  payload.u32(static_cast<uint32_t>(batch.erases.size()));
  for (const auto& op : batch.inserts) {
    payload.u64(op.ticket);
    payload.u32(op.u);
    payload.u32(op.v);
    payload.f64(op.w);
  }
  for (const auto& op : batch.erases) {
    payload.u64(op.ticket);
    payload.u32(op.u);
    payload.u32(op.v);
  }
  ByteWriter rec;
  const std::string& p = payload.bytes();
  rec.u32(static_cast<uint32_t>(p.size()));
  rec.u32(crc32c(p.data(), p.size()));
  rec.raw(p.data(), p.size());
  return rec.take();
}

bool WalWriter::ensure_segment(uint64_t first_epoch) {
  if (file_) return true;
  if (failed_) return false;
  std::string path = opts_.dir + "/" + WalReader::segment_name(first_epoch);
  file_ = backend_->open_append(path);
  if (!file_) {
    failed_ = true;
    return false;
  }
  if (file_->size() == 0) {
    // Fresh segment: stamp the header before any record.
    ByteWriter hdr;
    hdr.raw(kMagic, sizeof(kMagic));
    hdr.u32(kVersion);
    if (!file_->append(hdr.bytes().data(), hdr.bytes().size())) {
      failed_ = true;
      return false;
    }
  }
  if (obs_)
    obs_->stats.wal_segments.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool WalWriter::begin_segment(uint64_t first_epoch) {
  if (failed_) return false;
  if (file_) {
    // Close synced: a rotated-away segment is final and must be fully
    // durable before the checkpoint that supersedes it can compact it.
    if (!file_->sync()) failed_ = true;
    file_.reset();
    if (failed_) return false;
  }
  records_since_sync_ = 0;
  return ensure_segment(first_epoch);
}

bool WalWriter::open_existing(const std::string& name) {
  if (failed_ || file_) return false;
  file_ = backend_->open_append(opts_.dir + "/" + name);
  if (!file_) failed_ = true;
  return !failed_;
}

bool WalWriter::sync() {
  if (failed_ || !file_) return !failed_;
  obs::ScopedSpan span(nullptr, "persist.fsync", 0,
                       obs_ ? obs_->persist_fsync : nullptr);
  if (!file_->sync()) {
    failed_ = true;
    return false;
  }
  if (obs_) obs_->stats.wal_fsyncs.fetch_add(1, std::memory_order_relaxed);
  records_since_sync_ = 0;
  last_sync_ = std::chrono::steady_clock::now();
  return true;
}

void WalWriter::maybe_sync() {
  switch (opts_.fsync_policy) {
    case FsyncPolicy::kOff:
      return;
    case FsyncPolicy::kEveryN:
      // fsync_every_n == 0 is rejected by PersistOptions::validate().
      if (records_since_sync_ >= opts_.fsync_every_n) sync();
      return;
    case FsyncPolicy::kInterval:
      if (std::chrono::steady_clock::now() - last_sync_ >= opts_.fsync_interval)
        sync();
      return;
  }
}

bool WalWriter::sync_if_due() {
  if (failed_ || !file_) return !failed_;
  if (opts_.fsync_policy != FsyncPolicy::kInterval) return true;
  if (records_since_sync_ == 0) return true;  // nothing at risk
  if (std::chrono::steady_clock::now() - last_sync_ < opts_.fsync_interval)
    return true;
  return sync();
}

bool WalWriter::append(uint64_t epoch,
                       const engine::MutationQueue::Drained& batch) {
  if (failed_) return false;
  if (!ensure_segment(epoch)) return false;
  obs::ScopedSpan span(nullptr, "persist.append", epoch,
                       obs_ ? obs_->persist_append : nullptr);
  std::string rec = encode_record(epoch, batch);
  if (!file_->append(rec.data(), rec.size())) {
    failed_ = true;
    return false;
  }
  if (obs_) {
    obs_->stats.wal_records.fetch_add(1, std::memory_order_relaxed);
    obs_->stats.wal_bytes.fetch_add(rec.size(), std::memory_order_relaxed);
  }
  ++records_since_sync_;
  maybe_sync();
  return !failed_;
}

std::string WalReader::segment_name(uint64_t first_epoch) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "wal-%020" PRIu64 ".log", first_epoch);
  return buf;
}

bool WalReader::parse_segment_name(const std::string& name,
                                   uint64_t* first_epoch) {
  uint64_t e = 0;
  int consumed = 0;
  if (std::sscanf(name.c_str(), "wal-%20" SCNu64 ".log%n", &e, &consumed) != 1 ||
      static_cast<size_t>(consumed) != name.size())
    return false;
  *first_epoch = e;
  return true;
}

WalReader::Scan WalReader::scan(const std::string& bytes) {
  Scan s;
  if (bytes.size() < kHeaderBytes ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0)
    return s;  // not a segment (ok stays false)
  {
    ByteReader hdr(bytes.data() + sizeof(kMagic), 4);
    if (hdr.u32() != kVersion) return s;
  }
  s.ok = true;
  size_t off = kHeaderBytes;
  while (off < bytes.size()) {
    // Frame: length + checksum, then the payload. Any shortfall or
    // checksum mismatch is the torn tail — stop, remember the valid
    // prefix, and let recovery truncate there.
    if (bytes.size() - off < 8) break;
    ByteReader frame(bytes.data() + off, 8);
    uint32_t len = frame.u32();
    uint32_t crc = frame.u32();
    if (bytes.size() - off - 8 < len) break;
    const char* payload = bytes.data() + off + 8;
    if (crc32c(payload, len) != crc) break;
    WalRecord rec;
    if (!parse_payload(payload, len, &rec)) break;  // payload/CRC length lie
    s.records.push_back(std::move(rec));
    s.starts.push_back(off);
    off += 8 + len;
  }
  s.valid_bytes = off;
  s.torn = off != bytes.size();
  return s;
}

bool WalReader::decode_record(const std::string& bytes, WalRecord* out) {
  if (bytes.size() < 8) return false;
  ByteReader frame(bytes.data(), 8);
  uint32_t len = frame.u32();
  uint32_t crc = frame.u32();
  if (bytes.size() - 8 != len) return false;  // exactly one record
  const char* payload = bytes.data() + 8;
  if (crc32c(payload, len) != crc) return false;
  return parse_payload(payload, len, out);
}

}  // namespace dynsld::persist

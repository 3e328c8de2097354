#include "net/replication.hpp"

#include <sys/socket.h>

#include <algorithm>
#include <stdexcept>

#include "net/protocol.hpp"
#include "persist/checkpoint.hpp"
#include "persist/persist.hpp"
#include "persist/wal.hpp"

namespace dynsld::net {

// ---- ReplicationSource ----

ReplicationSource::ReplicationSource(engine::SldService& svc)
    : svc_(svc), obs_(svc.obs_shared()) {
  if (!svc.persistence())
    throw std::invalid_argument(
        "ReplicationSource: service has no persistence plane (the feed is "
        "the durability stream)");
  engine::SldService::EpochTap tap;
  tap.on_batch = [this](uint64_t e, const std::string& rec) {
    on_batch(e, rec);
  };
  tap.on_checkpoint = [this](uint64_t ck) { on_checkpoint(ck); };
  // Installing the tap also syncs the WAL tail to disk (under the
  // flush lock — sld_service.cpp), so everything logged before this
  // line is readable below and everything after it is tapped: the two
  // sources overlap rather than gap, and the ring dedups by epoch.
  svc_.set_epoch_tap(std::move(tap));
  prime_from_disk();
}

ReplicationSource::~ReplicationSource() {
  // Waits out any in-progress flush, so no on_batch runs past here.
  svc_.set_epoch_tap({});
}

void ReplicationSource::prime_from_disk() {
  persist::PersistenceManager* pm = svc_.persistence();
  persist::FileBackend& fb = pm->backend();
  const std::string& dir = pm->options().dir;

  std::vector<uint64_t> ckpts, segs;
  for (const std::string& name : fb.list(dir)) {
    uint64_t e;
    if (persist::CheckpointWriter::parse_file_name(name, &e))
      ckpts.push_back(e);
    if (persist::WalReader::parse_segment_name(name, &e)) segs.push_back(e);
  }
  std::sort(ckpts.begin(), ckpts.end());
  std::sort(segs.begin(), segs.end());

  // Newest checkpoint that validates (corrupt ones fall back — the
  // same discipline as persist::recover()).
  uint64_t ck_epoch = 0;
  std::string ck_bytes;
  for (auto it = ckpts.rbegin(); it != ckpts.rend(); ++it) {
    std::string bytes;
    if (!fb.read_file(dir + "/" + persist::CheckpointWriter::file_name(*it),
                      &bytes))
      continue;
    persist::CheckpointData ck;
    if (persist::CheckpointWriter::read(bytes, &ck)) {
      ck_epoch = ck.epoch;
      ck_bytes = std::move(bytes);
      break;
    }
  }

  // Re-frame every on-disk record past the checkpoint (encode_record
  // of a decoded record reproduces the original bytes exactly).
  std::vector<std::pair<uint64_t, std::string>> recs;
  for (uint64_t seg : segs) {
    std::string bytes;
    if (!fb.read_file(dir + "/" + persist::WalReader::segment_name(seg),
                      &bytes))
      continue;
    persist::WalReader::Scan scan = persist::WalReader::scan(bytes);
    for (const persist::WalRecord& rec : scan.records) {
      if (rec.epoch <= ck_epoch) continue;
      recs.emplace_back(
          rec.epoch, persist::WalWriter::encode_record(rec.epoch, rec.batch));
    }
  }

  std::lock_guard<std::mutex> lk(mu_);
  if (ck_epoch > ckpt_epoch_) {
    ckpt_epoch_ = ck_epoch;
    ckpt_bytes_ = std::move(ck_bytes);
  }
  for (auto& [e, b] : recs)
    if (e > ckpt_epoch_) ring_.try_emplace(e, std::move(b));
  ring_.erase(ring_.begin(), ring_.lower_bound(ckpt_epoch_ + 1));
  tip_ = std::max(tip_, ckpt_epoch_);
  if (!ring_.empty()) tip_ = std::max(tip_, ring_.rbegin()->first);
}

void ReplicationSource::on_batch(uint64_t epoch, const std::string& record) {
  std::function<void()> wake;
  {
    std::lock_guard<std::mutex> lk(mu_);
    ring_.try_emplace(epoch, record);
    tip_ = std::max(tip_, epoch);
    wake = wakeup_;
  }
  if (wake) wake();
}

void ReplicationSource::on_checkpoint(uint64_t checkpoint_epoch) {
  // Called under the flush lock right after the checkpoint published;
  // its bytes are final on disk (write_atomic), so read them now and
  // let the ring drop everything the checkpoint covers.
  persist::PersistenceManager* pm = svc_.persistence();
  std::string bytes;
  if (!pm->backend().read_file(
          pm->options().dir + "/" +
              persist::CheckpointWriter::file_name(checkpoint_epoch),
          &bytes))
    return;  // keep streaming from the old basis; nothing is lost
  persist::CheckpointData ck;
  if (!persist::CheckpointWriter::read(bytes, &ck)) return;
  std::lock_guard<std::mutex> lk(mu_);
  if (checkpoint_epoch <= ckpt_epoch_) return;
  // Keep the records the new checkpoint covers until the next one: the
  // server fans out on its own thread, so a connected replica may not
  // have been sent them yet. Only the previous checkpoint's span goes.
  ring_.erase(ring_.begin(), ring_.lower_bound(ckpt_epoch_ + 1));
  ckpt_epoch_ = checkpoint_epoch;
  ckpt_bytes_ = std::move(bytes);
  tip_ = std::max(tip_, ckpt_epoch_);
}

ReplicationSource::Bootstrap ReplicationSource::bootstrap() {
  std::lock_guard<std::mutex> lk(mu_);
  Bootstrap b;
  b.checkpoint_epoch = ckpt_epoch_;
  b.checkpoint_bytes = ckpt_bytes_;
  for (auto it = ring_.upper_bound(ckpt_epoch_); it != ring_.end(); ++it)
    b.records.emplace_back(it->first, it->second);
  if (obs_) {
    obs_->stats.repl_snapshots_served.fetch_add(1, std::memory_order_relaxed);
    obs_->stats.repl_records_streamed.fetch_add(b.records.size(),
                                                std::memory_order_relaxed);
  }
  return b;
}

std::vector<std::pair<uint64_t, std::string>> ReplicationSource::records_after(
    uint64_t after) {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::pair<uint64_t, std::string>> out;
  for (auto it = ring_.upper_bound(after); it != ring_.end(); ++it)
    out.emplace_back(it->first, it->second);
  if (obs_ && !out.empty())
    obs_->stats.repl_records_streamed.fetch_add(out.size(),
                                                std::memory_order_relaxed);
  return out;
}

uint64_t ReplicationSource::tip() const {
  std::lock_guard<std::mutex> lk(mu_);
  return tip_;
}

void ReplicationSource::set_wakeup(std::function<void()> fn) {
  std::lock_guard<std::mutex> lk(mu_);
  wakeup_ = std::move(fn);
}

// ---- Replica ----

namespace {

/// Blocking frame read: recv until the parser yields one frame. False
/// on close, transport error, or protocol poison.
bool read_frame(int fd, FrameParser& parser, Frame* out) {
  for (;;) {
    switch (parser.next(out)) {
      case FrameParser::Status::kFrame:
        return true;
      case FrameParser::Status::kBad:
        return false;
      case FrameParser::Status::kNeedMore:
        break;
    }
    char buf[64 * 1024];
    long n = recv_some(fd, buf, sizeof buf);
    if (n <= 0) return false;
    parser.feed(buf, static_cast<size_t>(n));
  }
}

}  // namespace

Replica::Replica(Options opt) : opt_(std::move(opt)) {
  fd_ = tcp_connect(opt_.host, opt_.port);
  if (!fd_.valid())
    throw std::runtime_error("Replica: cannot connect to " + opt_.host);
  Hello hello;
  hello.role = kRoleReplica;
  std::string frame = encode_frame(MsgType::kHello, encode_hello(hello));
  if (!send_all(fd_.get(), frame.data(), frame.size()))
    throw std::runtime_error("Replica: hello send failed");

  FrameParser parser;
  Frame f;
  if (!read_frame(fd_.get(), parser, &f) || f.type != MsgType::kHelloAck)
    throw std::runtime_error("Replica: no hello ack (is the server a "
                             "persisted writer?)");
  HelloAck ack;
  if (!decode_hello_ack(f.payload, &ack))
    throw std::runtime_error("Replica: malformed hello ack");
  if (ack.num_vertices != opt_.cfg.num_vertices ||
      ack.num_shards != uint32_t(opt_.cfg.num_shards))
    throw std::runtime_error(
        "Replica: engine shape mismatch (writer " +
        std::to_string(ack.num_vertices) + "v/" +
        std::to_string(ack.num_shards) + "s, local config " +
        std::to_string(opt_.cfg.num_vertices) + "v/" +
        std::to_string(opt_.cfg.num_shards) + "s)");

  if (!read_frame(fd_.get(), parser, &f) || f.type != MsgType::kCheckpoint)
    throw std::runtime_error("Replica: no bootstrap checkpoint frame");

  // Local engine: never persisted (the stream is the durable history).
  engine::ServiceConfig cfg = opt_.cfg;
  cfg.persist.dir.clear();
  svc_ = std::make_unique<engine::SldService>(cfg);

  if (!f.payload.empty()) {
    persist::CheckpointData ck;
    if (!persist::CheckpointWriter::read(f.payload, &ck))
      throw std::runtime_error("Replica: corrupt bootstrap checkpoint");
    // Mirror persist::recover(): the live edges as one batch under
    // their original tickets and the checkpoint's ticket floor.
    svc_->replay(ck.epoch, ck.live, ck.next_ticket);
    applied_ = ck.epoch;
  }
  live_ = true;
  // The tail thread adopts the parser mid-stream: record frames may
  // already sit buffered behind the checkpoint.
  tail_ = std::thread([this, parser = std::move(parser)]() mutable {
    Frame frame;
    for (;;) {
      if (!read_frame(fd_.get(), parser, &frame)) break;
      if (frame.type != MsgType::kWalRecord) continue;  // ignore chatter
      if (!apply_record(frame.payload)) break;
    }
    std::lock_guard<std::mutex> lk(mu_);
    live_ = false;
    cv_.notify_all();
  });
}

Replica::~Replica() {
  if (fd_.valid()) ::shutdown(fd_.get(), SHUT_RDWR);  // unblock recv
  if (tail_.joinable()) tail_.join();
}

bool Replica::apply_record(const std::string& bytes) {
  persist::WalRecord rec;
  if (!persist::WalReader::decode_record(bytes, &rec)) {
    std::lock_guard<std::mutex> lk(mu_);
    desynced_ = true;
    cv_.notify_all();
    return false;
  }
  uint64_t applied;
  {
    std::lock_guard<std::mutex> lk(mu_);
    applied = applied_;
  }
  if (rec.epoch <= applied) return true;  // bootstrap overlap, skip
  if (rec.epoch != applied + 1) {
    // Epoch gap: the stream is broken (same contract as recovery's
    // replay halt) — serving stale is safe, applying past a hole is
    // not.
    std::lock_guard<std::mutex> lk(mu_);
    desynced_ = true;
    cv_.notify_all();
    return false;
  }
  svc_->replay(rec.epoch, rec.batch);
  if (auto obs = svc_->obs_shared())
    obs->stats.repl_records_applied.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lk(mu_);
  applied_ = rec.epoch;
  cv_.notify_all();
  return true;
}

uint64_t Replica::applied_epoch() const {
  std::lock_guard<std::mutex> lk(mu_);
  return applied_;
}

bool Replica::desynced() const {
  std::lock_guard<std::mutex> lk(mu_);
  return desynced_;
}

bool Replica::live() const {
  std::lock_guard<std::mutex> lk(mu_);
  return live_;
}

bool Replica::wait_for_epoch(uint64_t epoch, std::chrono::milliseconds timeout) {
  std::unique_lock<std::mutex> lk(mu_);
  cv_.wait_for(lk, timeout, [&] {
    return applied_ >= epoch || desynced_ || !live_;
  });
  return applied_ >= epoch;
}

}  // namespace dynsld::net

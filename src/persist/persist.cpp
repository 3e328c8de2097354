#include "persist/persist.hpp"

#include <algorithm>
#include <stdexcept>

#include "obs/trace.hpp"

namespace dynsld::persist {

PersistenceManager::PersistenceManager(PersistOptions opts,
                                       std::shared_ptr<FileBackend> backend,
                                       std::shared_ptr<engine::EngineObs> obs)
    : opts_(std::move(opts)),
      backend_(std::move(backend)),
      obs_(std::move(obs)),
      wal_(backend_, opts_, obs_),
      ckpt_(backend_, opts_, obs_) {
  // Typed rejection of nonsensical knobs (zero cache/cadence used to be
  // silently clamped to 1 at the point of use). Fresh services and
  // recover() both construct the manager, so both paths are covered.
  opts_.validate();
  backend_->mkdirs(opts_.dir);
}

void PersistenceManager::require_fresh() const {
  const DurableFiles files = list_durable(*backend_, opts_.dir);
  if (files.checkpoints.empty() && files.segments.empty()) return;
  throw std::runtime_error(
      "dynsld: persist dir '" + opts_.dir +
      "' already holds durable state (" +
      (files.segments.empty()
           ? CheckpointWriter::file_name(files.checkpoints.front())
           : WalReader::segment_name(files.segments.front())) +
      "); resume it with persist::recover() instead of constructing a "
      "fresh service over it");
}

bool PersistenceManager::log_batch(
    uint64_t epoch, const engine::MutationQueue::Drained& batch) {
  track_live(batch);
  return wal_.append(epoch, batch);
}

void PersistenceManager::track_live(
    const engine::MutationQueue::Drained& batch) {
  for (const auto& op : batch.inserts)
    live_[op.ticket] = Edge{op.u, op.v, op.w};
  for (const auto& op : batch.erases) live_.erase(op.ticket);
}

void PersistenceManager::on_publish(const engine::EngineSnapshot& snap,
                                    uint64_t next_ticket) {
  // checkpoint_every == 0 is rejected by PersistOptions::validate().
  if (snap.epoch() - last_checkpoint_epoch_ < opts_.checkpoint_every) return;
  std::vector<LiveEdge> live;
  live.reserve(live_.size());
  for (const auto& [t, e] : live_)
    live.push_back(LiveEdge{t, e.u, e.v, e.w});
  if (!ckpt_.write(snap, next_ticket, live)) return;  // retry next publish
  last_checkpoint_epoch_ = snap.epoch();
  // Rotate so the new segment starts past the checkpoint: compaction
  // then deletes whole covered segments, never rewrites one.
  wal_.begin_segment(snap.epoch() + 1);
  Compactor::run(*backend_, opts_, obs_.get());
}

engine::EpochManager::Snap PersistenceManager::rehydrate(uint64_t epoch) {
  std::lock_guard<std::mutex> lk(cache_mu_);
  for (auto it = cache_.begin(); it != cache_.end(); ++it) {
    if (it->first == epoch) {
      cache_.splice(cache_.begin(), cache_, it);
      return cache_.front().second;
    }
  }
  obs::ScopedSpan span(nullptr, "persist.rehydrate", epoch,
                       obs_ ? obs_->persist_rehydrate : nullptr);
  std::string bytes;
  if (!backend_->read_file(opts_.dir + "/" + CheckpointWriter::file_name(epoch),
                           &bytes))
    return nullptr;
  CheckpointData data;
  if (!CheckpointWriter::read(bytes, &data)) return nullptr;
  ByteReader in(data.snapshot_bytes);
  engine::EpochManager::Snap snap =
      SnapshotCodec::decode(in, obs_);
  if (!snap || snap->epoch() != epoch) return nullptr;
  if (obs_)
    obs_->stats.asof_rehydrated.fetch_add(1, std::memory_order_relaxed);
  cache_.emplace_front(epoch, snap);
  // rehydrate_cache == 0 is rejected by PersistOptions::validate().
  while (cache_.size() > opts_.rehydrate_cache) cache_.pop_back();
  return snap;
}

DurableFiles list_durable(FileBackend& fb, const std::string& dir) {
  DurableFiles files;
  for (const std::string& name : fb.list(dir)) {
    uint64_t e;
    if (CheckpointWriter::parse_file_name(name, &e))
      files.checkpoints.push_back(e);
    else if (WalReader::parse_segment_name(name, &e))
      files.segments.push_back(e);
  }
  std::sort(files.checkpoints.begin(), files.checkpoints.end());
  std::sort(files.segments.begin(), files.segments.end());
  return files;
}

History read_history(FileBackend& fb, const std::string& dir) {
  const DurableFiles files = list_durable(fb, dir);
  History h;
  // Newest checkpoint that validates wins; corrupt files fall back to
  // older ones (checkpoints publish atomically, so at most the newest
  // can be a casualty of the crash — and only on non-atomic stores).
  for (auto it = files.checkpoints.rbegin(); it != files.checkpoints.rend();
       ++it) {
    if (fb.read_file(dir + "/" + CheckpointWriter::file_name(*it),
                     &h.checkpoint_bytes) &&
        CheckpointWriter::read(h.checkpoint_bytes, &h.checkpoint))
      break;
    h.checkpoint = {};
    h.checkpoint_bytes.clear();
  }

  // Walk the segments in epoch order (see the header comment for the
  // rule). What a segment keeps decides its repair and the resume
  // target, both settled once the final tip is known.
  struct Kept {
    std::string name;
    uint64_t first, size, keep_bytes;
    size_t records;     // records kept, covered ones included
    uint64_t last = 0;  // epoch of the last of them
  };
  std::vector<Kept> kept;
  uint64_t tip = h.checkpoint.epoch;
  bool cut = false;  // a hole was found: every later segment goes
  for (uint64_t first : files.segments) {
    const std::string name = WalReader::segment_name(first);
    std::string bytes;
    WalReader::Scan scan;
    if (!cut && fb.read_file(dir + "/" + name, &bytes))
      scan = WalReader::scan(bytes);
    if (!scan.ok) {  // unreadable, headerless, or past a hole
      h.repairs.push_back({name, 0});
      continue;
    }
    Kept k{name, first, bytes.size(), scan.valid_bytes, scan.records.size()};
    for (size_t i = 0; i < scan.records.size(); ++i) {
      WalRecord& rec = scan.records[i];
      if (rec.epoch > tip + 1) {  // a hole: cut here
        k.keep_bytes = scan.starts[i];
        k.records = i;
        cut = true;
        break;
      }
      k.last = rec.epoch;
      if (rec.epoch <= tip) continue;  // covered
      tip = rec.epoch;
      h.records.push_back(std::move(rec));
    }
    kept.push_back(std::move(k));
  }
  for (const Kept& k : kept) {
    const bool empty = k.records == 0;
    if (empty && k.first != tip + 1) {
      h.repairs.push_back({k.name, 0});
      continue;
    }
    if (k.keep_bytes != k.size) h.repairs.push_back({k.name, k.keep_bytes});
    h.resume = (empty || k.last == tip) ? k.name : std::string();
  }
  return h;
}

Compactor::Result Compactor::run(FileBackend& backend,
                                 const PersistOptions& opts,
                                 engine::EngineObs* obs) {
  Result res;
  const DurableFiles files = list_durable(backend, opts.dir);
  const std::vector<uint64_t>& ckpts = files.checkpoints;
  const std::vector<uint64_t>& segs = files.segments;
  size_t retain = opts.retain_checkpoints ? opts.retain_checkpoints : 1;
  if (ckpts.empty()) return res;  // no horizon yet: keep everything
  size_t drop = ckpts.size() > retain ? ckpts.size() - retain : 0;
  for (size_t i = 0; i < drop; ++i) {
    if (backend.remove(opts.dir + "/" + CheckpointWriter::file_name(ckpts[i])))
      ++res.checkpoints_removed;
  }
  // Oldest surviving checkpoint: segments whose whole epoch range is
  // at or below it are covered by replay-from-that-checkpoint and can
  // go. A segment's range ends where the NEXT segment starts (rotation
  // happens at checkpoints), so segment i is removable when segment
  // i+1 starts at or below horizon + 1.
  uint64_t horizon = ckpts[drop];
  for (size_t i = 0; i + 1 < segs.size(); ++i) {
    if (segs[i + 1] > horizon + 1) break;
    if (backend.remove(opts.dir + "/" + WalReader::segment_name(segs[i])))
      ++res.segments_removed;
  }
  if (obs) {
    if (res.checkpoints_removed)
      obs->stats.checkpoints_removed.fetch_add(res.checkpoints_removed,
                                               std::memory_order_relaxed);
    if (res.segments_removed)
      obs->stats.wal_segments_removed.fetch_add(res.segments_removed,
                                                std::memory_order_relaxed);
  }
  return res;
}

RecoverResult recover(engine::ServiceConfig cfg,
                      std::shared_ptr<FileBackend> backend) {
  if (!cfg.persist.enabled())
    throw std::invalid_argument("persist::recover: cfg.persist.dir is empty");
  if (!backend) backend = local_backend();
  const PersistOptions opts = cfg.persist;
  backend->mkdirs(opts.dir);

  const History h = read_history(*backend, opts.dir);
  for (const History::Repair& r : h.repairs) {
    const std::string path = opts.dir + "/" + r.name;
    if (r.keep_bytes)
      backend->truncate(path, r.keep_bytes);
    else
      backend->remove(path);
  }

  RecoverResult res;
  // Boot the service with persistence DETACHED: replay re-enacts
  // history through the normal mutation path, and none of it may be
  // re-logged. The manager attaches once the replay is complete.
  engine::ServiceConfig boot = cfg;
  boot.persist.dir.clear();
  auto svc = std::make_unique<engine::SldService>(boot);
  obs::ScopedSpan recover_span(nullptr, "persist.recover", 0,
                               svc->obs_shared()->persist_recover);
  auto pm =
      std::make_unique<PersistenceManager>(opts, backend, svc->obs_shared());
  if (!h.checkpoint_bytes.empty()) {
    const CheckpointData& ck = h.checkpoint;
    svc->replay(ck.epoch, ck.live, ck.next_ticket);
    pm->track_live(ck.live);
    pm->set_last_checkpoint(ck.epoch);
    res.checkpoint_epoch = ck.epoch;
  }
  for (const WalRecord& rec : h.records) {
    svc->replay(rec.epoch, rec.batch);
    pm->track_live(rec.batch);
  }
  res.tip_epoch = svc->epoch();
  res.records_replayed = h.records.size();
  res.torn_tail_truncated = !h.repairs.empty();
  if (res.records_replayed)
    svc->obs_shared()->stats.recovery_replayed.fetch_add(
        res.records_replayed, std::memory_order_relaxed);
  if (!h.resume.empty()) pm->resume_segment(h.resume);
  svc->attach_persistence(std::move(pm));
  res.service = std::move(svc);
  return res;
}

}  // namespace dynsld::persist

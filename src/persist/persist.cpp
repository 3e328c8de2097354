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
  for (const std::string& name : backend_->list(opts_.dir)) {
    uint64_t e;
    if (WalReader::parse_segment_name(name, &e) ||
        CheckpointWriter::parse_file_name(name, &e))
      throw std::runtime_error(
          "dynsld: persist dir '" + opts_.dir +
          "' already holds durable state (" + name +
          "); resume it with persist::recover() instead of constructing "
          "a fresh service over it");
  }
}

void PersistenceManager::log_batch(
    uint64_t epoch, const engine::MutationQueue::Drained& batch) {
  wal_.append(epoch, batch);
  track_live(batch);
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

RecoverResult recover(engine::ServiceConfig cfg,
                      std::shared_ptr<FileBackend> backend) {
  if (!cfg.persist.enabled())
    throw std::invalid_argument("persist::recover: cfg.persist.dir is empty");
  if (!backend) backend = local_backend();
  const PersistOptions opts = cfg.persist;
  backend->mkdirs(opts.dir);

  std::vector<uint64_t> ckpts, segs;
  for (const std::string& name : backend->list(opts.dir)) {
    uint64_t e;
    if (CheckpointWriter::parse_file_name(name, &e)) ckpts.push_back(e);
    if (WalReader::parse_segment_name(name, &e)) segs.push_back(e);
  }
  std::sort(ckpts.begin(), ckpts.end());
  std::sort(segs.begin(), segs.end());

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

  // Newest checkpoint that validates wins; corrupt files fall back to
  // older ones (checkpoints publish atomically, so at most the newest
  // can be a casualty of the crash — and only on non-atomic stores).
  CheckpointData ck;
  bool have_ck = false;
  for (auto it = ckpts.rbegin(); it != ckpts.rend(); ++it) {
    std::string bytes;
    if (!backend->read_file(
            opts.dir + "/" + CheckpointWriter::file_name(*it), &bytes))
      continue;
    if (CheckpointWriter::read(bytes, &ck)) {
      have_ck = true;
      break;
    }
  }
  if (have_ck) {
    svc->replay(ck.epoch, ck.live, ck.next_ticket);
    pm->track_live(ck.live);
    pm->set_last_checkpoint(ck.epoch);
    res.checkpoint_epoch = ck.epoch;
  }

  // Replay WAL segments in epoch order, re-enacting each record past
  // the checkpoint as one epoch. Replay halts at the first
  // tear; later segments (possible only after mid-file corruption) are
  // unreachable across the hole and are dropped.
  uint64_t published = svc->epoch();
  std::string resume;  // segment the writer should continue appending to
  bool halted = false;
  size_t si = 0;
  for (; si < segs.size() && !halted; ++si) {
    const std::string name = WalReader::segment_name(segs[si]);
    const std::string path = opts.dir + "/" + name;
    std::string bytes;
    if (!backend->read_file(path, &bytes)) {
      backend->remove(path);
      res.torn_tail_truncated = true;
      halted = true;
      break;
    }
    WalReader::Scan scan = WalReader::scan(bytes);
    if (!scan.ok) {
      // Crash before the segment header landed: the file carries no
      // records — drop it and start fresh from here.
      backend->remove(path);
      res.torn_tail_truncated = true;
      halted = true;
      break;
    }
    for (const WalRecord& rec : scan.records) {
      if (rec.epoch <= published) continue;  // covered by the checkpoint
      if (rec.epoch != published + 1) {
        // Epoch gap: impossible from the single sequential writer;
        // indicates external tampering. Stop replaying — everything up
        // to the gap is consistent — and drop the segment (resuming
        // after out-of-order records would corrupt it further).
        halted = true;
        break;
      }
      svc->replay(rec.epoch, rec.batch);
      pm->track_live(rec.batch);
      published = rec.epoch;
      ++res.records_replayed;
    }
    if (scan.torn) {
      backend->truncate(path, scan.valid_bytes);
      res.torn_tail_truncated = true;
      halted = true;
      resume = name;  // truncated to a record boundary: appendable
    } else if (!halted) {
      resume = name;
    }
  }
  if (halted) {
    for (size_t j = si; j < segs.size(); ++j)
      backend->remove(opts.dir + "/" + WalReader::segment_name(segs[j]));
  }

  res.tip_epoch = published;
  if (res.records_replayed && svc->obs_shared())
    svc->obs_shared()->stats.recovery_replayed.fetch_add(
        res.records_replayed, std::memory_order_relaxed);
  if (!resume.empty()) pm->resume_segment(resume);
  svc->attach_persistence(std::move(pm));
  res.service = std::move(svc);
  return res;
}

}  // namespace dynsld::persist

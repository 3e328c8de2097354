#include "persist/checkpoint.hpp"

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <limits>

#include "engine/snapshot.hpp"
#include "obs/trace.hpp"
#include "persist/crc32c.hpp"

namespace dynsld::persist {

namespace {

constexpr int32_t kNoSlot = engine::DendrogramSnapshot::kNoSlot;
constexpr char kMagic[8] = {'D', 'S', 'L', 'D', 'C', 'K', 'P', '1'};
// v2: EpochDelta gained per-shard patch records (shard_patch).
// v3: each shard encodes one jump-pointer array in place of the
//     binary-lifting table (levels + level-major rows), and the
//     per-shard patch records drop their lifting-round counts.
// v4: each shard encodes only its primary arrays (no counts, CSR or
//     jumps; decode re-derives them), and the delta drops
//     verts_rebuilt.
// v5: each shard drops the v endpoint array (no reader), and the delta
//     keeps only base_epoch, shard_rebuilt and cross_min_w (the cross
//     churn counts and per-shard patch records go).
constexpr uint32_t kVersion = 5;

}  // namespace

// ---- SnapshotCodec ---------------------------------------------------

void SnapshotCodec::encode_shard(const engine::DendrogramSnapshot& d,
                                 ByteWriter& out) {
  out.u32(d.n_);
  out.u32(d.base_);
  out.pod_vec(d.u_);
  out.pod_vec(d.weight_);
  out.pod_vec(d.parent_);
  out.pod_vec(d.leaf_parent_);
}

void SnapshotCodec::encode(const engine::EngineSnapshot& snap,
                           ByteWriter& out) {
  out.u64(snap.epoch_);
  out.u32(snap.map_.n);
  out.u32(static_cast<uint32_t>(snap.map_.num_shards));
  out.u32(snap.map_.stride);
  for (const auto& sp : snap.shards_) encode_shard(*sp, out);
  out.pod_vec(snap.cross_->edges());
  // Delta + trace metadata: what this epoch changed and what it cost —
  // so a rehydrated snapshot introspects exactly like the original.
  const engine::EpochDelta& dl = snap.delta_;
  out.u64(dl.base_epoch);
  out.pod_vec(dl.shard_rebuilt);
  out.f64(dl.cross_min_w);
  const obs::EpochTrace& tr = snap.trace_;
  out.u64(tr.epoch);
  out.u64(tr.ops);
  out.u32(static_cast<uint32_t>(tr.shards_rebuilt));
  out.u64(tr.drain_ns);
  out.u64(tr.apply_ns);
  out.u64(tr.shards_ns);
  out.u64(tr.cross_ns);
  // Captured edges (field-wise: WeightedEdge has tail padding, and the
  // file bytes should be a pure function of the state).
  out.u64(snap.edges_.size());
  for (const WeightedEdge& e : snap.edges_) {
    out.u32(e.u);
    out.u32(e.v);
    out.f64(e.weight);
    out.u32(e.id);
  }
}

engine::EpochManager::Snap SnapshotCodec::decode(
    ByteReader& in, std::shared_ptr<engine::EngineObs> obs) {
  auto snap = std::shared_ptr<engine::EngineSnapshot>(
      new engine::EngineSnapshot());
  snap->epoch_ = in.u64();
  snap->map_.n = in.u32();
  snap->map_.num_shards = static_cast<int>(in.u32());
  snap->map_.stride = in.u32();
  const engine::ShardMap& map = snap->map_;
  // Queries route vertex v < n to shard v / stride, so the map must be
  // the one the engine would have made for (n, num_shards), and its
  // shards must cover [0, n).
  if (!in.ok() || map.num_shards < 1 || map.num_shards > 1 << 20 ||
      map.stride != engine::ShardMap::make(map.n, map.num_shards).stride ||
      static_cast<uint64_t>(map.stride) * map.num_shards < map.n)
    return nullptr;
  snap->shards_.reserve(map.num_shards);
  for (int k = 0; k < map.num_shards; ++k) {
    auto d = std::shared_ptr<engine::DendrogramSnapshot>(
        new engine::DendrogramSnapshot());
    d->n_ = in.u32();
    d->base_ = in.u32();
    d->u_ = in.pod_vec<vertex_id>();
    d->weight_ = in.pod_vec<double>();
    d->parent_ = in.pod_vec<int32_t>();
    d->leaf_parent_ = in.pod_vec<int32_t>();
    // Queries follow every index unchecked. Validate the primary
    // arrays, then derive counts and jumps through the build's own
    // helpers (the cluster-report CSR builds lazily on first use).
    const size_t m = d->parent_.size();
    const vertex_id n = d->n_, base = d->base_;
    if (!in.ok() || n != map.local_size(k) || base != map.base(k) ||
        m > static_cast<size_t>(std::numeric_limits<int32_t>::max()) ||
        d->u_.size() != m || d->weight_.size() != m ||
        d->leaf_parent_.size() != n)
      return nullptr;
    for (size_t i = 0; i < m; ++i) {
      const int32_t p = d->parent_[i];
      if ((p != kNoSlot &&
           (p <= static_cast<int32_t>(i) || static_cast<size_t>(p) >= m)) ||
          d->u_[i] - base >= n)
        return nullptr;
    }
    for (const int32_t lp : d->leaf_parent_)
      if (lp != kNoSlot && (lp < 0 || static_cast<size_t>(lp) >= m))
        return nullptr;
    d->derive_counts();
    std::vector<uint32_t> depth;
    d->derive_jumps(depth);
    snap->shards_.push_back(std::move(d));
  }
  auto cross = in.pod_vec<engine::CrossEdgeView::Edge>();
  for (const engine::CrossEdgeView::Edge& e : cross)
    if (e.u >= map.n || e.v >= map.n) return nullptr;
  snap->cross_ = std::make_shared<const engine::CrossEdgeView>(
      std::move(cross));
  engine::EpochDelta& dl = snap->delta_;
  dl.base_epoch = in.u64();
  dl.shard_rebuilt = in.pod_vec<char>();
  dl.cross_min_w = in.f64();
  obs::EpochTrace& tr = snap->trace_;
  tr.epoch = in.u64();
  tr.ops = in.u64();
  tr.shards_rebuilt = static_cast<int>(in.u32());
  tr.drain_ns = in.u64();
  tr.apply_ns = in.u64();
  tr.shards_ns = in.u64();
  tr.cross_ns = in.u64();
  uint64_t n_edges = in.u64();
  if (n_edges > in.remaining() / 20) return nullptr;  // 20 B encoded each
  snap->edges_.reserve(static_cast<size_t>(n_edges));
  for (uint64_t i = 0; i < n_edges; ++i) {
    WeightedEdge e;
    e.u = in.u32();
    e.v = in.u32();
    e.weight = in.f64();
    e.id = in.u32();
    snap->edges_.push_back(e);
  }
  if (!in.ok()) return nullptr;
  snap->obs_ = std::move(obs);
  return snap;
}

// ---- CheckpointWriter ------------------------------------------------

CheckpointWriter::CheckpointWriter(std::shared_ptr<FileBackend> backend,
                                   PersistOptions opts,
                                   std::shared_ptr<engine::EngineObs> obs)
    : backend_(std::move(backend)),
      opts_(std::move(opts)),
      obs_(std::move(obs)) {}

std::string CheckpointWriter::file_name(uint64_t epoch) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "ckpt-%020" PRIu64 ".bin", epoch);
  return buf;
}

bool CheckpointWriter::parse_file_name(const std::string& name,
                                       uint64_t* epoch) {
  uint64_t e = 0;
  int consumed = 0;
  if (std::sscanf(name.c_str(), "ckpt-%20" SCNu64 ".bin%n", &e, &consumed) !=
          1 ||
      static_cast<size_t>(consumed) != name.size())
    return false;
  *epoch = e;
  return true;
}

bool CheckpointWriter::write(const engine::EngineSnapshot& snap,
                             uint64_t next_ticket,
                             const std::vector<LiveEdge>& live) {
  obs::ScopedSpan span(nullptr, "persist.checkpoint", snap.epoch(),
                       obs_ ? obs_->persist_checkpoint : nullptr);
  ByteWriter payload;
  payload.u64(snap.epoch());
  payload.u64(next_ticket);
  payload.u64(live.size());
  for (const LiveEdge& e : live) {
    payload.u64(e.ticket);
    payload.u32(e.u);
    payload.u32(e.v);
    payload.f64(e.w);
  }
  SnapshotCodec::encode(snap, payload);

  ByteWriter file;
  file.raw(kMagic, sizeof(kMagic));
  file.u32(kVersion);
  const std::string& p = payload.bytes();
  file.u32(static_cast<uint32_t>(p.size()));
  file.u32(crc32c(p.data(), p.size()));
  file.raw(p.data(), p.size());

  std::string path = opts_.dir + "/" + file_name(snap.epoch());
  if (!backend_->write_atomic(path, file.bytes())) return false;
  if (obs_)
    obs_->stats.checkpoints_written.fetch_add(1, std::memory_order_relaxed);
  return true;
}

bool CheckpointWriter::read(const std::string& bytes, CheckpointData* out) {
  constexpr size_t kHeader = sizeof(kMagic) + 4 + 8;  // magic+ver+frame
  if (bytes.size() < kHeader ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0)
    return false;
  ByteReader hdr(bytes.data() + sizeof(kMagic), 12);
  if (hdr.u32() != kVersion) return false;
  uint32_t len = hdr.u32();
  uint32_t crc = hdr.u32();
  if (bytes.size() - kHeader < len) return false;
  const char* payload = bytes.data() + kHeader;
  if (crc32c(payload, len) != crc) return false;
  ByteReader r(payload, len);
  out->epoch = r.u64();
  out->next_ticket = r.u64();
  uint64_t n_live = r.u64();
  if (n_live > r.remaining() / 24) return false;  // 24 B encoded each
  out->live = {};
  out->live.inserts.reserve(static_cast<size_t>(n_live));
  for (uint64_t i = 0; i < n_live; ++i) {
    LiveEdge e;
    e.ticket = r.u64();
    e.u = r.u32();
    e.v = r.u32();
    e.w = r.f64();
    out->live.inserts.push_back(e);
  }
  if (!r.ok()) return false;
  out->snapshot_bytes.assign(payload + (len - r.remaining()), r.remaining());
  return true;
}

}  // namespace dynsld::persist

#include "engine/cluster_view.hpp"

#include <algorithm>
#include <cassert>
#include <limits>
#include <map>
#include <numeric>

#include "dendrogram/static_sld.hpp"

namespace dynsld::engine {

namespace {

/// Bump one counter through the snapshot's observability bundle (null
/// in unit contexts).
void count(const EngineSnapshot& es, std::atomic<uint64_t> EngineStats::*c) {
  if (const auto& obs = es.obs())
    (obs->stats.*c).fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

int64_t ThresholdView::blob_key(int shard, int32_t top, vertex_id x) {
  // Clustered blobs key on (shard, top slot), non-negative; singleton
  // blobs key on the vertex, folded into the negative range so the two
  // spaces never collide.
  if (top == DendrogramSnapshot::kNoSlot) return -1 - static_cast<int64_t>(x);
  return static_cast<int64_t>(shard) << 32 | static_cast<uint32_t>(top);
}

std::shared_ptr<const ThresholdView::Resolution> ThresholdView::resolve(
    const EngineSnapshot& es, double tau) {
  const auto& cross = es.cross().edges();  // weight-ascending
  const size_t m = es.cross().sub_tau_prefix(tau);
  if (m == 0) return nullptr;  // trivial mode: every cluster is one shard blob

  auto res = std::make_shared<Resolution>();
  const ShardMap& map = es.shard_map();
  res->shard_hosts.assign(map.num_shards, 0);
  res->blob_of.reserve(2 * m);

  // Blob ids are dense in first-seen order, so 2m bounds them and the
  // union-find can run while the endpoints intern.
  auto intern = [&](vertex_id x) -> uint32_t {
    const int k = map.home(x);
    const int32_t top = es.shard(k).top_of(x, tau);
    auto [it, fresh] = res->blob_of.try_emplace(
        blob_key(k, top, x), static_cast<uint32_t>(res->blobs.size()));
    if (fresh) {
      res->blobs.push_back(Blob{k, top, x});
      res->shard_hosts[k] = 1;
    }
    return it->second;
  };
  UnionFind uf(2 * m);
  for (size_t i = 0; i < m; ++i) {
    const uint32_t a = intern(cross[i].u);
    uf.unite(a, intern(cross[i].v));
  }
  const uint32_t num_blobs = static_cast<uint32_t>(res->blobs.size());

  // Flatten into dense immutable groups (queries must be pure reads).
  res->blob_group.assign(num_blobs, -1);
  std::vector<int32_t> root_group(num_blobs, -1);
  int32_t num_groups = 0;
  for (uint32_t i = 0; i < num_blobs; ++i) {
    vertex_id r = uf.find(i);
    if (root_group[r] < 0) root_group[r] = num_groups++;
    res->blob_group[i] = root_group[r];
  }

  res->group_size.assign(num_groups, 0);
  res->group_off.assign(num_groups + 1, 0);
  for (uint32_t i = 0; i < num_blobs; ++i)
    ++res->group_off[res->blob_group[i] + 1];
  std::partial_sum(res->group_off.begin(), res->group_off.end(),
                   res->group_off.begin());
  res->group_blobs.resize(num_blobs);
  std::vector<uint32_t> cursor(res->group_off.begin(),
                               res->group_off.end() - 1);
  for (uint32_t i = 0; i < num_blobs; ++i) {
    res->group_blobs[cursor[res->blob_group[i]]++] = i;
    const Blob& b = res->blobs[i];
    res->group_size[res->blob_group[i]] +=
        b.top == DendrogramSnapshot::kNoSlot
            ? 1
            : es.shard(b.shard).slot_count(b.top);
  }
  return res;
}

ThresholdView::ThresholdView(EpochManager::Snap snap, double tau)
    : snap_(std::move(snap)), tau_(tau) {
  count(*snap_, &EngineStats::views_built);
  res_ = resolve(*snap_, tau_);
  if (res_) count(*snap_, &EngineStats::cross_uf_builds);
}

ThresholdView::ThresholdView(EpochManager::Snap snap, double tau,
                             std::shared_ptr<const Resolution> res)
    : snap_(std::move(snap)), tau_(tau), res_(std::move(res)) {}

std::shared_ptr<const ThresholdView> ThresholdView::refreshed(
    const std::shared_ptr<const ThresholdView>& prev,
    EpochManager::Snap snap) {
  assert(prev);
  if (snap->epoch() == prev->snap_->epoch()) return prev;
  const EngineSnapshot& es = *snap;
  const EngineSnapshot& pes = *prev->snap_;
  const double tau = prev->tau_;
  assert(es.shard_map().num_shards == pes.shard_map().num_shards &&
         es.shard_map().n == pes.shard_map().n);

  // The resolution reads the sub-tau cross prefix: unchanged when the
  // table is pointer-identical, or when a single-step delta proves
  // every changed cross edge sits above this threshold.
  const bool prefix_same =
      &es.cross() == &pes.cross() ||
      (es.delta().base_epoch == pes.epoch() && es.delta().cross_min_w > tau);
  // It also reads the tops and slot counts of the shards hosting its
  // blobs. An epoch reuses untouched shards' DendrogramSnapshots by
  // pointer, so identity proves a shard clean across any number of
  // skipped epochs.
  bool reuse = prefix_same;
  for (int k = 0; reuse && prev->res_ && k < es.shard_map().num_shards; ++k)
    reuse = !prev->res_->shard_hosts[k] || &es.shard(k) == &pes.shard(k);

  count(es, reuse         ? &EngineStats::refresh_views_reused
            : prefix_same ? &EngineStats::refresh_views_incremental
                          : &EngineStats::refresh_views_full);
  if (reuse)
    return std::shared_ptr<const ThresholdView>(
        new ThresholdView(std::move(snap), tau, prev->res_));
  return std::make_shared<const ThresholdView>(std::move(snap), tau);
}

int32_t ThresholdView::resolve_vertex(vertex_id x, int& shard,
                                      int32_t& top) const {
  shard = snap_->shard_map().home(x);
  top = snap_->shard(shard).top_of(x, tau_);
  if (!res_) return -1;
  auto it = res_->blob_of.find(blob_key(shard, top, x));
  return it == res_->blob_of.end() ? -1 : res_->blob_group[it->second];
}

bool ThresholdView::same_cluster(vertex_id s, vertex_id t) const {
  count(*snap_, &EngineStats::q_same_cluster);
  if (s == t) return true;
  int ss, st;
  int32_t tops, topt;
  int32_t gs = resolve_vertex(s, ss, tops);
  int32_t gt = resolve_vertex(t, st, topt);
  if (gs >= 0 || gt >= 0) return gs == gt;
  // Neither blob is touched by a sub-tau cross edge: the cluster is the
  // blob itself, so equality is same shard + same (non-singleton) top.
  return ss == st && tops != DendrogramSnapshot::kNoSlot && tops == topt;
}

uint64_t ThresholdView::cluster_size(vertex_id u) const {
  count(*snap_, &EngineStats::q_cluster_size);
  int s;
  int32_t top;
  int32_t g = resolve_vertex(u, s, top);
  if (g >= 0) return res_->group_size[g];
  return top == DendrogramSnapshot::kNoSlot
             ? 1
             : snap_->shard(s).slot_count(top);
}

std::vector<vertex_id> ThresholdView::cluster_report(vertex_id u) const {
  count(*snap_, &EngineStats::q_cluster_report);
  int s;
  int32_t top;
  int32_t g = resolve_vertex(u, s, top);
  if (g < 0) {
    if (top == DendrogramSnapshot::kNoSlot) return {u};
    std::vector<vertex_id> out;
    out.reserve(snap_->shard(s).slot_count(top));
    snap_->shard(s).members_of(top, out);
    return out;
  }
  std::vector<vertex_id> out;
  out.reserve(res_->group_size[g]);
  for (uint32_t i = res_->group_off[g]; i < res_->group_off[g + 1]; ++i) {
    const Blob& b = res_->blobs[res_->group_blobs[i]];
    if (b.top == DendrogramSnapshot::kNoSlot)
      out.push_back(b.vtx);
    else
      snap_->shard(b.shard).members_of(b.top, out);
  }
  return out;
}

ThresholdView::LabelSet ThresholdView::build_labels() const {
  const EngineSnapshot& es = *snap_;
  const ShardMap& map = es.shard_map();
  const Resolution* res = res_.get();
  LabelSet ls;

  // Canonical label of a blob's cluster, O(1): the vertex itself for a
  // singleton blob, the top node's u endpoint otherwise — the same
  // label flat_labels() assigns, so an un-merged blob needs no
  // override. A group's label is the min over its blobs' canons —
  // order-independent, so it depends on no interning order.
  auto canon = [&](const Blob& b) -> vertex_id {
    return b.top == DendrogramSnapshot::kNoSlot
               ? b.vtx
               : es.shard(b.shard).slot_u(b.top);
  };
  std::vector<vertex_id> glabel;
  if (res) {
    glabel.assign(res->group_size.size(),
                  std::numeric_limits<vertex_id>::max());
    for (size_t i = 0; i < res->blobs.size(); ++i)
      glabel[res->blob_group[i]] =
          std::min(glabel[res->blob_group[i]], canon(res->blobs[i]));
  }

  // Per-shard label blocks write straight into the flat array; a
  // clustered blob whose canon is not its group's label passes the
  // group label in as an override of its top slot, so the shard sweep
  // writes every member's final label. The per-shard histograms merge
  // into `acc`.
  std::vector<std::vector<DendrogramSnapshot::LabelOverride>> overrides(
      map.num_shards);
  if (res) {
    for (size_t i = 0; i < res->blobs.size(); ++i) {
      const Blob& b = res->blobs[i];
      const vertex_id gl = glabel[res->blob_group[i]];
      if (b.top != DendrogramSnapshot::kNoSlot && canon(b) != gl)
        overrides[b.shard].push_back({b.top, gl});
    }
  }
  ls.flat.resize(map.n);
  std::map<uint64_t, int64_t> acc;
  for (int k = 0; k < map.num_shards; ++k) {
    const DendrogramSnapshot& d = es.shard(k);
    const auto hist = d.flat_labels(
        tau_,
        std::span<vertex_id>(ls.flat.data() + map.base(k), d.num_vertices()),
        overrides[k]);
    for (const auto& [size, cnt] : hist) acc[size] += static_cast<int64_t>(cnt);
  }

  if (res) {
    // Cross-touched singletons take their group label directly.
    for (size_t i = 0; i < res->blobs.size(); ++i) {
      const Blob& b = res->blobs[i];
      if (b.top == DendrogramSnapshot::kNoSlot)
        ls.flat[b.vtx] = glabel[res->blob_group[i]];
    }
    // The histogram never touches the O(n) array: move each cross
    // group's blob clusters into one merged bin.
    for (const Blob& b : res->blobs) {
      uint64_t bs = b.top == DendrogramSnapshot::kNoSlot
                        ? 1
                        : es.shard(b.shard).slot_count(b.top);
      --acc[bs];
    }
    for (uint64_t gs : res->group_size) ++acc[gs];
  }
  for (const auto& [size, cnt] : acc) {
    assert(cnt >= 0);
    if (cnt > 0) ls.hist.bins.emplace_back(size, static_cast<uint64_t>(cnt));
  }
  count(es, &EngineStats::labels_rebuilt);
  return ls;
}

const ThresholdView::LabelSet& ThresholdView::label_set() const {
  std::call_once(labels_once_, [this] { labels_ = build_labels(); });
  return labels_;
}

const std::vector<vertex_id>& ThresholdView::flat_clustering() const {
  count(*snap_, &EngineStats::q_flat_clustering);
  return label_set().flat;
}

const SizeHistogram& ThresholdView::size_histogram() const {
  count(*snap_, &EngineStats::q_size_histogram);
  return label_set().hist;
}

uint64_t ThresholdView::num_clusters() const {
  count(*snap_, &EngineStats::q_num_clusters);
  const ShardMap& map = snap_->shard_map();
  uint64_t total = 0;
  for (int k = 0; k < map.num_shards; ++k)
    total += snap_->shard(k).num_clusters(tau_);
  // Each cross-merge group collapses its member blobs — one per-shard
  // cluster or cross-touched singleton each, all distinct — into one.
  if (res_) total -= res_->blobs.size() - res_->group_size.size();
  return total;
}

QueryResult ThresholdView::run(const Query& q) const {
  // This view's threshold is authoritative (see header); the request's
  // tau is only the broker's routing key.
  assert(query_tau(q) == tau_);
  struct Dispatch {
    const ThresholdView& v;
    QueryResult operator()(const SameClusterQuery& r) const {
      return v.same_cluster(r.u, r.v);
    }
    QueryResult operator()(const ClusterSizeQuery& r) const {
      return v.cluster_size(r.u);
    }
    QueryResult operator()(const ClusterReportQuery& r) const {
      return v.cluster_report(r.u);
    }
    QueryResult operator()(const FlatClusteringQuery&) const {
      return v.flat_clustering();
    }
    QueryResult operator()(const SizeHistogramQuery&) const {
      return v.size_histogram();
    }
    QueryResult operator()(const NumClustersQuery&) const {
      return v.num_clusters();
    }
  };
  return std::visit(Dispatch{*this}, q);
}

}  // namespace dynsld::engine

#include "engine/contraction.hpp"

#include <algorithm>
#include <cassert>
#include <cstring>
#include <utility>

namespace dynsld::engine {

namespace {
constexpr int32_t kNoSlot = DendrogramSnapshot::kNoSlot;
}  // namespace

std::shared_ptr<const DendrogramSnapshot> ShardContraction::advance(
    DynSLD& sld, vertex_id base, const DendrogramSnapshot* prev,
    PatchStats& out) {
  out = PatchStats{};
  if (!incremental_) return DendrogramSnapshot::build(sld, base);
  const Dendrogram::Journal& j = sld.structure_journal();
  // An empty previous shard (cold start, epoch 0) rebuilds without
  // counting as a viability fallback — there was nothing to patch.
  if (last_ && prev == last_.get() && prev->num_nodes() > 0 && j.enabled &&
      !j.overflowed) {
    if (auto snap = try_patch(sld, base, *prev, out)) return snap;
    out.fallback = true;
  }
  return rebuild(sld, base);
}

std::shared_ptr<const DendrogramSnapshot> ShardContraction::rebuild(
    DynSLD& sld, vertex_id base) {
  std::vector<edge_id> ids;
  auto snap = DendrogramSnapshot::build(sld, base, &ids);
  adopt(sld, std::move(ids), snap);
  return snap;
}

void ShardContraction::adopt(DynSLD& sld, std::vector<edge_id>&& ids,
                             std::shared_ptr<const DendrogramSnapshot> snap) {
  ids_ = std::move(ids);
  slot_of_.assign(sld.dendrogram().capacity(), kNoSlot);
  for (size_t i = 0; i < ids_.size(); ++i)
    slot_of_[ids_[i]] = static_cast<int32_t>(i);
  sld.enable_structure_journal(journal_cap(ids_.size()));
  last_ = std::move(snap);
}

std::shared_ptr<const DendrogramSnapshot> ShardContraction::try_patch(
    DynSLD& sld, vertex_id base, const DendrogramSnapshot& prev,
    PatchStats& out) {
  const Dendrogram& d = sld.dendrogram();
  const Dendrogram::Journal& j = sld.structure_journal();
  const size_t m_old = prev.num_nodes();
  assert(base == prev.base());

  // 1. Reconcile the raw journal into disjoint edit sets against the
  //    live dendrogram: `added` = journal-added ids still alive;
  //    `removed_slots` = old slots whose node died (including the old
  //    incarnation of re-added ids); `reparented` = survivors whose
  //    parent pointer changed.
  std::vector<edge_id> added(j.added);
  std::sort(added.begin(), added.end());
  added.erase(std::unique(added.begin(), added.end()), added.end());
  std::erase_if(added, [&](edge_id e) { return !d.alive(e); });

  std::vector<int32_t> removed_slots;
  removed_slots.reserve(j.removed.size());
  for (const Dendrogram::Journal::Removed& r : j.removed)
    if (r.e < slot_of_.size() && slot_of_[r.e] != kNoSlot)
      removed_slots.push_back(slot_of_[r.e]);
  std::sort(removed_slots.begin(), removed_slots.end());
  removed_slots.erase(
      std::unique(removed_slots.begin(), removed_slots.end()),
      removed_slots.end());

  // The raw reparent log runs into the thousands for a small batch
  // (erase replacements rewrite parents transiently), so dedup with
  // edge-id stamps instead of a sort: O(raw) with the stamp buffer
  // retained across epochs.
  if (seen_.size() < d.capacity()) seen_.resize(d.capacity(), 0);
  for (edge_id e : added) seen_[e] = 1;  // added ids are not reparents
  std::vector<edge_id> reparented;
  reparented.reserve(j.parent_changed.size());
  for (edge_id e : j.parent_changed) {
    if (!d.alive(e) || seen_[e]) continue;
    seen_[e] = 1;
    reparented.push_back(e);
  }
  for (edge_id e : added) seen_[e] = 0;
  for (edge_id e : reparented) seen_[e] = 0;

  // 2. Exact viability, re-verified at materialization (the journal cap
  //    was only a loose pre-filter): a patch touching half the shard
  //    cannot beat the rebuild.
  const size_t changed_n =
      added.size() + removed_slots.size() + reparented.size();
  if (m_old == 0 || 2 * changed_n >= m_old) return nullptr;

  // 3. Integrity: the reconciled sets must account for the live node
  //    count exactly; anything else means a missed write.
  const size_t m = m_old - removed_slots.size() + added.size();
  if (m != d.size()) return nullptr;

  auto snap = std::shared_ptr<DendrogramSnapshot>(new DendrogramSnapshot());
  DendrogramSnapshot& s = *snap;
  s.n_ = prev.n_;
  s.base_ = base;
  // The merged arrays append into reserved storage (run inserts are
  // memcpy-grade and touch each page once); parent_ is sized up front
  // because step 6 fills it out of slot order.
  s.u_.reserve(m);
  s.weight_.reserve(m);
  s.parent_.resize(m);

  // 4. Rank merge of the surviving old slots (already sorted — this
  //    replaces the fresh build's O(m log m) sort) with the added
  //    nodes, producing the new slot order plus the old -> new slot
  //    remap. Both sides are sorted, so one streamed scan over the old
  //    order finds every insertion point; everything between two edit
  //    points then block-copies, so the merge costs O(m) in sequential
  //    memory.
  // Rank keys fetched once (d.rank walks the node table; the sort's
  // comparator would re-read it per compare).
  std::vector<std::pair<Rank, edge_id>> akeys;
  akeys.reserve(added.size());
  for (edge_id e : added) akeys.emplace_back(d.rank(e), e);
  std::sort(akeys.begin(), akeys.end());
  for (size_t a = 0; a < added.size(); ++a) added[a] = akeys[a].second;
  std::vector<size_t> ipos(added.size());
  {
    // Successive insertion points are non-decreasing, so each search
    // gallops forward from the last one and binary-searches the landed
    // range: O(edits log gap) probes instead of a scan over m.
    // Weights decide almost every probe; the id tiebreak array is only
    // touched on exact weight collisions, halving the cold reads.
    auto old_below = [&](size_t idx, const Rank& r) {
      const double w = prev.weight_[idx];
      if (w != r.weight) return w < r.weight;
      return ids_[idx] < r.id;
    };
    size_t lo = 0;
    for (size_t a = 0; a < added.size(); ++a) {
      const Rank& ar = akeys[a].first;
      size_t step = 1, hi = lo;
      while (hi < m_old && old_below(hi, ar)) {
        lo = hi + 1;
        hi = lo + step - 1;
        step *= 2;
      }
      hi = std::min(hi, m_old);
      while (lo < hi) {
        const size_t mid = (lo + hi) / 2;
        if (old_below(mid, ar))
          lo = mid + 1;
        else
          hi = mid;
      }
      ipos[a] = lo;  // first old slot ranked above the added node
    }
  }

  // 5. (fused into the merge walk) Edge-id -> slot map: clear every id
  //    that died up front; the walk then writes the shifted position of
  //    each live node as it places it.
  if (slot_of_.size() < d.capacity()) slot_of_.resize(d.capacity(), kNoSlot);
  for (const Dendrogram::Journal::Removed& r : j.removed)
    if (r.e < slot_of_.size()) slot_of_[r.e] = kNoSlot;

  remap_.resize(m_old);
  std::vector<edge_id> new_ids;
  new_ids.reserve(m);
  size_t ri = 0, ai = 0, so = 0;
  auto place_added = [&] {
    const edge_id e = added[ai++];
    const Dendrogram::Node& nd = d.node(e);
    const int32_t w = static_cast<int32_t>(new_ids.size());
    new_ids.push_back(e);
    s.u_.push_back(nd.u + base);
    s.weight_.push_back(nd.weight);
    slot_of_[e] = w;
  };
  while (so < m_old) {
    while (ai < added.size() && ipos[ai] == so) place_added();
    if (ri < removed_slots.size() &&
        removed_slots[ri] == static_cast<int32_t>(so)) {
      remap_[so] = kRemovedSlot;
      ++ri;
      ++so;
      continue;
    }
    size_t end = m_old;  // run of untouched survivors: block-copy it
    if (ai < added.size()) end = std::min(end, ipos[ai]);
    if (ri < removed_slots.size())
      end = std::min(end, static_cast<size_t>(removed_slots[ri]));
    const size_t len = end - so;
    const size_t w = new_ids.size();
    new_ids.insert(new_ids.end(), ids_.begin() + so, ids_.begin() + end);
    s.u_.insert(s.u_.end(), prev.u_.begin() + so, prev.u_.begin() + end);
    s.weight_.insert(s.weight_.end(), prev.weight_.begin() + so,
                     prev.weight_.begin() + end);
    for (size_t t = 0; t < len; ++t) {
      remap_[so + t] = static_cast<int32_t>(w + t);
      slot_of_[ids_[so + t]] = static_cast<int32_t>(w + t);
    }
    so = end;
  }
  while (ai < added.size()) place_added();
  assert(new_ids.size() == m);

  // 6. Parent pointers: survivors remap-copy; slots with genuinely new
  //    structure (added nodes + reparented survivors) read the live
  //    dendrogram. A survivor whose remapped parent was removed is by
  //    the detach-before-remove invariant always in `reparented`, so
  //    the transient kRemovedSlot is always overwritten.
  for (size_t o = 0; o < m_old; ++o) {
    const int32_t ni = remap_[o];
    if (ni == kRemovedSlot) continue;
    const int32_t op = prev.parent_[o];
    s.parent_[ni] = op == kNoSlot ? kNoSlot : remap_[op];
  }
  auto read_parent = [&](edge_id e) {
    const edge_id p = d.node(e).parent;
    s.parent_[slot_of_[e]] = p == kNoEdge ? kNoSlot : slot_of_[p];
  };
  for (edge_id e : added) read_parent(e);
  for (edge_id e : reparented) read_parent(e);
#ifndef NDEBUG
  for (size_t i = 0; i < m; ++i)
    assert(s.parent_[i] == kNoSlot || s.parent_[i] > static_cast<int32_t>(i));
#endif

  // 7. Leaf hooks: value-remap the previous epoch's e*_v slots, then
  //    re-resolve only vertices whose incident edge set changed (the
  //    endpoints of added/removed nodes).
  s.leaf_parent_.resize(s.n_);
  for (vertex_id v = 0; v < s.n_; ++v) {
    const int32_t lp = prev.leaf_parent_[v];
    s.leaf_parent_[v] = lp == kNoSlot ? kNoSlot : remap_[lp];
  }
  if (vmoved_.size() < s.n_) vmoved_.resize(s.n_, 0);
  std::vector<vertex_id> vtouched;  // stamped vertices, to clear below
  auto retop = [&](vertex_id v) {
    // Endpoints shared by several edits re-resolve once — each resolve
    // splays inside the dynamic forest, so the stamp saves real work.
    if (vmoved_[v]) return;
    vmoved_[v] = 1;
    vtouched.push_back(v);
    const edge_id e = sld.min_incident_edge(v);
    s.leaf_parent_[v] = e == kNoEdge ? kNoSlot : slot_of_[e];
  };
  for (const Dendrogram::Journal::Removed& r : j.removed) {
    retop(r.u);
    retop(r.v);
  }
  for (edge_id e : added) {
    const Dendrogram::Node& nd = d.node(e);
    retop(nd.u);
    retop(nd.v);
  }
  for (const vertex_id v : vtouched) vmoved_[v] = 0;
#ifndef NDEBUG
  for (vertex_id v = 0; v < s.n_; ++v)
    assert(s.leaf_parent_[v] != kRemovedSlot);
#endif

  // 8. Subtree counts: the exact code path the fresh build runs, so
  //    they match bit-for-bit. The cluster-report CSR is not built
  //    here; the snapshot derives it on its first members_of() call.
  s.derive_counts();

  // 9. Jump pointers: one descending pass through the fresh build's
  //    own helper.
  s.derive_jumps(depth_);

  // 10. Re-arm for the next epoch.
  ids_ = std::move(new_ids);
  sld.enable_structure_journal(journal_cap(m));
  last_ = snap;
  out.patched = true;
  return snap;
}

}  // namespace dynsld::engine

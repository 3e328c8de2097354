// Update front-end: a thread-safe mutation queue that coalesces
// pending operations before they reach the shards.
//
// Clients get a ticket per insertion and erase by ticket, so an edge's
// identity is stable from the moment it is enqueued even though the
// shard-level handle only exists after the flush that applies it.
// Coalescing rules, applied under the queue lock:
//
//   - erase(t) while insert(t) is still pending annihilates both (the
//     edge never existed as far as the shards are concerned) — the
//     common churn pattern of short-lived edges costs zero shard work;
//   - a second erase of the same pending ticket is dropped;
//   - insert tickets are unique, so inserts never merge.
//
// drain() hands the writer everything pending in one atomic cut. An
// erase can therefore only reference a ticket applied by an *earlier*
// epoch: an insert/erase pair inside one cut has already annihilated.
//
// The queue also keeps a (u, v) -> tickets ledger of every insertion
// not yet erased (it survives drains), so callers can erase by
// endpoints instead of retaining tickets; a multi-edge erases its most
// recently inserted copy first.
//
// Dirty-set capture: queued erases carry the endpoints the ledger
// resolved at enqueue time, so a drained batch can report exactly which
// shards (and whether the cross table) applying it will touch.
// Annihilated insert/erase pairs are gone before the drain and
// contribute nothing — the tests pin that invariant down, since it is
// what keeps churn-only traffic invisible to the epoch plane.
#pragma once

#include <algorithm>
#include <cstdint>
#include <mutex>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "engine/epoch.hpp"
#include "engine/stats.hpp"
#include "graph/types.hpp"

namespace dynsld::engine {

/// Stable identity of one enqueued insertion; the erase key.
using ticket_t = uint64_t;
inline constexpr ticket_t kNoTicket = static_cast<ticket_t>(-1);

/// The coalescing update queue between clients and the flush path (see
/// the header comment). All public methods are thread-safe.
class MutationQueue {
 public:
  /// A pending insertion as the flush consumes it.
  struct InsertOp {
    ticket_t ticket;
    vertex_id u, v;
    double w;
  };

  /// A pending erase as the flush consumes it.
  struct EraseOp {
    ticket_t ticket;
    // Endpoints resolved through the ledger at enqueue time (kNoVertex
    // pair when the ticket was never inserted through this queue), so
    // the flush knows which shard an erase lands in without resolving
    // the shard-level handle first.
    vertex_id u = kNoVertex, v = kNoVertex;
  };

  /// Which shards — and whether the cross table — applying a batch will
  /// touch (the set of per-shard structures the next epoch rebuilds).
  struct BatchDirty {
    std::vector<char> shards;
    bool cross = false;

    bool any() const {
      for (char c : shards)
        if (c) return true;
      return cross;
    }
  };

  /// One atomic cut of everything pending, handed to the flush.
  struct Drained {
    std::vector<InsertOp> inserts;  // enqueue order
    std::vector<EraseOp> erases;    // enqueue order, deduplicated
    size_t size() const { return inserts.size() + erases.size(); }
    bool empty() const { return inserts.empty() && erases.empty(); }

    /// The dirty set this batch implies under `map`. Erases whose
    /// ticket never went through the queue have unknown endpoints and
    /// are skipped (the router counts them as invalid at apply).
    BatchDirty dirty_set(const ShardMap& map) const {
      BatchDirty d;
      d.shards.assign(map.num_shards, 0);
      auto touch = [&](vertex_id u, vertex_id v) {
        if (map.intra(u, v))
          d.shards[map.home(u)] = 1;
        else
          d.cross = true;
      };
      for (const InsertOp& op : inserts) touch(op.u, op.v);
      for (const EraseOp& op : erases)
        if (op.u != kNoVertex) touch(op.u, op.v);
      return d;
    }
  };

  explicit MutationQueue(EngineStats* stats = nullptr) : stats_(stats) {}

  ticket_t enqueue_insert(vertex_id u, vertex_id v, double w) {
    std::lock_guard<std::mutex> lk(mu_);
    ticket_t t = next_ticket_++;
    insert_locked(InsertOp{t, u, v, w});
    if (stats_) stats_->inserts_enqueued.fetch_add(1, std::memory_order_relaxed);
    return t;
  }

  /// Returns false when the erase annihilated a pending insert (nothing
  /// will reach the shards), true when it was queued for the next flush.
  bool enqueue_erase(ticket_t t) {
    std::lock_guard<std::mutex> lk(mu_);
    return erase_locked(t);
  }

  /// Erase by endpoints: resolves (u, v) through the ledger to the most
  /// recently inserted live copy of that edge and erases it. Returns
  /// false when no live insertion of (u, v) is known.
  bool enqueue_erase(vertex_id u, vertex_id v) {
    std::lock_guard<std::mutex> lk(mu_);
    auto it = by_endpoints_.find(endpoint_key(u, v));
    if (it == by_endpoints_.end()) {
      // Nothing was enqueued, so neither erases_enqueued (an accepted
      // erase) nor duplicate_erases (a repeated ticket) applies; misses
      // get their own counter.
      if (stats_)
        stats_->erase_ledger_misses.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    erase_locked(it->second.back());
    return true;
  }

  // ---- recovery plumbing (SldService::replay) ----

  /// Re-enqueue a logged batch under its ORIGINAL tickets, so ticket
  /// identity — and the endpoint ledger's most-recent-copy resolution —
  /// survives a crash, then raise the ticket counter to at least
  /// `ticket_floor` (a checkpoint's counter: erased-then-forgotten
  /// tickets are never reissued). The counter also rises past every
  /// restored insert. Erases never annihilate: their tickets were
  /// applied by an earlier replayed epoch. Bumps no enqueue stats —
  /// replayed traffic already counted when it first ran.
  void restore(const Drained& batch, ticket_t ticket_floor) {
    std::lock_guard<std::mutex> lk(mu_);
    for (const InsertOp& op : batch.inserts) {
      if (op.ticket >= next_ticket_) next_ticket_ = op.ticket + 1;
      insert_locked(op);
    }
    for (const EraseOp& op : batch.erases) erase_locked(op.ticket, false);
    if (ticket_floor > next_ticket_) next_ticket_ = ticket_floor;
  }

  /// The next ticket enqueue_insert would hand out (checkpoints record
  /// it as the restore floor).
  ticket_t next_ticket() const {
    std::lock_guard<std::mutex> lk(mu_);
    return next_ticket_;
  }

  Drained drain() {
    std::lock_guard<std::mutex> lk(mu_);
    Drained d;
    d.inserts.reserve(live_inserts_);
    for (const InsertOp& op : inserts_) {
      if (op.ticket != kNoTicket) d.inserts.push_back(op);
    }
    d.erases = std::move(erases_);
    inserts_.clear();
    reset_table(pending_pos_);
    erases_.clear();
    reset_table(erase_set_);
    live_inserts_ = 0;
    return d;
  }

  size_t pending() const {
    std::lock_guard<std::mutex> lk(mu_);
    return live_inserts_ + erases_.size();
  }

 private:
  static uint64_t endpoint_key(vertex_id u, vertex_id v) {
    if (u > v) std::swap(u, v);
    return (static_cast<uint64_t>(u) << 32) | v;
  }

  /// Empty a per-drain table. clear() walks the whole bucket array, and
  /// a bulk load leaves it sized for its own batch; past a small floor,
  /// a table far emptier than its buckets is swapped for a fresh one so
  /// later small drains stop paying for the bulk load's size.
  template <class Table>
  static void reset_table(Table& t) {
    if (t.bucket_count() > std::max<size_t>(1024, 4 * t.size()))
      t = Table{};
    else
      t.clear();
  }

  /// Queue `op` as pending and record it in the endpoint ledger.
  void insert_locked(const InsertOp& op) {
    pending_pos_[op.ticket] = inserts_.size();
    inserts_.push_back(op);
    ++live_inserts_;
    uint64_t k = endpoint_key(op.u, op.v);
    by_endpoints_[k].push_back(op.ticket);
    key_of_[op.ticket] = k;
  }

  bool erase_locked(ticket_t t, bool count = true) {
    if (count && stats_)
      stats_->erases_enqueued.fetch_add(1, std::memory_order_relaxed);
    // Capture the ledger's endpoints while dropping the entry (one
    // lookup for both): a queued erase of an applied ticket carries
    // them into the drained batch.
    vertex_id eu = kNoVertex, ev = kNoVertex;
    if (auto kit = key_of_.find(t); kit != key_of_.end()) {
      eu = static_cast<vertex_id>(kit->second >> 32);
      ev = static_cast<vertex_id>(kit->second & 0xffffffffu);
      auto bucket = by_endpoints_.find(kit->second);
      auto& tickets = bucket->second;
      tickets.erase(std::find(tickets.begin(), tickets.end(), t));
      if (tickets.empty()) by_endpoints_.erase(bucket);
      key_of_.erase(kit);
    }
    auto it = pending_pos_.find(t);
    if (it != pending_pos_.end()) {
      inserts_[it->second].ticket = kNoTicket;  // tombstone
      pending_pos_.erase(it);
      --live_inserts_;
      if (count && stats_)
        stats_->coalesced_pairs.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if (!erase_set_.insert(t).second) {
      if (count && stats_)
        stats_->duplicate_erases.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    erases_.push_back(EraseOp{t, eu, ev});
    return true;
  }

  mutable std::mutex mu_;
  ticket_t next_ticket_ = 0;
  std::vector<InsertOp> inserts_;
  std::unordered_map<ticket_t, size_t> pending_pos_;
  std::vector<EraseOp> erases_;
  std::unordered_set<ticket_t> erase_set_;
  // Endpoint ledger: live (not yet erased) insertions by normalized
  // (u, v); survives drain() so applied edges stay resolvable.
  std::unordered_map<uint64_t, std::vector<ticket_t>> by_endpoints_;
  std::unordered_map<ticket_t, uint64_t> key_of_;
  size_t live_inserts_ = 0;
  EngineStats* stats_;
};

}  // namespace dynsld::engine

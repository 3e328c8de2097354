// Incremental per-shard snapshot builds: retained slot order +
// copy-on-write patching of the rank-sorted DendrogramSnapshot.
//
// A fresh build re-sorts every alive node by rank, O(m log m), even
// when the batch touched a handful of edges. This module replaces the
// sort with a merge driven by the batch's structural footprint.
//
// ShardContraction retains, per shard, across epochs the slot ->
// edge-id order the previous snapshot chose (and its inverse), so the
// dendrogram's structural-change journal — raw node adds / removes /
// re-parentings recorded by the batch algorithms themselves —
// translates into slot-space edits.
//
// A patched build then:
//   1. reconciles the journal against the live dendrogram into disjoint
//      added / removed / re-parented node sets;
//   2. re-checks patch viability exactly at materialization (the
//      journal's cap is a loose pre-filter) — too much churn falls
//      back to the fresh build;
//   3. rank-merges the surviving slots with the added nodes (the old
//      order is already sorted: a linear merge replaces the O(m log m)
//      sort), remapping every slot-valued array copy-on-write;
//   4. recomputes per-vertex leaf hooks only for vertices whose
//      incident edge set changed, and re-derives the subtree counts
//      through the exact code path the fresh build uses (no CSR: the
//      snapshot builds that lazily for cluster reports);
//   5. re-derives the jump pointers in one O(m) pass, again through
//      the fresh build's own helper. Dense slots renumber on every add
//      or remove, so no slot-valued array survives an epoch unchanged;
//      one linear pass is the whole cost.
//
// The output is bit-identical to DendrogramSnapshot::build on the same
// dendrogram: the merge reproduces the fresh build's rank order, parent
// pointers and leaf hooks come from the same live dendrogram, and every
// derived array comes from a helper both paths share.
// tests/test_snapshot.cpp pins this byte for byte through SnapshotCodec
// at every epoch of randomized batch schedules, and the engine's fuzz
// harness checks patched shards survive persist::recover() unchanged.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "engine/snapshot.hpp"
#include "graph/types.hpp"

namespace dynsld::engine {

/// One shard's incremental snapshot builder (see the header comment).
/// Owned by ShardRouter next to the shard's DynamicClustering; NOT
/// thread-safe (the router builds each shard from one task).
class ShardContraction {
 public:
  /// Slot sentinel distinct from DendrogramSnapshot::kNoSlot: the old
  /// slot was removed this epoch (remap targets only).
  static constexpr int32_t kRemovedSlot = -2;

  /// Outcome of one advance(), surfaced into EngineStats and the
  /// flush.shard_build / flush.shard_patch histograms.
  struct PatchStats {
    bool patched = false;   // false: fresh rebuild
    bool fallback = false;  // viability re-check failed at
                            // materialization (counted rebuilt)
  };

  /// Produce this shard's snapshot for the epoch being built. `prev` is
  /// the shard snapshot of the previous epoch (nullptr at epoch 0);
  /// patching engages only when it is the exact snapshot this builder
  /// produced last (pointer identity — the same cleanliness test the
  /// rest of the engine uses) and the journal stayed within its cap.
  /// Consumes and re-arms the dendrogram's structural-change journal.
  std::shared_ptr<const DendrogramSnapshot> advance(
      DynSLD& sld, vertex_id base, const DendrogramSnapshot* prev,
      PatchStats& out);

 private:
  std::shared_ptr<const DendrogramSnapshot> rebuild(DynSLD& sld,
                                                    vertex_id base);
  /// The patch path; returns nullptr when the exact viability or
  /// integrity checks fail (caller falls back to rebuild()).
  std::shared_ptr<const DendrogramSnapshot> try_patch(
      DynSLD& sld, vertex_id base, const DendrogramSnapshot& prev,
      PatchStats& out);

  /// Journal cap for the next epoch: past this many raw entries a patch
  /// cannot win, so the journal stops logging (loose pre-filter; the
  /// exact check runs at materialization).
  static size_t journal_cap(size_t m) { return 2 * m + 64; }

  /// Re-arm bookkeeping after a successful build of `snap` whose slot
  /// order is `ids` (moved in).
  void adopt(DynSLD& sld, std::vector<edge_id>&& ids,
             std::shared_ptr<const DendrogramSnapshot> snap);

  // Retained across epochs: the previous snapshot's slot order, its
  // inverse (edge id -> slot), and the snapshot itself (pointer
  // identity = validity).
  std::vector<edge_id> ids_;
  std::vector<int32_t> slot_of_;
  std::shared_ptr<const DendrogramSnapshot> last_;

  // Reusable scratch (sized to the shard, allocated once).
  std::vector<int32_t> remap_;    // old slot -> new slot / kRemovedSlot
  std::vector<uint8_t> seen_;     // edge-id stamps for journal dedup
  std::vector<uint32_t> depth_;   // scratch for derive_jumps
  std::vector<uint8_t> vmoved_;   // vertex stamps: e*_v re-resolved this epoch
};

}  // namespace dynsld::engine

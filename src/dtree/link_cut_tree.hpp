// Link-cut trees (Sleator–Tarjan) over splay trees, augmented with:
//   - path aggregates: max/min Rank and node count on preferred paths
//     (=> path-max queries for thresholds and MSF cycle queries),
//   - order statistics on root paths (=> spine select / path median),
//   - monotone weight search on root paths (=> the paper's path weight
//     search query, Def 4.1, for spines whose ranks increase upward),
//   - virtual-subtree sizes (=> O(log n) cluster-size queries, §6.1).
//
// Two usage profiles:
//   * unrooted forest (connectivity / path max): link, cut, connected,
//     path_max — these use evert internally.
//   * rooted tree (the dendrogram spine index): link_root,
//     cut_from_parent, spine_* operations, subtree_size — these must
//     never be mixed with evert on the same instance, since rooted
//     semantics depend on a stable orientation.
//
// All operations are O(log n) amortized. The RC tree (src/rctree)
// provides the paper's worst-case/parallel counterpart; the two engines
// are cross-checked in tests.
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <vector>

#include "graph/types.hpp"

namespace dynsld {

class LinkCutTree {
 public:
  static constexpr int kNull = -1;
  static constexpr Rank kMinRank{-std::numeric_limits<double>::infinity(), 0};
  static constexpr Rank kMaxRank{std::numeric_limits<double>::infinity(), kNoEdge};

  LinkCutTree() = default;
  explicit LinkCutTree(size_t n) { grow(n); }

  size_t size() const { return nodes_.size(); }

  /// Ensure nodes [0, n) exist; new nodes are isolated with key kMinRank.
  void grow(size_t n) {
    if (n > nodes_.size()) nodes_.resize(n);
  }

  /// Set the key (weight) of x. Splays x so aggregates stay correct.
  void set_key(int x, Rank k) {
    access(x);
    nodes_[x].key = k;
    pull(x);
  }

  Rank key(int x) const { return nodes_[x].key; }

  bool connected(int u, int v) {
    if (u == v) return true;
    return find_root(u) == find_root(v);
  }

  int find_root(int x) {
    access(x);
    int t = x;
    push_down(t);
    while (nodes_[t].ch[0] != kNull) {
      t = nodes_[t].ch[0];
      push_down(t);
    }
    splay(t);
    return t;
  }

  /// Make x the root of its tree (unrooted profile only).
  void evert(int x) {
    access(x);
    nodes_[x].flip ^= true;
    push_down(x);
  }

  /// Join the trees of u and v by the edge (u, v) (unrooted profile).
  void link(int u, int v) {
    evert(u);
    assert(find_root(v) != u && "link would create a cycle");
    access(u);  // u is a splay root and tree root
    access(v);
    nodes_[u].par = v;
    nodes_[v].vsub += nodes_[u].asub;
    pull(v);
  }

  /// Remove the edge (u, v); u and v must be adjacent (unrooted profile).
  void cut(int u, int v) {
    evert(u);
    access(v);
    // Path u..v is the splay tree of v; adjacency means it is exactly
    // the two nodes, with u as v's left child and a leaf.
    assert(nodes_[v].ch[0] == u && nodes_[u].ch[0] == kNull &&
           nodes_[u].ch[1] == kNull && "cut of a non-existent edge");
    nodes_[v].ch[0] = kNull;
    nodes_[u].par = kNull;
    pull(v);
  }

  /// Max rank over nodes on the path u..v inclusive (unrooted profile).
  Rank path_max(int u, int v) {
    evert(u);
    access(v);
    assert(find_root(v) == u || u == v);
    access(v);
    return nodes_[v].mx;
  }

  // ------------------------------------------------------------------
  // Rooted profile (dendrogram spine index).
  // ------------------------------------------------------------------

  /// Attach c (a tree root) below p.
  void link_root(int c, int p) {
    access(c);
    assert(nodes_[c].ch[0] == kNull && "link_root: c must be a tree root");
    access(p);
    assert(c != p);
    nodes_[c].par = p;
    nodes_[p].vsub += nodes_[c].asub;
    pull(p);
  }

  /// Detach c from its parent (no-op if c is already a root).
  void cut_from_parent(int c) {
    access(c);
    int l = nodes_[c].ch[0];
    if (l == kNull) return;
    nodes_[c].ch[0] = kNull;
    nodes_[l].par = kNull;
    pull(c);
  }

  /// Number of nodes on the path from x to its tree root, inclusive.
  int spine_length(int x) {
    access(x);
    return static_cast<int>(nodes_[x].sz);
  }

  /// k-th node (0-based) on the root path of x counted from the root
  /// (k=0 is the tree root, k=len-1 is x).
  int spine_select_from_top(int x, int k) {
    access(x);
    int t = x;
    while (true) {
      push_down(t);
      int lsz = nodes_[t].ch[0] == kNull
                    ? 0
                    : static_cast<int>(nodes_[nodes_[t].ch[0]].sz);
      if (k < lsz) {
        t = nodes_[t].ch[0];
      } else if (k == lsz) {
        splay(t);
        return t;
      } else {
        k -= lsz + 1;
        t = nodes_[t].ch[1];
      }
    }
  }

  /// Path weight search (Def 4.1) on the root path of x, whose keys
  /// increase from x to the root: the maximum-key node with key < w,
  /// or kNull if every node on the path has key >= w.
  int spine_search_below(int x, Rank w) {
    access(x);
    // In-order = root..x, keys strictly decreasing; we want the first
    // in-order node with key < w.
    int t = x, best = kNull;
    while (t != kNull) {
      push_down(t);
      if (nodes_[t].key < w) {
        best = t;
        t = nodes_[t].ch[0];
      } else {
        t = nodes_[t].ch[1];
      }
    }
    if (best != kNull) splay(best);
    return best;
  }

  /// Dual of spine_search_below: minimum-key node with key > w.
  int spine_search_above(int x, Rank w) {
    access(x);
    int t = x, best = kNull;
    while (t != kNull) {
      push_down(t);
      if (w < nodes_[t].key) {
        best = t;
        t = nodes_[t].ch[1];
      } else {
        t = nodes_[t].ch[0];
      }
    }
    if (best != kNull) splay(best);
    return best;
  }

  /// Node count of the whole tree containing x (either profile): after
  /// access(x), x's splay tree holds the root path and every other node
  /// hangs off it as a virtual subtree.
  uint64_t tree_size(int x) {
    access(x);
    return nodes_[x].asub;
  }

  /// Size of the subtree rooted at x (rooted profile; includes x).
  uint64_t subtree_size(int x) {
    access(x);
    return 1 + nodes_[x].vsub;
  }

 private:
  struct Nd {
    int ch[2] = {kNull, kNull};
    int par = kNull;  // splay parent, or path-parent when splay root
    bool flip = false;
    Rank key = kMinRank;
    Rank mx = kMinRank;   // max key over the splay subtree (path fragment)
    uint32_t sz = 1;      // splay subtree size (path fragment length)
    uint64_t vsub = 0;    // total size of virtual (non-preferred) subtrees
    uint64_t asub = 1;    // 1 + vsub + asub(splay children): full subtree
  };

  bool is_splay_root(int x) const {
    int p = nodes_[x].par;
    return p == kNull || (nodes_[p].ch[0] != x && nodes_[p].ch[1] != x);
  }

  void push_down(int x) {
    Nd& nd = nodes_[x];
    if (!nd.flip) return;
    std::swap(nd.ch[0], nd.ch[1]);
    for (int c : nd.ch) {
      if (c != kNull) nodes_[c].flip ^= true;
    }
    nd.flip = false;
  }

  void pull(int x) {
    Nd& nd = nodes_[x];
    nd.sz = 1;
    nd.mx = nd.key;
    nd.asub = 1 + nd.vsub;
    for (int c : nd.ch) {
      if (c == kNull) continue;
      const Nd& cn = nodes_[c];
      nd.sz += cn.sz;
      if (nd.mx < cn.mx) nd.mx = cn.mx;
      nd.asub += cn.asub;
    }
  }

  void rotate(int x) {
    int y = nodes_[x].par;
    int z = nodes_[y].par;
    int dir = nodes_[y].ch[1] == x ? 1 : 0;
    bool y_root = is_splay_root(y);
    int b = nodes_[x].ch[1 - dir];

    nodes_[y].ch[dir] = b;
    if (b != kNull) nodes_[b].par = y;
    nodes_[x].ch[1 - dir] = y;
    nodes_[y].par = x;
    nodes_[x].par = z;
    if (!y_root) {
      if (nodes_[z].ch[0] == y) {
        nodes_[z].ch[0] = x;
      } else {
        nodes_[z].ch[1] = x;
      }
    }
    pull(y);
    pull(x);
  }

  void splay(int x) {
    // Push pending flips from the splay root down to x before rotating.
    scratch_.clear();
    int t = x;
    scratch_.push_back(t);
    while (!is_splay_root(t)) {
      t = nodes_[t].par;
      scratch_.push_back(t);
    }
    for (size_t i = scratch_.size(); i-- > 0;) push_down(scratch_[i]);

    while (!is_splay_root(x)) {
      int y = nodes_[x].par;
      if (!is_splay_root(y)) {
        int z = nodes_[y].par;
        bool zigzig = (nodes_[z].ch[1] == y) == (nodes_[y].ch[1] == x);
        rotate(zigzig ? y : x);
      }
      rotate(x);
    }
  }

  /// Make the path root..x preferred and splay x; returns the last
  /// path-parent encountered (useful as an LCA primitive).
  int access(int x) {
    splay(x);
    if (nodes_[x].ch[1] != kNull) {
      nodes_[x].vsub += nodes_[nodes_[x].ch[1]].asub;
      nodes_[x].ch[1] = kNull;
      pull(x);
    }
    int last = x;
    while (nodes_[x].par != kNull) {
      int y = nodes_[x].par;
      splay(y);
      if (nodes_[y].ch[1] != kNull) {
        nodes_[y].vsub += nodes_[nodes_[y].ch[1]].asub;
      }
      nodes_[y].vsub -= nodes_[x].asub;
      nodes_[y].ch[1] = x;
      pull(y);
      splay(x);
      last = y;
    }
    return last;
  }

  std::vector<Nd> nodes_;
  std::vector<int> scratch_;  // reused stack for splay push-downs
};

}  // namespace dynsld

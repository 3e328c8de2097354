// Parallel sequence primitives in the binary fork-join model:
//   reduce        O(n) work, O(log n) depth
//   scan          O(n) work, O(log n) depth (exclusive, blocked two-pass)
//   filter / pack O(n) work, O(log n) depth, order-preserving (§2.3)
//   merge         O(n) work, O(log n) depth (dual binary search, §2.3)
//   merge_sort    O(n log n) work, O(log^2 n) depth, stable
// These mirror the primitives the paper assumes (JáJá / Cole); the SLD
// update algorithms consume filter (deletion unmerge) and merge
// (insertion spine merge) directly.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <iterator>
#include <span>
#include <vector>

#include "parallel/par.hpp"

namespace dynsld::par {

inline constexpr size_t kSeqThreshold = 2048;

/// Build a vector of n elements where element i is f(i).
template <typename F>
auto tabulate(size_t n, F&& f) {
  using T = std::decay_t<decltype(f(size_t{0}))>;
  std::vector<T> out(n);
  parallel_for(0, n, [&](size_t i) { out[i] = f(i); });
  return out;
}

/// Sum-like reduction of in under an associative op with identity.
template <typename T, typename Op = std::plus<T>>
T reduce(std::span<const T> in, T identity = T{}, Op op = Op{}) {
  if (in.size() <= kSeqThreshold) {
    T acc = identity;
    for (const T& x : in) acc = op(acc, x);
    return acc;
  }
  size_t mid = in.size() / 2;
  T left{}, right{};
  par_do([&] { left = reduce(in.subspan(0, mid), identity, op); },
         [&] { right = reduce(in.subspan(mid), identity, op); });
  return op(left, right);
}

/// Exclusive prefix sums of in into out (same buffer allowed); returns
/// the total. Blocked two-pass algorithm.
template <typename T, typename Op = std::plus<T>>
T scan_exclusive(std::span<const T> in, std::span<T> out, T identity = T{},
                 Op op = Op{}) {
  const size_t n = in.size();
  if (n == 0) return identity;
  if (n <= kSeqThreshold) {
    T acc = identity;
    for (size_t i = 0; i < n; ++i) {
      T next = op(acc, in[i]);
      out[i] = acc;
      acc = next;
    }
    return acc;
  }
  const size_t nblocks = std::min<size_t>(8 * static_cast<size_t>(num_workers()),
                                          (n + kSeqThreshold - 1) / kSeqThreshold);
  const size_t bsize = (n + nblocks - 1) / nblocks;
  std::vector<T> sums(nblocks, identity);
  parallel_for(
      0, nblocks,
      [&](size_t b) {
        size_t lo = b * bsize, hi = std::min(n, lo + bsize);
        T acc = identity;
        for (size_t i = lo; i < hi; ++i) acc = op(acc, in[i]);
        sums[b] = acc;
      },
      1);
  T total = identity;
  for (size_t b = 0; b < nblocks; ++b) {
    T next = op(total, sums[b]);
    sums[b] = total;
    total = next;
  }
  parallel_for(
      0, nblocks,
      [&](size_t b) {
        size_t lo = b * bsize, hi = std::min(n, lo + bsize);
        T acc = sums[b];
        for (size_t i = lo; i < hi; ++i) {
          T next = op(acc, in[i]);
          out[i] = acc;
          acc = next;
        }
      },
      1);
  return total;
}

/// Order-preserving filter: all x in `in` with pred(x), in input order.
template <typename T, typename Pred>
std::vector<T> filter(std::span<const T> in, Pred pred) {
  const size_t n = in.size();
  if (n <= kSeqThreshold) {
    std::vector<T> out;
    out.reserve(n);
    for (const T& x : in)
      if (pred(x)) out.push_back(x);
    return out;
  }
  std::vector<size_t> flags(n);
  parallel_for(0, n, [&](size_t i) { flags[i] = pred(in[i]) ? 1 : 0; });
  std::vector<size_t> offsets(n);
  size_t total = scan_exclusive<size_t>(flags, offsets);
  std::vector<T> out(total);
  parallel_for(0, n, [&](size_t i) {
    if (flags[i]) out[offsets[i]] = in[i];
  });
  return out;
}

/// pack: keep in[i] where keep[i] is nonzero, preserving order, into
/// `out` (resized; its capacity is reused).
template <typename T>
void pack(std::span<const T> in, std::span<const char> keep, std::vector<T>& out) {
  const size_t n = in.size();
  if (n <= kSeqThreshold) {
    out.clear();
    for (size_t i = 0; i < n; ++i) {
      if (keep[i]) out.push_back(in[i]);
    }
    return;
  }
  std::vector<size_t> flags(n);
  parallel_for(0, n, [&](size_t i) { flags[i] = keep[i] ? 1 : 0; });
  std::vector<size_t> offsets(n);
  size_t total = scan_exclusive<size_t>(flags, offsets);
  out.resize(total);
  parallel_for(0, n, [&](size_t i) {
    if (flags[i]) out[offsets[i]] = in[i];
  });
}

template <typename T>
std::vector<T> pack(std::span<const T> in, std::span<const char> keep) {
  std::vector<T> out;
  pack(in, keep, out);
  return out;
}

namespace internal {

template <typename T, typename Comp>
void merge_rec(std::span<const T> a, std::span<const T> b, std::span<T> out,
               Comp comp) {
  if (a.size() + b.size() <= kSeqThreshold) {
    std::merge(a.begin(), a.end(), b.begin(), b.end(), out.begin(), comp);
    return;
  }
  if (a.size() < b.size()) {
    // Keep `a` the larger side so the split halves it; swapping operands
    // is safe for stability here because std::merge's tie rule (prefer
    // a's element) is preserved by using upper_bound vs lower_bound.
    size_t mb = b.size() / 2;
    // Elements of a strictly less-or-equal b[mb] go left: upper_bound.
    size_t ma = static_cast<size_t>(
        std::upper_bound(a.begin(), a.end(), b[mb], comp) - a.begin());
    par_do(
        [&] { merge_rec(a.subspan(0, ma), b.subspan(0, mb), out.subspan(0, ma + mb), comp); },
        [&] { merge_rec(a.subspan(ma), b.subspan(mb), out.subspan(ma + mb), comp); });
    return;
  }
  size_t ma = a.size() / 2;
  size_t mb = static_cast<size_t>(
      std::lower_bound(b.begin(), b.end(), a[ma], comp) - b.begin());
  par_do(
      [&] { merge_rec(a.subspan(0, ma), b.subspan(0, mb), out.subspan(0, ma + mb), comp); },
      [&] { merge_rec(a.subspan(ma), b.subspan(mb), out.subspan(ma + mb), comp); });
}

}  // namespace internal

/// Merge two sorted sequences into one sorted output sequence.
/// out.size() must equal a.size() + b.size().
template <typename T, typename Comp = std::less<T>>
void merge(std::span<const T> a, std::span<const T> b, std::span<T> out,
           Comp comp = Comp{}) {
  internal::merge_rec(a, b, out, comp);
}

template <typename T, typename Comp = std::less<T>>
std::vector<T> merge(std::span<const T> a, std::span<const T> b,
                     Comp comp = Comp{}) {
  std::vector<T> out(a.size() + b.size());
  merge<T>(a, b, std::span<T>(out), comp);
  return out;
}

namespace internal {

template <typename T, typename Comp>
void merge_sort_rec(std::span<T> data, std::span<T> buf, Comp comp,
                    bool to_buf) {
  const size_t n = data.size();
  if (n <= kSeqThreshold) {
    std::stable_sort(data.begin(), data.end(), comp);
    if (to_buf) std::copy(data.begin(), data.end(), buf.begin());
    return;
  }
  size_t mid = n / 2;
  par_do([&] { merge_sort_rec(data.subspan(0, mid), buf.subspan(0, mid), comp, !to_buf); },
         [&] { merge_sort_rec(data.subspan(mid), buf.subspan(mid), comp, !to_buf); });
  std::span<T> src = to_buf ? data : buf;
  std::span<T> dst = to_buf ? buf : data;
  merge_rec(std::span<const T>(src.subspan(0, mid)),
            std::span<const T>(src.subspan(mid)), dst, comp);
}

}  // namespace internal

/// Stable parallel merge sort, in place.
template <typename T, typename Comp = std::less<T>>
void sort(std::span<T> data, Comp comp = Comp{}) {
  if (data.size() <= kSeqThreshold) {
    std::stable_sort(data.begin(), data.end(), comp);
    return;
  }
  std::vector<T> buf(data.size());
  internal::merge_sort_rec(data, std::span<T>(buf), comp, /*to_buf=*/false);
}

template <typename T, typename Comp = std::less<T>>
void sort(std::vector<T>& data, Comp comp = Comp{}) {
  sort(std::span<T>(data), comp);
}

}  // namespace dynsld::par

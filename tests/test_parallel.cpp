// Unit tests for the fork-join runtime and the sequence primitives.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <numeric>
#include <random>

#include "parallel/par.hpp"
#include "parallel/primitives.hpp"
#include "parallel/random.hpp"

namespace dynsld::par {
namespace {

TEST(Scheduler, ParDoRunsBoth) {
  int a = 0, b = 0;
  par_do([&] { a = 1; }, [&] { b = 2; });
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 2);
}

TEST(Scheduler, NestedForkJoin) {
  std::atomic<int> count{0};
  std::function<void(int)> rec = [&](int depth) {
    if (depth == 0) {
      count.fetch_add(1, std::memory_order_relaxed);
      return;
    }
    par_do([&] { rec(depth - 1); }, [&] { rec(depth - 1); });
  };
  rec(10);
  EXPECT_EQ(count.load(), 1 << 10);
}

TEST(Scheduler, ParallelForCoversRange) {
  const size_t n = 100000;
  std::vector<int> hit(n, 0);
  parallel_for(0, n, [&](size_t i) { hit[i] += 1; });
  EXPECT_EQ(std::accumulate(hit.begin(), hit.end(), 0), static_cast<int>(n));
}

/// fork() right after parallel work, while idle workers still sweep the
/// deques under their locks: the child inherits no workers, and a deque
/// lock a worker held at the fork must not stay locked in the child.
/// The child's fork-join runs sequentially and finishes.
TEST(Scheduler, ForkedChildRunsParallelWork) {
#if defined(__SANITIZE_THREAD__)
  GTEST_SKIP() << "TSan does not support fork() from a threaded process";
#endif
  const size_t n = 1 << 12;
  for (int round = 0; round < 200; ++round) {
    std::vector<int> hit(n, 0);
    parallel_for(0, n, [&](size_t i) { hit[i] = 1; });
    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ::alarm(10);  // a deadlocked child dies instead of hanging
      std::vector<int> again(n, 0);
      parallel_for(0, n, [&](size_t i) { again[i] = 1; });
      ::_exit(std::accumulate(again.begin(), again.end(), 0) ==
                      static_cast<int>(n)
                  ? 0
                  : 1);
    }
    int status = 0;
    ASSERT_EQ(::waitpid(pid, &status, 0), pid);
    ASSERT_TRUE(WIFEXITED(status)) << "round " << round;
    ASSERT_EQ(WEXITSTATUS(status), 0) << "round " << round;
  }
}

TEST(Scheduler, ParallelForEmptyAndTiny) {
  int calls = 0;
  parallel_for(5, 5, [&](size_t) { ++calls; });
  EXPECT_EQ(calls, 0);
  parallel_for(7, 8, [&](size_t i) {
    EXPECT_EQ(i, 7u);
    ++calls;
  });
  EXPECT_EQ(calls, 1);
}

class PrimitiveSizes : public ::testing::TestWithParam<size_t> {};

TEST_P(PrimitiveSizes, ReduceMatchesStd) {
  const size_t n = GetParam();
  std::vector<uint64_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = hash64(i) % 1000;
  uint64_t want = std::accumulate(v.begin(), v.end(), uint64_t{0});
  EXPECT_EQ(reduce<uint64_t>(v), want);
}

TEST_P(PrimitiveSizes, ScanExclusiveMatchesStd) {
  const size_t n = GetParam();
  std::vector<uint64_t> v(n), got(n), want(n);
  for (size_t i = 0; i < n; ++i) v[i] = hash64(i) % 100;
  uint64_t acc = 0;
  for (size_t i = 0; i < n; ++i) {
    want[i] = acc;
    acc += v[i];
  }
  uint64_t total = scan_exclusive<uint64_t>(v, got);
  EXPECT_EQ(total, acc);
  EXPECT_EQ(got, want);
}

TEST_P(PrimitiveSizes, ScanExclusiveInPlace) {
  const size_t n = GetParam();
  std::vector<uint64_t> v(n), want(n);
  for (size_t i = 0; i < n; ++i) v[i] = hash64(i * 7) % 100;
  uint64_t acc = 0;
  for (size_t i = 0; i < n; ++i) {
    want[i] = acc;
    acc += v[i];
  }
  scan_exclusive<uint64_t>(v, v);
  EXPECT_EQ(v, want);
}

TEST_P(PrimitiveSizes, FilterKeepsOrder) {
  const size_t n = GetParam();
  std::vector<uint64_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = hash64(i);
  auto pred = [](uint64_t x) { return x % 3 == 0; };
  auto got = filter<uint64_t>(v, pred);
  std::vector<uint64_t> want;
  for (uint64_t x : v)
    if (pred(x)) want.push_back(x);
  EXPECT_EQ(got, want);
}

TEST_P(PrimitiveSizes, PackMatchesFlags) {
  const size_t n = GetParam();
  std::vector<uint64_t> v(n);
  std::vector<char> keep(n);
  for (size_t i = 0; i < n; ++i) {
    v[i] = i;
    keep[i] = (hash64(i) & 1) != 0;
  }
  auto got = pack<uint64_t>(v, keep);
  std::vector<uint64_t> want;
  for (size_t i = 0; i < n; ++i)
    if (keep[i]) want.push_back(v[i]);
  EXPECT_EQ(got, want);
}

TEST_P(PrimitiveSizes, MergeMatchesStd) {
  const size_t n = GetParam();
  std::vector<uint64_t> a(n / 2), b(n - n / 2);
  for (size_t i = 0; i < a.size(); ++i) a[i] = hash64(i) % 10000;
  for (size_t i = 0; i < b.size(); ++i) b[i] = hash64(i + 99) % 10000;
  std::sort(a.begin(), a.end());
  std::sort(b.begin(), b.end());
  auto got = merge<uint64_t>(a, b);
  std::vector<uint64_t> want(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(), want.begin());
  EXPECT_EQ(got, want);
}

TEST_P(PrimitiveSizes, SortMatchesStd) {
  const size_t n = GetParam();
  std::vector<uint64_t> v(n);
  for (size_t i = 0; i < n; ++i) v[i] = hash64(i) % 1000;
  auto want = v;
  std::stable_sort(want.begin(), want.end());
  par::sort(v);
  EXPECT_EQ(v, want);
}

INSTANTIATE_TEST_SUITE_P(Sizes, PrimitiveSizes,
                         ::testing::Values(0, 1, 2, 7, 100, 2048, 2049, 50000));

TEST(Merge, StableTieBreaking) {
  // Equal keys: all of a's elements precede b's (std::merge semantics).
  struct Tag {
    int key;
    int src;
  };
  std::vector<Tag> a(3000, Tag{5, 0}), b(3000, Tag{5, 1});
  std::vector<Tag> out(6000);
  merge<Tag>(a, b, out, [](const Tag& x, const Tag& y) { return x.key < y.key; });
  for (size_t i = 0; i < 3000; ++i) EXPECT_EQ(out[i].src, 0);
  for (size_t i = 3000; i < 6000; ++i) EXPECT_EQ(out[i].src, 1);
}

TEST(Tabulate, Basic) {
  auto v = tabulate(1000, [](size_t i) { return i * i; });
  ASSERT_EQ(v.size(), 1000u);
  for (size_t i = 0; i < 1000; ++i) EXPECT_EQ(v[i], i * i);
}

TEST(Rng, Deterministic) {
  Rng a(42), b(42);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
  Rng c(43);
  EXPECT_NE(Rng(42).next(), c.next());
}

TEST(Rng, BoundedAndDouble) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.next_bounded(17), 17u);
    double d = r.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

}  // namespace
}  // namespace dynsld::par

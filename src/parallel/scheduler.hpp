// Work-stealing scheduler implementing the binary fork-join model
// (Blelloch et al., "Optimal Parallel Algorithms in the Binary-Forking
// Model", SPAA 2020) that the paper analyzes all algorithms in.
//
// Design: P workers, each with a LIFO deque of jobs. fork/join is
// expressed through par_do(f1, f2): the caller pushes a job for f2 onto
// its own deque, runs f1 inline, and then either pops f2 back (not
// stolen: run inline) or steals other work while waiting for the thief
// to finish f2. Jobs live on the forker's stack, so no allocation
// happens on the fork path.
//
// The runtime is deliberately simple (spinlock deques, random victim
// selection) in exchange for being easy to verify; on the target
// machines the algorithms are memory-bound so deque overhead is not the
// bottleneck. The calling (external) thread participates as worker 0
// while it waits, so a 1-thread pool degenerates to plain sequential
// execution with no job traffic at all.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <thread>
#include <vector>

namespace dynsld::par {

/// A unit of work forked by par_do. Lives on the forking thread's stack;
/// the forker never returns before `done` is set, so the storage is safe.
struct Job {
  void (*run)(void*) = nullptr;
  void* arg = nullptr;
  std::atomic<bool> taken{false};
  std::atomic<bool> done{false};
};

/// Singleton work-stealing pool. Thread-safe for use by its own workers;
/// external entry is serialized by a claim gate: one foreign thread at a
/// time adopts worker slot 0 for the duration of its outermost fork-join
/// computation, and a concurrent foreign entry simply runs its
/// computation sequentially instead of forking (par_do handles this, so
/// callers — e.g. the engine's query plane fanning out a batch while the
/// writer flushes — never need to coordinate). This is what lets the
/// engine's publish notifications compose with concurrent reader
/// batches: a flush's fork-join work on the writer thread and the
/// broker dispatcher's group fan-out can both call par_do at once;
/// whichever loses the gate degrades to sequential execution of the
/// same computation, never to blocking or deadlock.
class Scheduler {
 public:
  /// Global instance; created on first use with num_workers() threads
  /// taken from DYNSLD_NUM_THREADS or std::thread::hardware_concurrency.
  static Scheduler& instance();

  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;
  ~Scheduler();

  int num_workers() const { return num_workers_; }

  /// Resize the pool. Must be called while no parallel work is running.
  void set_num_workers(int p);

  /// True when the current thread should fork (pool has >1 worker).
  bool should_fork() const { return num_workers_ > 1; }

  /// Is the current thread already inside the pool (a worker thread, or
  /// a foreign thread that has claimed the external-entry slot)?
  bool in_pool() const { return current_worker() >= 0; }

  /// Claim the external-entry slot (worker slot 0) for this foreign
  /// thread. Returns false when another foreign thread holds it — the
  /// caller must then run its computation sequentially.
  bool try_enter_external();

  /// Release the slot claimed by try_enter_external(); must be called
  /// by the same thread after its outermost fork-join returns.
  void exit_external();

  /// Push a job onto the current thread's deque (registering the thread
  /// as worker 0 if it is the external entry thread).
  void push(Job* job);

  /// Try to pop `job` back off the local deque. Returns true when the
  /// job was not stolen and the caller should run it inline.
  bool pop_if_local(Job* job);

  /// Steal-while-waiting until `job` completes.
  void wait(Job* job);

 private:
  explicit Scheduler(int num_workers);

  struct WorkerQueue;

  int register_external_thread();
  int current_worker() const;
  bool try_steal_and_run(int self);
  void worker_loop(int id);
  void start_threads();
  void stop_threads();

  // pthread_atfork handlers for the global instance. A worker may hold
  // a deque lock at the instant another thread forks, and the child
  // inherits that lock held with no worker left to release it; its
  // first push would then block forever. So the forking thread takes
  // every deque lock first and both sides release them. The child has
  // no workers, so it also drops to one worker (sequential fork-join).
  static void before_fork();
  static void after_fork_parent();
  static void after_fork_child();

  int num_workers_ = 1;
  std::atomic<bool> stop_{false};
  std::atomic<bool> external_busy_{false};
  std::vector<std::unique_ptr<WorkerQueue>> queues_;
  std::vector<std::thread> threads_;
};

}  // namespace dynsld::par

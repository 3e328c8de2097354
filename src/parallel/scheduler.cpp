#include "parallel/scheduler.hpp"

#include <pthread.h>

#include <cassert>
#include <cstdlib>
#include <mutex>
#include <random>
#include <string>

namespace dynsld::par {
namespace {

// Identity of the current thread inside the pool; -1 for foreign threads.
thread_local int tls_worker_id = -1;

// Handles of workers that did not survive a fork (after_fork_child).
std::vector<std::thread>* orphaned_workers = nullptr;

int default_num_workers() {
  if (const char* env = std::getenv("DYNSLD_NUM_THREADS")) {
    int p = std::atoi(env);
    if (p >= 1) return p;
  }
  unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

}  // namespace

struct Scheduler::WorkerQueue {
  std::mutex mu;
  std::deque<Job*> jobs;

  void push_bottom(Job* j) {
    std::lock_guard<std::mutex> lock(mu);
    jobs.push_back(j);
  }

  // Owner-side pop: succeeds only when `j` is still at the bottom, which
  // with LIFO discipline means it was not stolen.
  bool pop_bottom_if(Job* j) {
    std::lock_guard<std::mutex> lock(mu);
    if (!jobs.empty() && jobs.back() == j) {
      jobs.pop_back();
      return true;
    }
    return false;
  }

  Job* steal_top() {
    std::lock_guard<std::mutex> lock(mu);
    if (jobs.empty()) return nullptr;
    Job* j = jobs.front();
    jobs.pop_front();
    return j;
  }
};

Scheduler& Scheduler::instance() {
  static Scheduler sched(default_num_workers());
  static const int atfork = pthread_atfork(
      &Scheduler::before_fork, &Scheduler::after_fork_parent,
      &Scheduler::after_fork_child);
  (void)atfork;
  return sched;
}

void Scheduler::before_fork() {
  for (auto& q : instance().queues_) q->mu.lock();
}

void Scheduler::after_fork_parent() {
  for (auto& q : instance().queues_) q->mu.unlock();
}

void Scheduler::after_fork_child() {
  Scheduler& s = instance();
  for (auto& q : s.queues_) q->mu.unlock();
  // The worker threads did not survive the fork: their handles can be
  // neither joined nor destroyed (joinable), so they are parked for
  // good.
  orphaned_workers = new std::vector<std::thread>(std::move(s.threads_));
  s.threads_.clear();
  s.num_workers_ = 1;
}

Scheduler::Scheduler(int num_workers) { set_num_workers(num_workers); }

Scheduler::~Scheduler() { stop_threads(); }

void Scheduler::set_num_workers(int p) {
  if (p < 1) p = 1;
  stop_threads();
  num_workers_ = p;
  queues_.clear();
  queues_.reserve(static_cast<size_t>(p));
  for (int i = 0; i < p; ++i) queues_.push_back(std::make_unique<WorkerQueue>());
  start_threads();
}

void Scheduler::start_threads() {
  stop_.store(false, std::memory_order_relaxed);
  // Worker slot 0 belongs to the external entry thread; spawn the rest.
  for (int i = 1; i < num_workers_; ++i) {
    threads_.emplace_back([this, i] { worker_loop(i); });
  }
}

void Scheduler::stop_threads() {
  stop_.store(true, std::memory_order_relaxed);
  for (auto& t : threads_) t.join();
  threads_.clear();
}

int Scheduler::register_external_thread() {
  // Direct push() from an unclaimed foreign thread (no par_do gate):
  // adopt worker slot 0 as before. par_do-driven entry goes through
  // try_enter_external() instead, which serializes foreign threads.
  tls_worker_id = 0;
  return 0;
}

bool Scheduler::try_enter_external() {
  bool expected = false;
  if (!external_busy_.compare_exchange_strong(expected, true,
                                              std::memory_order_acquire)) {
    return false;
  }
  tls_worker_id = 0;
  return true;
}

void Scheduler::exit_external() {
  tls_worker_id = -1;
  external_busy_.store(false, std::memory_order_release);
}

int Scheduler::current_worker() const { return tls_worker_id; }

void Scheduler::push(Job* job) {
  int id = current_worker();
  // Foreign threads must come through par_do's try_enter_external()
  // gate; a direct push from an unclaimed thread would share deque 0
  // with a legitimate claimant. The registration fallback stays as a
  // release-mode safety net for legacy callers.
  assert(id >= 0 && "foreign threads enter the pool via par_do");
  if (id < 0) id = register_external_thread();
  queues_[static_cast<size_t>(id)]->push_bottom(job);
}

bool Scheduler::pop_if_local(Job* job) {
  int id = current_worker();
  return id >= 0 && queues_[static_cast<size_t>(id)]->pop_bottom_if(job);
}

bool Scheduler::try_steal_and_run(int self) {
  // Check the local deque first (continuations we forked while running a
  // stolen task), then sweep the other workers.
  static thread_local std::minstd_rand rng(
      std::random_device{}() ^ static_cast<unsigned>(self * 0x9e3779b9u));
  const int p = num_workers_;
  int start = static_cast<int>(rng() % static_cast<unsigned>(p));
  for (int k = 0; k < p; ++k) {
    int victim = (start + k) % p;
    Job* j = queues_[static_cast<size_t>(victim)]->steal_top();
    if (j != nullptr) {
      j->taken.store(true, std::memory_order_relaxed);
      j->run(j->arg);
      j->done.store(true, std::memory_order_release);
      return true;
    }
  }
  return false;
}

void Scheduler::wait(Job* job) {
  int self = current_worker();
  int spins = 0;
  while (!job->done.load(std::memory_order_acquire)) {
    if (try_steal_and_run(self)) {
      spins = 0;
      continue;
    }
    // The job is running on another worker and nothing is stealable:
    // back off politely rather than burning the core the thief needs.
    if (++spins > 64) {
      std::this_thread::yield();
    }
  }
}

void Scheduler::worker_loop(int id) {
  tls_worker_id = id;
  int idle = 0;
  while (!stop_.load(std::memory_order_relaxed)) {
    if (try_steal_and_run(id)) {
      idle = 0;
      continue;
    }
    if (++idle > 64) {
      std::this_thread::yield();
      if (idle > 4096) {
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
    }
  }
}

}  // namespace dynsld::par

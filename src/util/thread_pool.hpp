// Persistent work-stealing thread pool.
//
// Replaces the spawn-per-batch model that parallel.cpp used: Monte Carlo
// drivers submit thousands of batches per bench run, and thread creation
// (~50us each) dominated short batches. One pool now outlives all batches;
// workers park on a condvar between them, so an idle pool costs nothing.
//
// Topology: one deque per worker. A batch's tasks are sprayed round-robin
// across the deques; each worker pops from the BACK of its own deque (LIFO,
// cache-warm) and, when empty, steals from the FRONT of a victim's deque —
// taking HALF the victim's queue (steal-half amortizes contention: a thief
// that takes one task returns immediately for the next).
//
// Blocking semantics: run(n, task) executes task(0..n-1) and returns when
// all are done. The calling thread participates in execution (it is thief
// #0), so a pool of K workers serves a batch with K+1 executors and run()
// from a pool of size 0 still completes. A run() issued from INSIDE a pool
// worker executes inline serially — nested parallelism is not fanned out,
// which keeps the pool deadlock-free by construction.
//
// Determinism: run(n, task) promises nothing about which thread executes
// which index — callers needing reproducible results must key all state on
// the task index (the parallel_* wrappers' contract already requires this).
#pragma once

#include <cstddef>
#include <functional>
#include <memory>

namespace ftcs::util {

class ThreadPool {
 public:
  /// Spawns `threads` workers (0 is valid: run() degrades to inline serial).
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Process-wide pool, sized from worker_count() (FTCS_THREADS env var,
  /// else hardware_concurrency) at first use. All parallel_* helpers and
  /// benches share it.
  static ThreadPool& global();

  [[nodiscard]] unsigned thread_count() const noexcept;

  /// Runs task(i) for i in [0, count); returns when every task finished.
  /// The caller helps execute. Safe to call concurrently from multiple
  /// external threads; re-entrant calls from pool workers run inline.
  void run(std::size_t count, const std::function<void(std::size_t)>& task);

 private:
  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace ftcs::util

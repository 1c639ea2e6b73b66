#include "util/thread_pool.hpp"

#include <atomic>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <thread>
#include <vector>

#include "util/atomic_bitset.hpp"
#include "util/parallel.hpp"

namespace ftcs::util {

namespace {

// Set while a thread is executing inside a pool worker loop; run() checks it
// to degrade nested submissions to inline execution instead of deadlocking
// on a full pool.
thread_local bool t_inside_pool_worker = false;

}  // namespace

struct ThreadPool::Impl {
  // One batch per run() call. Tasks hold a shared_ptr to their batch so the
  // batch outlives every in-flight reference: the last finisher's notify
  // races only against memory that is still alive.
  struct Batch {
    const std::function<void(std::size_t)>* fn;
    std::atomic<std::size_t> remaining;
    std::mutex m;
    std::condition_variable done;
  };
  struct Task {
    std::shared_ptr<Batch> batch;
    std::size_t index;
  };
  // Cache-line aligned: adjacent deque heads otherwise share a line and the
  // owner-pop / thief-steal mutex traffic false-shares across workers.
  struct alignas(kCacheLineBytes) WorkerQueue {
    std::mutex m;
    std::deque<Task> q;
  };
  // Hot cross-thread counters each get their own line for the same reason.
  struct alignas(kCacheLineBytes) PaddedCounter {
    std::atomic<std::size_t> v{0};
  };

  std::vector<WorkerQueue> queues;
  std::vector<std::thread> workers;
  std::mutex park_m;
  std::condition_variable park_cv;
  PaddedCounter pending;  // tasks sitting in some deque
  std::atomic<bool> stop{false};
  PaddedCounter spray;  // round-robin cursor for submissions

  explicit Impl(unsigned threads) : queues(threads == 0 ? 1 : threads) {
    workers.reserve(threads);
    for (unsigned t = 0; t < threads; ++t)
      workers.emplace_back([this, t] { worker_loop(t); });
  }

  ~Impl() {
    stop.store(true, std::memory_order_release);
    {
      std::lock_guard<std::mutex> lk(park_m);  // pairs with the parked wait
    }
    park_cv.notify_all();
    for (auto& w : workers) w.join();
  }

  static void execute(const Task& task) {
    (*task.batch->fn)(task.index);
    if (task.batch->remaining.fetch_sub(1, std::memory_order_acq_rel) == 1) {
      // Last task: wake the submitting thread. The lock pairs with the
      // waiter's predicate check so the notify cannot slip between its
      // predicate evaluation and its sleep.
      std::lock_guard<std::mutex> lk(task.batch->m);
      task.batch->done.notify_all();
    }
  }

  /// Pops one task from the back of queue `w` (owner side). Returns false if
  /// empty.
  bool pop_own(unsigned w, Task& out) {
    auto& wq = queues[w];
    std::lock_guard<std::mutex> lk(wq.m);
    if (wq.q.empty()) return false;
    out = std::move(wq.q.back());
    wq.q.pop_back();
    pending.v.fetch_sub(1, std::memory_order_relaxed);
    return true;
  }

  /// Steals HALF of victim `v`'s queue from the front; the first stolen task
  /// is returned in `out`, the rest (if any) are appended to queue `w`.
  bool steal_half(unsigned v, unsigned w, Task& out) {
    auto& vq = queues[v];
    std::deque<Task> loot;
    {
      std::lock_guard<std::mutex> lk(vq.m);
      if (vq.q.empty()) return false;
      const std::size_t take = (vq.q.size() + 1) / 2;
      for (std::size_t i = 0; i < take; ++i) {
        loot.push_back(std::move(vq.q.front()));
        vq.q.pop_front();
      }
    }
    out = std::move(loot.front());
    loot.pop_front();
    pending.v.fetch_sub(1, std::memory_order_relaxed);
    if (!loot.empty() && v != w) {
      auto& wq = queues[w];
      std::lock_guard<std::mutex> lk(wq.m);
      for (auto& t : loot) wq.q.push_back(std::move(t));
    } else {
      // Degenerate single-queue pool: put the remainder back where it was.
      std::lock_guard<std::mutex> lk(vq.m);
      for (auto& t : loot) vq.q.push_back(std::move(t));
    }
    return true;
  }

  /// Finds any runnable task, own queue first, then round-robin victims.
  bool find_task(unsigned w, Task& out) {
    if (pop_own(w, out)) return true;
    const unsigned n = static_cast<unsigned>(queues.size());
    for (unsigned d = 1; d <= n; ++d)
      if (steal_half((w + d) % n, w, out)) return true;
    return false;
  }

  void worker_loop(unsigned w) {
    t_inside_pool_worker = true;
    Task task;
    while (true) {
      if (find_task(w, task)) {
        execute(task);
        task.batch.reset();
        continue;
      }
      std::unique_lock<std::mutex> lk(park_m);
      park_cv.wait(lk, [this] {
        return stop.load(std::memory_order_acquire) ||
               pending.v.load(std::memory_order_acquire) > 0;
      });
      if (stop.load(std::memory_order_acquire) &&
          pending.v.load(std::memory_order_acquire) == 0)
        return;
    }
  }

  void run(std::size_t count, const std::function<void(std::size_t)>& fn) {
    if (count == 0) return;
    if (t_inside_pool_worker || workers.empty()) {
      // Nested (or poolless) submission: inline serial execution.
      for (std::size_t i = 0; i < count; ++i) fn(i);
      return;
    }
    auto batch = std::make_shared<Batch>();
    batch->fn = &fn;
    batch->remaining.store(count, std::memory_order_relaxed);

    // Count BEFORE enqueueing: a worker finishing an earlier batch may pop
    // these tasks the instant they hit a deque, and its pending.fetch_sub
    // must never underflow. During the push window pending can exceed the
    // number of visible tasks — workers then spin through one empty
    // find_task pass, which is transient and bounded by the push loop.
    pending.v.fetch_add(count, std::memory_order_release);
    const unsigned n = static_cast<unsigned>(queues.size());
    std::size_t cursor = spray.v.fetch_add(count, std::memory_order_relaxed);
    for (std::size_t i = 0; i < count; ++i, ++cursor) {
      auto& wq = queues[cursor % n];
      std::lock_guard<std::mutex> lk(wq.m);
      wq.q.push_back(Task{batch, i});
    }
    {
      std::lock_guard<std::mutex> lk(park_m);  // pairs with parked waits
    }
    if (count > 1)
      park_cv.notify_all();
    else
      park_cv.notify_one();

    // The submitter is thief #0: execute tasks until none are findable, then
    // sleep until the last in-flight task signals completion.
    Task task;
    while (batch->remaining.load(std::memory_order_acquire) > 0) {
      if (find_task(0, task)) {
        execute(task);
        task.batch.reset();
        continue;
      }
      std::unique_lock<std::mutex> lk(batch->m);
      batch->done.wait(lk, [&] {
        return batch->remaining.load(std::memory_order_acquire) == 0;
      });
    }
  }
};

ThreadPool::ThreadPool(unsigned threads)
    : impl_(std::make_unique<Impl>(threads)) {}

ThreadPool::~ThreadPool() = default;

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(worker_count());
  return pool;
}

unsigned ThreadPool::thread_count() const noexcept {
  return static_cast<unsigned>(impl_->workers.size());
}

void ThreadPool::run(std::size_t count,
                     const std::function<void(std::size_t)>& task) {
  impl_->run(count, task);
}

}  // namespace ftcs::util

#ifndef LQDB_UTIL_THREAD_POOL_H_
#define LQDB_UTIL_THREAD_POOL_H_

#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <thread>
#include <vector>

#include "lqdb/util/annotations.h"

namespace lqdb {

/// A small fixed-size worker pool. Tasks are plain `void()` closures;
/// `Wait()` blocks until every submitted task has finished, so one pool can
/// be reused across many fan-out rounds (a multi-threaded exact engine
/// keeps a pool alive across queries instead of spawning threads per call).
///
/// Exceptions must not escape tasks (the library is Status-based); a task
/// that throws terminates the process.
class ThreadPool {
 public:
  /// Starts `num_threads` workers; values < 1 are clamped to 1.
  explicit ThreadPool(int num_threads);

  /// Joins all workers. Pending tasks are drained first.
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Enqueues a task for execution on some worker.
  void Submit(std::function<void()> task);

  /// Enqueues a value-returning task and exposes its result as a future —
  /// the task-submission face of the pool (the service layer schedules
  /// per-query executions through it), alongside the data-parallel
  /// `FanOut`. The future's `get()` rethrows nothing: tasks are expected to
  /// return `Status`/`Result` values rather than throw.
  template <typename Fn>
  auto Async(Fn&& fn) -> std::future<decltype(fn())> {
    using R = decltype(fn());
    auto task =
        std::make_shared<std::packaged_task<R()>>(std::forward<Fn>(fn));
    std::future<R> future = task->get_future();
    Submit([task] { (*task)(); });
    return future;
  }

  /// Blocks until every task submitted so far has completed.
  void Wait();

  /// Submits `fn(worker_index)` once per worker and blocks until every
  /// instance (and any previously submitted task) finishes — the
  /// fan-out/join step of data-parallel callers such as the Theorem 1
  /// sweep's work-stealing walk. The callback receives a dense index in
  /// `[0, num_threads())`; instances may land on any worker.
  void FanOut(const std::function<void(int)>& fn);

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// `std::thread::hardware_concurrency()` with a floor of 1 (the standard
  /// allows it to return 0 when unknown).
  static int DefaultThreads();

 private:
  void WorkerLoop();

  Mutex mu_;
  CondVar work_available_;
  CondVar all_done_;
  std::deque<std::function<void()>> queue_ GUARDED_BY(mu_);
  /// Queued + currently running tasks.
  size_t in_flight_ GUARDED_BY(mu_) = 0;
  bool shutting_down_ GUARDED_BY(mu_) = false;
  std::vector<std::thread> workers_;
};

}  // namespace lqdb

#endif  // LQDB_UTIL_THREAD_POOL_H_

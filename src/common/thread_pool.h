// Fixed-size worker pool behind DSLog::ProvQueryBatch. Deliberately
// work-stealing-free: one shared FIFO queue drained by a fixed set of
// workers, which is sufficient for the coarse-grained tasks it runs (one
// whole query per batch entry) and keeps the scheduler trivially
// auditable under ThreadSanitizer.

#ifndef DSLOG_COMMON_THREAD_POOL_H_
#define DSLOG_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dslog {

/// A fixed pool of worker threads over a single FIFO task queue.
///
/// Threading contract: Submit and ParallelFor are safe to call from any
/// thread. Tasks must not throw (the library is exception-free; fatal
/// conditions go through DSLOG_CHECK).
class ThreadPool {
 public:
  /// Spawns `num_threads` workers (0 is allowed: everything then runs on
  /// the calling thread).
  explicit ThreadPool(int num_threads);
  /// Drains nothing: pending tasks that never started are dropped, running
  /// tasks are joined.
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  /// Enqueues a task for asynchronous execution on some worker.
  void Submit(std::function<void()> task);

  /// Runs fn(i) for every i in [0, n) and returns once all iterations have
  /// completed. Iterations are claimed dynamically from a shared counter by
  /// up to `max_parallelism` threads (0 = pool size + 1, i.e. no cap). The
  /// calling thread always participates, so forward progress is guaranteed
  /// even when every worker is busy with other jobs. Nested calls from
  /// inside a pool worker run inline (serially) — the fixed pool cannot be
  /// re-entered without risking deadlock, and the outer ParallelFor already
  /// owns the parallelism.
  void ParallelFor(int64_t n, const std::function<void(int64_t)>& fn,
                   int max_parallelism = 0);

  /// True when called from inside a pool worker thread (any pool). This is
  /// the predicate ParallelFor uses to degrade nested calls to inline
  /// execution; exposed so tests can assert the inline-on-nesting path.
  static bool InWorkerThread();

  /// The process-wide pool ProvQueryBatch fans out on. Sized to the
  /// hardware concurrency but at least 8, so thread-count sweeps behave
  /// identically on small machines (idle workers only sleep). Intentionally
  /// never destroyed: worker shutdown during static destruction would race
  /// other translation units' static teardown.
  static ThreadPool& Shared();

 private:
  void WorkerLoop();

  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace dslog

#endif  // DSLOG_COMMON_THREAD_POOL_H_

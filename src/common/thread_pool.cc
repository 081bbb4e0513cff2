#include "common/thread_pool.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "common/check.h"
#include "common/metrics.h"
#include "common/timer.h"

namespace dslog {

namespace {

// Set for the lifetime of a worker thread; lets ParallelFor detect
// re-entrant use from inside the pool and degrade to inline execution.
thread_local bool tls_in_pool_worker = false;

// Pool observability (common/metrics.h). Submitted tasks are coarse
// (whole batch entries), so two clock reads per task and a
// few relaxed counter adds are noise against the task body. References
// resolved once.
struct PoolMetrics {
  metrics::Counter& tasks_submitted;
  metrics::Counter& pfor_calls;
  metrics::Counter& pfor_inline;
  metrics::Counter& pfor_helpers;
  metrics::Histogram& queue_depth;
  metrics::Histogram& task_wait_us;
  metrics::Histogram& task_run_us;

  static PoolMetrics& Get() {
    static PoolMetrics* m = [] {
      metrics::Registry& reg = metrics::Registry::Global();
      return new PoolMetrics{
          reg.counter("dslog.pool.tasks_submitted"),
          reg.counter("dslog.pool.pfor_calls"),
          reg.counter("dslog.pool.pfor_inline"),
          reg.counter("dslog.pool.pfor_helpers"),
          reg.histogram("dslog.pool.queue_depth"),
          reg.histogram("dslog.pool.task_wait_us"),
          reg.histogram("dslog.pool.task_run_us"),
      };
    }();
    return *m;
  }
};

}  // namespace

ThreadPool::ThreadPool(int num_threads) {
  DSLOG_CHECK(num_threads >= 0);
  workers_.reserve(static_cast<size_t>(num_threads));
  for (int i = 0; i < num_threads; ++i)
    workers_.emplace_back([this] { WorkerLoop(); });
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
    queue_.clear();
  }
  cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void ThreadPool::Submit(std::function<void()> task) {
  PoolMetrics& pm = PoolMetrics::Get();
  pm.tasks_submitted.Increment();
  // Wrap to measure queue wait (enqueue -> dequeue) and run time. The
  // timer's epoch travels with the task.
  auto timed = [task = std::move(task), &pm, wait = WallTimer()]() mutable {
    pm.task_wait_us.Record(
        static_cast<int64_t>(wait.ElapsedSeconds() * 1e6));
    WallTimer run;
    task();
    pm.task_run_us.Record(static_cast<int64_t>(run.ElapsedSeconds() * 1e6));
  };
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) return;
    queue_.push_back(std::move(timed));
    pm.queue_depth.Record(static_cast<int64_t>(queue_.size()));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  tls_in_pool_worker = true;
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (stop_) return;
      task = std::move(queue_.front());
      queue_.pop_front();
    }
    task();
  }
}

void ThreadPool::ParallelFor(int64_t n, const std::function<void(int64_t)>& fn,
                             int max_parallelism) {
  if (n <= 0) return;
  PoolMetrics& pm = PoolMetrics::Get();
  pm.pfor_calls.Increment();
  if (n == 1 || max_parallelism == 1 || workers_.empty() ||
      tls_in_pool_worker) {
    pm.pfor_inline.Increment();
    for (int64_t i = 0; i < n; ++i) fn(i);
    return;
  }

  // Shared iteration state. Helpers claim indices from `next`; the last
  // thread to finish an iteration signals the caller. Kept alive by
  // shared_ptr because a helper task may only get scheduled after the loop
  // is already exhausted (it then sees next >= n and exits immediately).
  struct State {
    std::function<void(int64_t)> fn;
    int64_t n = 0;
    std::atomic<int64_t> next{0};
    std::atomic<int64_t> done{0};
    std::mutex mu;
    std::condition_variable cv;
  };
  auto state = std::make_shared<State>();
  state->fn = fn;
  state->n = n;

  auto run = [](const std::shared_ptr<State>& s) {
    int64_t i;
    while ((i = s->next.fetch_add(1, std::memory_order_relaxed)) < s->n) {
      s->fn(i);
      if (s->done.fetch_add(1, std::memory_order_acq_rel) + 1 == s->n) {
        // Lock pairs with the caller's predicate check so the notify cannot
        // fall between its check and its wait.
        std::lock_guard<std::mutex> lock(s->mu);
        s->cv.notify_all();
      }
    }
  };

  const int64_t cap = max_parallelism > 0
                          ? static_cast<int64_t>(max_parallelism)
                          : static_cast<int64_t>(workers_.size()) + 1;
  const int64_t helpers = std::min<int64_t>(
      {n - 1, static_cast<int64_t>(workers_.size()), cap - 1});
  pm.pfor_helpers.Add(helpers);
  for (int64_t h = 0; h < helpers; ++h)
    Submit([state, run] { run(state); });
  run(state);

  std::unique_lock<std::mutex> lock(state->mu);
  state->cv.wait(lock, [&] {
    return state->done.load(std::memory_order_acquire) == state->n;
  });
}

bool ThreadPool::InWorkerThread() { return tls_in_pool_worker; }

ThreadPool& ThreadPool::Shared() {
  static ThreadPool* pool = new ThreadPool(
      std::max(8, static_cast<int>(std::thread::hardware_concurrency())));
  return *pool;
}

}  // namespace dslog

#include "util/thread_pool.h"

#include <atomic>
#include <cstdlib>
#include <exception>
#include <memory>

#include "obs/obs.h"
#include "util/strings.h"

namespace rd::util {

ThreadPool::ThreadPool(std::size_t threads) {
  if (threads == 0) threads = default_thread_count();
  // The caller of run_indexed is always one executor; spawn the rest.
  workers_.reserve(threads - 1);
  for (std::size_t i = 0; i + 1 < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_.notify_all();
  for (auto& worker : workers_) worker.join();
}

void ThreadPool::worker_loop() {
  for (;;) {
    std::function<void()> task;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      task = std::move(queue_.front());
      queue_.pop_front();
      if (obs::counting_enabled()) {
        obs::gauge("pool.queue_depth").set(queue_.size());
      }
    }
    task();
  }
}

void ThreadPool::run_indexed(std::size_t n,
                             const std::function<void(std::size_t)>& fn) {
  if (n == 0) return;

  // Shared by the caller and any helpers still holding a queued task after
  // the caller returns (they claim an index >= n and exit without touching
  // `fn`, which only outlives this frame through indices < n).
  struct Job {
    std::atomic<std::size_t> next{0};
    std::atomic<std::size_t> done{0};
    std::size_t total = 0;
    const std::function<void(std::size_t)>* fn = nullptr;
    std::vector<std::exception_ptr> errors;
    std::mutex mutex;
    std::condition_variable cv;
  };
  auto job = std::make_shared<Job>();
  job->total = n;
  job->fn = &fn;
  job->errors.assign(n, nullptr);

  auto drive = [job] {
    for (;;) {
      const std::size_t i = job->next.fetch_add(1, std::memory_order_relaxed);
      if (i >= job->total) return;
      try {
        (*job->fn)(i);
      } catch (...) {
        job->errors[i] = std::current_exception();
      }
      // acq_rel: the waiter's acquire load of `done` must see every task's
      // writes (results and errors) once the count reaches total.
      if (job->done.fetch_add(1, std::memory_order_acq_rel) + 1 ==
          job->total) {
        std::lock_guard<std::mutex> lock(job->mutex);
        job->cv.notify_all();
      }
    }
  };

  const std::size_t helpers = std::min(workers_.size(), n - 1);
  if (helpers > 0) {
    // Observability wrapper: stamp the enqueue time so a dequeued task can
    // record how long it sat in the queue ("pool.queue_wait", an event
    // whose span covers enqueue -> dequeue), then run the claim loop under
    // a "pool.task" span. Only built when tracing is on — the common case
    // enqueues `drive` untouched.
    std::function<void()> queued = drive;
    if (obs::tracing_enabled()) {
      const std::uint64_t enqueue_ns = obs::now_ns();
      queued = [drive, enqueue_ns] {
        const std::uint64_t start_ns = obs::now_ns();
        if (obs::tracing_enabled()) {
          obs::TraceEvent wait;
          wait.name = "pool.queue_wait";
          wait.cat = "pool";
          wait.ts_ns = enqueue_ns;
          wait.dur_ns = start_ns > enqueue_ns ? start_ns - enqueue_ns : 0;
          wait.tid = obs::Registry::instance().thread_id();
          obs::Registry::instance().record(std::move(wait));
        }
        obs::Span span("pool.task", "pool");
        drive();
      };
    }
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (std::size_t i = 0; i < helpers; ++i) queue_.push_back(queued);
      if (obs::counting_enabled()) {
        obs::gauge("pool.tasks_enqueued").add(helpers);
        obs::gauge("pool.queue_depth").set(queue_.size());
      }
    }
    cv_.notify_all();
  }
  drive();
  {
    std::unique_lock<std::mutex> lock(job->mutex);
    job->cv.wait(lock, [&] {
      return job->done.load(std::memory_order_acquire) == job->total;
    });
  }
  // A helper's queued task may still hold `job` and drop it after this
  // returns. Moving the errors out first keeps every reference count on a
  // caught exception on this thread, where the caller reads it.
  const std::vector<std::exception_ptr> errors = std::move(job->errors);
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

void ThreadPool::post(std::function<void()> fn) {
  if (workers_.empty()) {
    // Concurrency 1: no background worker will ever drain the queue, so
    // the degenerate pool runs the task inline — same serial semantics
    // run_indexed has at this size.
    fn();
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    queue_.push_back(std::move(fn));
    if (obs::counting_enabled()) {
      obs::gauge("pool.tasks_enqueued").add(1);
      obs::gauge("pool.queue_depth").set(queue_.size());
    }
  }
  cv_.notify_one();
}

std::size_t ThreadPool::queue_depth() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return queue_.size();
}

std::size_t ThreadPool::default_thread_count() {
  if (const char* env = std::getenv("RD_THREADS")) {
    std::uint64_t parsed = 0;
    if (parse_u64(trim(env), parsed) && parsed >= 1 && parsed <= 1024) {
      return static_cast<std::size_t>(parsed);
    }
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<std::size_t>(hw);
}

}  // namespace rd::util

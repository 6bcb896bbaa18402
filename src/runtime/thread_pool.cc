#include "runtime/thread_pool.h"

#include <algorithm>

#include "common/env.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace mcm {
namespace {

constexpr double kQueueWaitMicrosBounds[] = {1.0,    10.0,    100.0,  1000.0,
                                             10000.0, 100000.0, 1000000.0};

telemetry::Counter& TasksSubmitted() {
  static telemetry::Counter& counter =
      telemetry::Counter::Get("runtime/tasks_submitted");
  return counter;
}

telemetry::Counter& TasksExecuted() {
  static telemetry::Counter& counter =
      telemetry::Counter::Get("runtime/tasks_executed");
  return counter;
}

}  // namespace

ThreadPool::ThreadPool(int num_threads)
    : num_threads_(std::max(1, num_threads)) {
  workers_.reserve(static_cast<std::size_t>(num_threads_ - 1));
  for (int i = 0; i < num_threads_ - 1; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::Submit(std::function<void()> fn) {
  TasksSubmitted().Add();
  if (workers_.empty()) {
    // No background workers: run inline so submitted work still happens.
    fn();
    TasksExecuted().Add();
    return;
  }
  // Submit is coarse (once per helper per ParallelFor, once per TaskGroup
  // task), so a clock read here stays off the per-iteration hot path.  The
  // timestamps feed only the queue-wait histogram -- no task result depends
  // on them -- so the two clock edges are sanitized for mcm-nondet-reach.
  static telemetry::Histogram& queue_wait = telemetry::Histogram::Get(
      "runtime/queue_wait_us", kQueueWaitMicrosBounds);
  const double enqueued_s = telemetry::MonotonicSeconds();  // NOLINT(mcm-nondet-reach)
  auto job = [fn = std::move(fn), enqueued_s] {
    queue_wait.Observe(
        (telemetry::MonotonicSeconds() - enqueued_s) * 1e6);  // NOLINT(mcm-nondet-reach)
    fn();
    TasksExecuted().Add();
  };
  {
    std::lock_guard<std::mutex> lock(mu_);
    queue_.push_back(std::move(job));
  }
  cv_.notify_one();
}

void ThreadPool::WorkerLoop() {
  for (;;) {
    std::function<void()> job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and queue drained.
      job = std::move(queue_.front());
      queue_.pop_front();
    }
    job();
  }
}

namespace {

// Shared state of one ParallelFor call.  Heap-allocated and reference-counted
// so that helper jobs which start only after the loop already finished (the
// queue can lag) still find valid memory; they see next >= end and return
// without touching `fn`, which is why borrowing the caller's function
// reference is safe: it is only dereferenced for claimed indices, and the
// caller cannot return before every claimed index completed.
struct ForState {
  std::atomic<std::int64_t> next{0};
  std::int64_t end = 0;
  std::int64_t total = 0;
  const std::function<void(std::int64_t)>* fn = nullptr;
  std::atomic<bool> cancelled{false};

  std::mutex mu;
  std::condition_variable done_cv;
  std::int64_t completed = 0;       // Guarded by mu.
  std::exception_ptr first_error;   // Guarded by mu.
};

void DrainFor(const std::shared_ptr<ForState>& state) {
  for (;;) {
    const std::int64_t i =
        state->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= state->end) return;
    if (!state->cancelled.load(std::memory_order_relaxed)) {
      try {
        (*state->fn)(i);
      } catch (...) {
        std::lock_guard<std::mutex> lock(state->mu);
        if (!state->first_error) {
          state->first_error = std::current_exception();
        }
        state->cancelled.store(true, std::memory_order_relaxed);
      }
    }
    std::lock_guard<std::mutex> lock(state->mu);
    if (++state->completed == state->total) state->done_cv.notify_all();
  }
}

}  // namespace

void ThreadPool::ParallelFor(std::int64_t begin, std::int64_t end,
                             const std::function<void(std::int64_t)>& fn) {
  const std::int64_t n = end - begin;
  if (n <= 0) return;
  static telemetry::Counter& parallel_fors =
      telemetry::Counter::Get("runtime/parallel_fors");
  static telemetry::Counter& parallel_iterations =
      telemetry::Counter::Get("runtime/parallel_iterations");
  parallel_fors.Add();
  parallel_iterations.Add(n);
  if (num_threads_ <= 1 || n == 1) {
    for (std::int64_t i = begin; i < end; ++i) fn(i);
    return;
  }

  auto state = std::make_shared<ForState>();
  state->next.store(begin, std::memory_order_relaxed);
  state->end = end;
  state->total = n;
  state->fn = &fn;

  const std::int64_t helpers =
      std::min<std::int64_t>(num_threads_ - 1, n - 1);
  for (std::int64_t h = 0; h < helpers; ++h) {
    Submit([state] { DrainFor(state); });
  }
  DrainFor(state);

  std::unique_lock<std::mutex> lock(state->mu);
  state->done_cv.wait(lock,
                      [&] { return state->completed == state->total; });
  if (state->first_error) std::rethrow_exception(state->first_error);
}

// ---- Process-default pool ---------------------------------------------------

namespace {

std::mutex g_default_mu;
int g_default_threads = 0;  // 0 = not yet resolved.  mcmlint: guarded-by(g_default_mu)
std::unique_ptr<ThreadPool> g_default_pool;  // mcmlint: guarded-by(g_default_mu)

int ResolveThreadCount() {
  // 0 = "use hardware concurrency"; negatives are clamped with a warning.
  const std::int64_t from_env = GetEnvInt("MCMPART_THREADS", 0, 0, 4096);
  if (from_env >= 1) return static_cast<int>(from_env);
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

// Called with g_default_mu held.
int DefaultThreadCountLocked() {
  if (g_default_threads == 0) g_default_threads = ResolveThreadCount();
  return g_default_threads;
}

}  // namespace

int DefaultThreadCount() {
  std::lock_guard<std::mutex> lock(g_default_mu);
  return DefaultThreadCountLocked();
}

void SetDefaultThreadCount(int num_threads) {
  std::lock_guard<std::mutex> lock(g_default_mu);
  num_threads = std::max(1, num_threads);
  if (num_threads == g_default_threads && g_default_pool != nullptr) return;
  g_default_threads = num_threads;
  g_default_pool.reset();  // Rebuilt at the next DefaultPool() call.
}

ThreadPool& DefaultPool() {
  std::lock_guard<std::mutex> lock(g_default_mu);
  if (g_default_pool == nullptr) {
    g_default_pool = std::make_unique<ThreadPool>(DefaultThreadCountLocked());
  }
  return *g_default_pool;
}

void ParallelFor(std::int64_t begin, std::int64_t end,
                 const std::function<void(std::int64_t)>& fn) {
  DefaultPool().ParallelFor(begin, end, fn);
}

int NnThreadCount() { return DefaultThreadCount(); }

// ---- Task groups ------------------------------------------------------------

struct TaskGroup::State {
  std::mutex mu;
  std::condition_variable done_cv;
  std::deque<std::function<void()>> queue;  // Guarded by mu.
  std::int64_t unfinished = 0;              // Guarded by mu.
  std::exception_ptr first_error;           // Guarded by mu.

  // Pops and runs one queued task; returns false when the queue is empty.
  bool RunOne() {
    std::function<void()> task;
    {
      std::lock_guard<std::mutex> lock(mu);
      if (queue.empty()) return false;
      task = std::move(queue.front());
      queue.pop_front();
    }
    try {
      task();
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu);
      if (!first_error) first_error = std::current_exception();
    }
    std::lock_guard<std::mutex> lock(mu);
    if (--unfinished == 0) done_cv.notify_all();
    return true;
  }
};

TaskGroup::TaskGroup(ThreadPool& pool)
    : pool_(&pool), state_(std::make_shared<State>()) {}

TaskGroup::~TaskGroup() {
  try {
    Wait();
  } catch (...) {
    // Destruction joins but cannot report; call Wait() to observe errors.
  }
}

void TaskGroup::Run(std::function<void()> fn) {
  {
    std::lock_guard<std::mutex> lock(state_->mu);
    state_->queue.push_back(std::move(fn));
    ++state_->unfinished;
  }
  // One runner per task keeps the invariant that every queued task has a
  // dedicated claimant even if Wait() is never reached; a runner finding an
  // empty queue (the task was executed by Wait() or another runner) returns.
  std::shared_ptr<State> state = state_;
  pool_->Submit([state] { state->RunOne(); });
}

void TaskGroup::Wait() {
  while (state_->RunOne()) {
  }
  std::unique_lock<std::mutex> lock(state_->mu);
  state_->done_cv.wait(lock, [&] { return state_->unfinished == 0; });
  if (state_->first_error) {
    std::exception_ptr error = state_->first_error;
    state_->first_error = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

}  // namespace mcm

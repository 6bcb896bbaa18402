// Fixed-size worker pool with a parallel-for and a task-group API.
//
// This is the execution substrate for the embarrassingly parallel hot paths
// (PPO rollout collection, pre-training validation fan-out, random-search
// batches).  Three properties drive the design:
//
//  * Caller participation.  A pool of `num_threads` owns `num_threads - 1`
//    background workers; the thread that enters ParallelFor / TaskGroup::Wait
//    executes tasks itself.  Progress therefore never depends on a worker
//    being free, so nested parallel sections (a ParallelFor inside a task of
//    an outer ParallelFor) cannot deadlock -- the inner caller simply runs
//    its own iterations when every worker is busy.
//
//  * Determinism contract.  The pool schedules *when and where* tasks run,
//    never *what they compute*: every parallel call site derives one private
//    `Rng(HashCombine(base_seed, task_index))` per task, writes results into
//    a slot indexed by task_index, and performs all stateful reduction
//    (incumbent tracking, running statistics, parameter updates) serially in
//    task order after the join.  Results are bit-identical for any thread
//    count, including 1.
//
//  * Exception safety.  The first exception thrown by a task is captured and
//    rethrown on the calling thread after all in-flight tasks finish;
//    remaining unstarted iterations are skipped.
//
// `MCMPART_THREADS` (or `--threads N` on the CLI/benches) sets the default
// pool size; unset, the pool matches the hardware concurrency.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace mcm {

class ThreadPool {
 public:
  // `num_threads` is the total parallelism of a parallel section (caller +
  // background workers); values < 1 are clamped to 1 (fully inline, no
  // threads spawned).
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }

  // Enqueues `fn` for asynchronous execution on a background worker.  Fire
  // and forget; use TaskGroup to wait on a set of submitted tasks.
  void Submit(std::function<void()> fn);

  // Runs fn(i) for every i in [begin, end) across the pool (the calling
  // thread participates) and blocks until all iterations finished.  Safe to
  // call from inside another ParallelFor task.  Rethrows the first task
  // exception after the join.
  void ParallelFor(std::int64_t begin, std::int64_t end,
                   const std::function<void(std::int64_t)>& fn);

 private:
  void WorkerLoop();

  const int num_threads_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

// ---- Process-default pool ---------------------------------------------------

// The default parallelism: MCMPART_THREADS when set to a positive integer,
// otherwise std::thread::hardware_concurrency() (>= 1).
int DefaultThreadCount();

// Overrides the default parallelism (the CLI's --threads).  Takes effect on
// the next DefaultPool() call; must not be invoked while parallel work is
// running on the default pool.
void SetDefaultThreadCount(int num_threads);

// Lazily constructed process-wide pool of DefaultThreadCount() threads.
ThreadPool& DefaultPool();

// ParallelFor on the default pool.
void ParallelFor(std::int64_t begin, std::int64_t end,
                 const std::function<void(std::int64_t)>& fn);

// perfbench still prints an NN thread count; the NN kernels run their GEMMs
// on the default pool, so this is DefaultThreadCount().
int NnThreadCount();

// ---- Task groups ------------------------------------------------------------

// A set of heterogeneous tasks joined with Wait().  Tasks may run on pool
// workers or on the waiting thread (caller participation, as above).
class TaskGroup {
 public:
  TaskGroup() : TaskGroup(DefaultPool()) {}
  explicit TaskGroup(ThreadPool& pool);
  // Joins outstanding tasks; exceptions still pending at destruction are
  // swallowed (call Wait() to observe them).
  ~TaskGroup();

  TaskGroup(const TaskGroup&) = delete;
  TaskGroup& operator=(const TaskGroup&) = delete;

  void Run(std::function<void()> fn);

  // Blocks until every task submitted so far finished, executing queued
  // tasks on the calling thread as long as any remain.  Rethrows the first
  // task exception.  The group is reusable after Wait() returns.
  void Wait();

 private:
  struct State;

  ThreadPool* pool_;
  std::shared_ptr<State> state_;
};

}  // namespace mcm

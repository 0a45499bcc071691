/**
 * @file
 * Thread pool for sweep execution: one task queue under one mutex.
 *
 * A task submitted from outside the pool goes to the back of the
 * queue; a task submitted by one of the pool's own workers goes to
 * the front. Workers pop from the front. The sweep runner relies on
 * that order: a load task fans its workload out into per-config
 * cells from a worker, so those cells run before any later load
 * starts, the last-submitted cell first.
 */

#ifndef LOGSEEK_SWEEP_TASK_POOL_H
#define LOGSEEK_SWEEP_TASK_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "telemetry/metrics.h"

namespace logseek::sweep
{

/**
 * A fixed-size pool of workers sharing one queue. Tasks should
 * handle their own errors (the sweep runner stores a Status per
 * run); a task that does throw is contained — the exception is
 * swallowed, counted in taskExceptionCount(), and the pool keeps
 * running and destructs cleanly.
 */
class TaskPool
{
  public:
    /** @param workers Worker-thread count; clamped to >= 1. */
    explicit TaskPool(unsigned workers);

    /** Waits for all submitted tasks, then joins the workers. */
    ~TaskPool();

    TaskPool(const TaskPool &) = delete;
    TaskPool &operator=(const TaskPool &) = delete;

    /**
     * Submit one task: to the back of the queue when called from
     * outside the pool, to the front when called from one of its
     * workers.
     */
    void submit(std::function<void()> task);

    /** Block until every submitted task (and its spawns) ran. */
    void wait();

    std::size_t workerCount() const { return threads_.size(); }

    /** Exceptions that escaped tasks and were contained. */
    std::uint64_t taskExceptionCount() const
    {
        return taskExceptions_.load();
    }

  private:
    void workerLoop();

    /** Run one task, containing anything it throws. Takes the task
     *  by value so its captures are released before the worker
     *  reports it done. */
    void runTask(std::function<void()> task);

    std::mutex mutex_;
    std::condition_variable workCv_;
    std::condition_variable doneCv_;
    std::deque<std::function<void()>> queue_; // guarded by mutex_
    std::size_t pending_ = 0; // queued + running; guarded by mutex_
    bool stop_ = false;       // guarded by mutex_

    std::atomic<std::uint64_t> taskExceptions_{0};

    // Telemetry handles, resolved once at construction. The queue
    // depth gauge tracks pending_ and is updated under mutex_; the
    // counters are self-gated and wait-free.
    telemetry::Gauge *queueDepth_;
    telemetry::Counter *tasksTotal_;
    telemetry::Counter *exceptionsTotal_;

    // Last, so the workers start after, and are joined before, the
    // members they use.
    std::vector<std::thread> threads_;
};

} // namespace logseek::sweep

#endif // LOGSEEK_SWEEP_TASK_POOL_H

/**
 * @file
 * Work-stealing thread pool for sweep execution.
 *
 * Each worker owns a deque: it pushes and pops its own work LIFO
 * (cache-warm) and steals FIFO from the other workers when its own
 * deque drains (oldest, largest-granularity tasks first). Tasks may
 * submit further tasks — the sweep runner uses that to fan a
 * trace-load task out into per-config replay tasks on whichever
 * worker finished the load.
 */

#ifndef LOGSEEK_SWEEP_TASK_POOL_H
#define LOGSEEK_SWEEP_TASK_POOL_H

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "telemetry/metrics.h"

namespace logseek::sweep
{

/**
 * A fixed-size pool of workers with per-worker deques and work
 * stealing. Tasks should handle their own errors (the sweep runner
 * stores a Status per run); a task that does throw is contained —
 * the exception is swallowed, counted in taskExceptionCount(), and
 * the pool keeps running and destructs cleanly.
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
     * Submit one task. Called from outside the pool, tasks are
     * dealt round-robin across workers; called from a worker, the
     * task lands on that worker's own deque (and is stolen from
     * there if the worker stays busy).
     */
    void submit(std::function<void()> task);

    /** Block until every submitted task (and its spawns) ran. */
    void wait();

    std::size_t workerCount() const { return workers_.size(); }

    /** Tasks that ran on a worker other than the one they were
     *  queued on — observability for the stealing behavior. */
    std::uint64_t stealCount() const { return steals_.load(); }

    /** Exceptions that escaped tasks and were contained. */
    std::uint64_t taskExceptionCount() const
    {
        return taskExceptions_.load();
    }

  private:
    struct Worker
    {
        std::deque<std::function<void()>> queue;
        std::mutex mutex;
    };

    void workerLoop(std::size_t self);

    /** Pop own-back or steal another deque's front; run it. */
    bool runOneTask(std::size_t self);

    bool anyQueued();

    std::vector<std::unique_ptr<Worker>> workers_;
    std::vector<std::thread> threads_;

    std::mutex workMutex_;
    std::condition_variable workCv_;
    std::condition_variable doneCv_;
    std::size_t pending_ = 0; // guarded by workMutex_
    bool stop_ = false;       // guarded by workMutex_

    std::atomic<std::size_t> nextWorker_{0};
    std::atomic<std::uint64_t> steals_{0};
    std::atomic<std::uint64_t> taskExceptions_{0};

    // Telemetry handles, resolved once at construction. The queue
    // depth gauge tracks pending_ and is updated under workMutex_;
    // the counters are self-gated and wait-free.
    telemetry::Gauge *queueDepth_;
    telemetry::Counter *tasksTotal_;
    telemetry::Counter *stealsTotal_;
    telemetry::Counter *exceptionsTotal_;
};

/** The thread-local index of the current pool worker, if any. */
int currentPoolWorker();

} // namespace logseek::sweep

#endif // LOGSEEK_SWEEP_TASK_POOL_H

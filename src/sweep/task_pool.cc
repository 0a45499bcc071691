#include "task_pool.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "util/logging.h"

namespace logseek::sweep
{

namespace
{

/** The pool the current thread is a worker of, if any. */
thread_local const TaskPool *t_pool = nullptr;

} // namespace

TaskPool::TaskPool(unsigned workers)
{
    auto &registry = telemetry::Registry::global();
    queueDepth_ = &registry.gauge("sweep_queue_depth");
    tasksTotal_ = &registry.counter("sweep_tasks_total");
    exceptionsTotal_ =
        &registry.counter("sweep_task_exceptions_total");

    const unsigned count = std::max(1u, workers);
    threads_.reserve(count);
    for (unsigned i = 0; i < count; ++i)
        threads_.emplace_back([this] { workerLoop(); });
}

TaskPool::~TaskPool()
{
    wait();
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    workCv_.notify_all();
    for (auto &thread : threads_)
        thread.join();
}

void
TaskPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (t_pool == this)
            queue_.push_front(std::move(task));
        else
            queue_.push_back(std::move(task));
        ++pending_;
        queueDepth_->set(static_cast<std::int64_t>(pending_));
    }
    tasksTotal_->add();
    workCv_.notify_one();
}

void
TaskPool::wait()
{
    std::unique_lock<std::mutex> lock(mutex_);
    doneCv_.wait(lock, [this] { return pending_ == 0; });
}

void
TaskPool::runTask(std::function<void()> task)
{
    // Contain anything a task throws: an escaped exception must not
    // leak the pending count (wait() would block forever and the
    // destructor would deadlock) or kill the worker thread.
    try {
        task();
    } catch (const std::exception &e) {
        taskExceptions_.fetch_add(1);
        exceptionsTotal_->add();
        warn(std::string("task pool: task threw: ") + e.what());
    } catch (...) {
        taskExceptions_.fetch_add(1);
        exceptionsTotal_->add();
        warn("task pool: task threw a non-std exception");
    }
}

void
TaskPool::workerLoop()
{
    t_pool = this;
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
        workCv_.wait(lock,
                     [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty())
            return; // stopping, and nothing left to run
        std::function<void()> task = std::move(queue_.front());
        queue_.pop_front();
        lock.unlock();
        runTask(std::move(task));
        lock.lock();
        --pending_;
        queueDepth_->set(static_cast<std::int64_t>(pending_));
        if (pending_ == 0)
            doneCv_.notify_all();
    }
}

} // namespace logseek::sweep

#include "task_pool.h"

#include <algorithm>
#include <exception>
#include <utility>

#include "util/logging.h"

namespace logseek::sweep
{

namespace
{

/** Which pool (if any) the current thread is a worker of. */
struct WorkerIdentity
{
    const void *pool = nullptr;
    std::size_t index = 0;
};

thread_local WorkerIdentity t_identity;

} // namespace

int
currentPoolWorker()
{
    return t_identity.pool == nullptr
               ? -1
               : static_cast<int>(t_identity.index);
}

TaskPool::TaskPool(unsigned workers)
{
    auto &registry = telemetry::Registry::global();
    queueDepth_ = &registry.gauge("sweep_queue_depth");
    tasksTotal_ = &registry.counter("sweep_tasks_total");
    stealsTotal_ = &registry.counter("sweep_steals_total");
    exceptionsTotal_ =
        &registry.counter("sweep_task_exceptions_total");

    const std::size_t count = std::max(1u, workers);
    workers_.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        workers_.push_back(std::make_unique<Worker>());
    threads_.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        threads_.emplace_back([this, i] { workerLoop(i); });
}

TaskPool::~TaskPool()
{
    wait();
    {
        std::lock_guard<std::mutex> lock(workMutex_);
        stop_ = true;
    }
    workCv_.notify_all();
    for (auto &thread : threads_)
        thread.join();
}

void
TaskPool::submit(std::function<void()> task)
{
    // A task submitted from inside a worker lands on that worker's
    // own deque (run LIFO locally, stolen FIFO by idle peers);
    // external submissions are dealt round-robin.
    std::size_t target;
    if (t_identity.pool == this)
        target = t_identity.index;
    else
        target = nextWorker_.fetch_add(1) % workers_.size();

    {
        std::lock_guard<std::mutex> lock(workMutex_);
        ++pending_;
        queueDepth_->set(static_cast<std::int64_t>(pending_));
    }
    tasksTotal_->add();
    {
        std::lock_guard<std::mutex> lock(workers_[target]->mutex);
        workers_[target]->queue.push_back(std::move(task));
    }
    {
        // Lock-then-notify so a worker between its empty-queue
        // check and its wait cannot miss this submission.
        std::lock_guard<std::mutex> lock(workMutex_);
    }
    workCv_.notify_one();
}

void
TaskPool::wait()
{
    std::unique_lock<std::mutex> lock(workMutex_);
    doneCv_.wait(lock, [this] { return pending_ == 0; });
}

bool
TaskPool::anyQueued()
{
    for (const auto &worker : workers_) {
        std::lock_guard<std::mutex> lock(worker->mutex);
        if (!worker->queue.empty())
            return true;
    }
    return false;
}

bool
TaskPool::runOneTask(std::size_t self)
{
    std::function<void()> task;
    {
        std::lock_guard<std::mutex> lock(workers_[self]->mutex);
        if (!workers_[self]->queue.empty()) {
            task = std::move(workers_[self]->queue.back());
            workers_[self]->queue.pop_back();
        }
    }
    if (!task) {
        // Own deque empty: steal the oldest task of the nearest
        // busy peer.
        for (std::size_t step = 1;
             step < workers_.size() && !task; ++step) {
            const std::size_t victim =
                (self + step) % workers_.size();
            std::lock_guard<std::mutex> lock(
                workers_[victim]->mutex);
            if (!workers_[victim]->queue.empty()) {
                task = std::move(workers_[victim]->queue.front());
                workers_[victim]->queue.pop_front();
                steals_.fetch_add(1);
                stealsTotal_->add();
            }
        }
    }
    if (!task)
        return false;

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

    {
        std::lock_guard<std::mutex> lock(workMutex_);
        --pending_;
        queueDepth_->set(static_cast<std::int64_t>(pending_));
        if (pending_ == 0)
            doneCv_.notify_all();
    }
    return true;
}

void
TaskPool::workerLoop(std::size_t self)
{
    t_identity = {this, self};
    while (true) {
        if (runOneTask(self))
            continue;
        std::unique_lock<std::mutex> lock(workMutex_);
        workCv_.wait(lock,
                     [this] { return stop_ || anyQueued(); });
        if (stop_ && !anyQueued())
            return;
    }
}

} // namespace logseek::sweep

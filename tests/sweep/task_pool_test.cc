/**
 * @file
 * Unit tests for the TaskPool: completion guarantees, nested
 * submission (fan-out from a worker) and its queue order, pool
 * reuse across wait() calls, and exception containment.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <stdexcept>
#include <string>
#include <vector>

#include "sweep/task_pool.h"

namespace logseek::sweep
{
namespace
{

TEST(TaskPoolTest, RunsEverySubmittedTask)
{
    std::atomic<int> ran{0};
    TaskPool pool(4);
    for (int i = 0; i < 100; ++i)
        pool.submit([&ran] { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), 100);
}

TEST(TaskPoolTest, ZeroWorkersClampsToOne)
{
    TaskPool pool(0);
    EXPECT_EQ(pool.workerCount(), 1u);
    std::atomic<int> ran{0};
    pool.submit([&ran] { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), 1);
}

TEST(TaskPoolTest, WaitCoversNestedSubmissions)
{
    // A task that fans out into more tasks — the sweep runner's
    // load-then-replay pattern. wait() must cover the spawned work.
    std::atomic<int> ran{0};
    TaskPool pool(4);
    for (int i = 0; i < 8; ++i) {
        pool.submit([&pool, &ran] {
            for (int j = 0; j < 10; ++j)
                pool.submit([&ran] { ran.fetch_add(1); });
        });
    }
    pool.wait();
    EXPECT_EQ(ran.load(), 80);
}

TEST(TaskPoolTest, PoolIsReusableAfterWait)
{
    std::atomic<int> ran{0};
    TaskPool pool(2);
    pool.submit([&ran] { ran.fetch_add(1); });
    pool.wait();
    pool.submit([&ran] { ran.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(ran.load(), 2);
}

TEST(TaskPoolTest, DestructorDrainsPendingTasks)
{
    std::atomic<int> ran{0};
    {
        TaskPool pool(2);
        for (int i = 0; i < 50; ++i)
            pool.submit([&ran] { ran.fetch_add(1); });
        // No wait(): the destructor must finish the queue first.
    }
    EXPECT_EQ(ran.load(), 50);
}

TEST(TaskPoolTest, WorkerSubmissionsRunFirstNewestFirst)
{
    // One worker makes the order observable: tasks a worker submits
    // go to the front of the queue, ahead of the external task
    // already waiting, so they run newest first and before it.
    std::mutex mutex;
    std::vector<std::string> order;
    auto record = [&](std::string name) {
        std::lock_guard<std::mutex> lock(mutex);
        order.push_back(std::move(name));
    };
    TaskPool pool(1);
    pool.submit([&] {
        record("a");
        for (const char *child : {"b1", "b2", "b3"})
            pool.submit([&record, child] { record(child); });
    });
    pool.submit([&] { record("c"); });
    pool.wait();
    EXPECT_EQ(order, (std::vector<std::string>{"a", "b3", "b2", "b1",
                                               "c"}));
}

TEST(TaskPoolTest, ManyWorkersManyTasksStress)
{
    std::atomic<std::uint64_t> sum{0};
    TaskPool pool(8);
    for (std::uint64_t i = 1; i <= 1000; ++i)
        pool.submit([&sum, i] { sum.fetch_add(i); });
    pool.wait();
    EXPECT_EQ(sum.load(), 1000u * 1001u / 2u);
}

TEST(TaskPoolTest, ThrowingTasksAreContained)
{
    std::atomic<int> ran{0};
    TaskPool pool(4);
    for (int i = 0; i < 50; ++i) {
        pool.submit([&ran, i] {
            ran.fetch_add(1);
            if (i % 3 == 0)
                throw std::runtime_error("task blew up");
            if (i % 7 == 0)
                throw 42; // not even a std::exception
        });
    }
    // wait() must return despite the throws, and every task ran.
    pool.wait();
    EXPECT_EQ(ran.load(), 50);
    EXPECT_GT(pool.taskExceptionCount(), 0u);

    // The pool stays usable afterwards.
    std::atomic<int> after{0};
    pool.submit([&after] { after.fetch_add(1); });
    pool.wait();
    EXPECT_EQ(after.load(), 1);
}

TEST(TaskPoolTest, DestructorSurvivesThrowingTasks)
{
    std::atomic<int> ran{0};
    {
        TaskPool pool(2);
        for (int i = 0; i < 20; ++i)
            pool.submit([&ran] {
                ran.fetch_add(1);
                throw std::runtime_error("boom");
            });
        // No wait(): destruction drains the queue without
        // terminating on the in-flight exceptions.
    }
    EXPECT_EQ(ran.load(), 20);
}

} // namespace
} // namespace logseek::sweep

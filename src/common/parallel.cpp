#include "common/parallel.hpp"

#include <thread>

#include "common/logging.hpp"

namespace ftsim {

unsigned
hardwareThreads()
{
    const unsigned n = std::thread::hardware_concurrency();
    return n > 0 ? n : 1;
}

WorkerPool::WorkerPool(unsigned threads)
{
    const unsigned n = threads > 0 ? threads : 1;
    workers_.reserve(n);
    for (unsigned t = 0; t < n; ++t)
        workers_.emplace_back([this] { workerLoop(); });
}

WorkerPool::~WorkerPool()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    cv_.notify_all();
    for (std::thread& t : workers_)
        t.join();
}

void
WorkerPool::submit(std::function<void()> task)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stopping_)
            fatal("WorkerPool::submit: pool is shutting down");
        queue_.push_back(std::move(task));
    }
    cv_.notify_one();
}

void
WorkerPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock,
                     [this] { return stopping_ || !queue_.empty(); });
            // Drain before exiting: stop only once the queue is empty.
            if (queue_.empty())
                return;
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

}  // namespace ftsim

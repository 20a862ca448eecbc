#ifndef FTSIM_COMMON_PARALLEL_HPP
#define FTSIM_COMMON_PARALLEL_HPP

/**
 * @file
 * A persistent worker pool for the serving layer.
 */

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ftsim {

/** Hardware concurrency with a sane floor of 1. */
unsigned hardwareThreads();

/**
 * Persistent FIFO worker pool for request-serving workloads.
 *
 * A server admits an unbounded stream of independent tasks, so
 * `WorkerPool` keeps its threads alive and feeds them from a
 * mutex-guarded queue. Tasks must not throw (wrap fallible work and
 * encode failure in the task's own result channel); an escaping
 * exception terminates the process, as it would from any detached
 * thread. The destructor drains every queued task before joining, so
 * submitted work is never silently dropped.
 */
class WorkerPool {
  public:
    /** Starts @p threads workers (floored at 1). */
    explicit WorkerPool(unsigned threads);

    /** Finishes all queued tasks, then joins the workers. */
    ~WorkerPool();

    WorkerPool(const WorkerPool&) = delete;
    WorkerPool& operator=(const WorkerPool&) = delete;

    /** Enqueues @p task; fatal if called during destruction. */
    void submit(std::function<void()> task);

    /** Number of worker threads. */
    unsigned threadCount() const
    {
        return static_cast<unsigned>(workers_.size());
    }

    /**
     * Tasks queued but not yet picked up by a worker — the admission
     * backlog a serving stats endpoint reports. A task being executed
     * right now is counted by neither this nor any other accessor.
     */
    std::size_t pendingTasks() const
    {
        std::lock_guard<std::mutex> lock(mutex_);
        return queue_.size();
    }

  private:
    void workerLoop();

    mutable std::mutex mutex_;
    std::condition_variable cv_;
    std::deque<std::function<void()>> queue_;
    bool stopping_ = false;
    std::vector<std::thread> workers_;
};

}  // namespace ftsim

#endif  // FTSIM_COMMON_PARALLEL_HPP

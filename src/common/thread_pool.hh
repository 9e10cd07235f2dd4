/**
 * @file
 * Fixed-size worker pool for fanning independent host-side jobs across
 * cores. Built for the experiment sweep runner and the placement-advisor
 * server: tasks are opaque closures and wait() gives a full barrier
 * (queue drained AND every in-flight task returned). The pool makes no
 * ordering promise between tasks -- callers that need deterministic
 * results write into pre-assigned slots (see core/sweep_runner.hh).
 *
 * Capacity: by default the queue is unbounded (the sweep runner submits
 * a finite grid up front). A long-running caller -- a daemon accepting
 * work from the network -- passes a capacity instead, turning the queue
 * into an admission bound: submit() blocks until space frees up,
 * trySubmit() refuses immediately. The caller picks block-vs-reject by
 * picking the method, which is exactly the load-shedding decision a
 * server makes per request (see serve/server.cc).
 *
 * drain() is the graceful-shutdown half: stop accepting, run everything
 * already admitted, return when the pool is quiescent. Unlike the
 * destructor it leaves the workers alive, so the caller can still
 * inspect state produced by the final tasks before tearing down.
 */

#ifndef LADM_COMMON_THREAD_POOL_HH
#define LADM_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ladm
{

class ThreadPool
{
  public:
    /**
     * Spawn @p threads workers (minimum 1). @p capacity bounds the
     * pending-task queue; 0 keeps the legacy unbounded behavior.
     */
    explicit ThreadPool(int threads, size_t capacity = 0)
        : capacity_(capacity)
    {
        if (threads < 1)
            threads = 1;
        workers_.reserve(threads);
        for (int t = 0; t < threads; ++t)
            workers_.emplace_back([this] { workerLoop(); });
    }

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    ~ThreadPool()
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            stop_ = true;
        }
        cv_.notify_all();
        space_.notify_all();
        for (auto &w : workers_)
            w.join();
    }

    size_t capacity() const { return capacity_; }

    /** Pending (not yet started) tasks; an instantaneous gauge. */
    size_t
    queueDepth() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return queue_.size();
    }

    /**
     * Enqueue @p task. Unbounded pools return immediately; bounded pools
     * block until the queue has space. Returns false (task not taken)
     * only when the pool is draining or destructing.
     */
    bool
    submit(std::function<void()> task)
    {
        {
            std::unique_lock<std::mutex> lk(mu_);
            space_.wait(lk, [this] {
                return stop_ || draining_ || capacity_ == 0 ||
                       queue_.size() < capacity_;
            });
            if (stop_ || draining_)
                return false;
            queue_.push_back(std::move(task));
        }
        cv_.notify_one();
        return true;
    }

    /**
     * Enqueue @p task only if it costs nothing: returns false -- the
     * admission-control "shed" signal -- when a bounded queue is full
     * or the pool is draining, instead of waiting.
     */
    bool
    trySubmit(std::function<void()> task)
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            if (stop_ || draining_ ||
                (capacity_ != 0 && queue_.size() >= capacity_))
                return false;
            queue_.push_back(std::move(task));
        }
        cv_.notify_one();
        return true;
    }

    /** Block until every submitted task has finished. */
    void
    wait()
    {
        std::unique_lock<std::mutex> lk(mu_);
        idle_.wait(lk, [this] {
            return queue_.empty() && inflight_ == 0;
        });
    }

    /**
     * Graceful shutdown: refuse new tasks from now on, run everything
     * already admitted, and return once the pool is quiescent. Blocked
     * submit() callers wake up with false. Idempotent; the workers stay
     * alive (doing nothing) until destruction.
     */
    void
    drain()
    {
        {
            std::lock_guard<std::mutex> lk(mu_);
            draining_ = true;
        }
        space_.notify_all();
        wait();
    }

    bool
    draining() const
    {
        std::lock_guard<std::mutex> lk(mu_);
        return draining_;
    }

  private:
    void
    workerLoop()
    {
        for (;;) {
            std::function<void()> task;
            {
                std::unique_lock<std::mutex> lk(mu_);
                cv_.wait(lk, [this] {
                    return stop_ || !queue_.empty();
                });
                if (stop_ && queue_.empty())
                    return;
                task = std::move(queue_.front());
                queue_.pop_front();
                ++inflight_;
            }
            space_.notify_one();
            // Tasks must not throw: the sweep runner wraps every job in
            // a catch-all that parks the exception in its result slot.
            task();
            {
                std::lock_guard<std::mutex> lk(mu_);
                --inflight_;
            }
            idle_.notify_all();
        }
    }

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    mutable std::mutex mu_;
    std::condition_variable cv_;    // work available / stopping
    std::condition_variable idle_;  // queue drained and nothing in flight
    std::condition_variable space_; // bounded queue has room / drain/stop
    size_t capacity_ = 0;           // 0 = unbounded
    size_t inflight_ = 0;
    bool stop_ = false;
    bool draining_ = false;
};

} // namespace ladm

#endif // LADM_COMMON_THREAD_POOL_HH

#ifndef FTSIM_NET_EVENT_LOOP_HPP
#define FTSIM_NET_EVENT_LOOP_HPP

/**
 * @file
 * The one poll(2) event loop under NetServer, RouterServer and
 * FaultProxy. Each round the `Driver` `prepare()`s — `watch()`ing each
 * fd with the `Handler` that owns it and `arm()`ing deadlines — then
 * the loop polls, calls `onReady()` on ready handlers in watch order,
 * and ends with `afterEvents()`. Its vectors are reused: a round
 * allocates nothing. `wake()`/`requestStop()` write one byte to a
 * non-blocking pipe (async-signal-safe); `wake()` skips it on the loop
 * thread, whose round has not polled yet. Deadlines use an injectable
 * clock that may be virtual, so while one is armed the loop waits for
 * it at most a short real-time tick. The first round after a stop
 * request calls `onStop()`; the loop ends when `prepare()` returns
 * false, then calls `onExit()`.
 */

#include <poll.h>

#include <atomic>
#include <functional>
#include <thread>
#include <vector>

#include "net/socket.hpp"

namespace ftsim {

class EventLoop {
  public:
    /** The owner of a watched fd. */
    class Handler {
      public:
        virtual void onReady(short revents) = 0;

      protected:
        ~Handler() = default;
    };

    /** The owner of the loop (see file comment). */
    class Driver {
      public:
        virtual void onStop() {}
        virtual bool prepare() = 0;
        virtual void afterEvents() {}
        virtual void onExit() {}

      protected:
        ~Driver() = default;
    };

    /** @param clock virtual time in ms; null = the real steady clock. */
    explicit EventLoop(std::function<double()> clock = {});

    /** stop(); the wake pipe closes after. */
    ~EventLoop();

    EventLoop(const EventLoop&) = delete;
    EventLoop& operator=(const EventLoop&) = delete;

    double nowMs() const;

    /** This round (inside prepare()): poll @p fd for @p events. */
    void watch(int fd, short events, Handler& handler);

    /** This round: wake no later than @p deadlineMs (nowMs() clock). */
    void arm(double deadlineMs);

    /** Makes a poll() in progress return. A no-op on the loop thread,
     *  whose round has not polled yet. */
    void wake();

    /** Ends run() after a final onStop() round; wakes from any thread
     *  or signal handler. */
    void requestStop();

    bool stopping() const { return stopping_; }

    void run(Driver& driver);

    void start(Driver& driver);

    /** requestStop() + join the start() thread (no-op without one). */
    void stop();

    /** True once run() has returned. */
    bool stopped() const { return done_.load(); }

  private:
    int pollTimeoutMs() const;
    void writeWake();

    std::function<double()> clock_;
    UniqueFd wakeRead_;
    UniqueFd wakeWrite_;
    std::atomic<bool> stopRequested_{false};
    bool stopping_ = false;
    std::atomic<bool> done_{false};
    std::thread thread_;
    double deadlineMs_ = -1.0;  ///< Nearest armed; < 0 = none.
    std::vector<pollfd> fds_;
    std::vector<Handler*> handlers_;  ///< Null marks the wake pipe.
};

}  // namespace ftsim

#endif  // FTSIM_NET_EVENT_LOOP_HPP

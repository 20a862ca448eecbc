#include "net/event_loop.hpp"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <unistd.h>

#include "common/clock.hpp"
#include "common/logging.hpp"

namespace ftsim {

namespace {

/** Longest real-time wait while a deadline is armed: the clock may be
 *  virtual, so it is re-read at least this often. */
constexpr double kTickMs = 10.0;

/** The loop run() is driving on this thread, if any. */
thread_local const EventLoop* tRunning = nullptr;

}  // namespace

EventLoop::EventLoop(std::function<double()> clock)
    : clock_(std::move(clock))
{
    int fds[2] = {-1, -1};
    if (::pipe(fds) != 0)
        fatal("EventLoop: cannot create wake pipe");
    wakeRead_ = UniqueFd(fds[0]);
    wakeWrite_ = UniqueFd(fds[1]);
    setNonBlocking(fds[0]);
    setNonBlocking(fds[1]);
}

EventLoop::~EventLoop()
{
    stop();
}

double
EventLoop::nowMs() const
{
    return clock_ ? clock_() : monotonicMs();
}

void
EventLoop::watch(int fd, short events, Handler& handler)
{
    fds_.push_back({fd, events, 0});
    handlers_.push_back(&handler);
}

void
EventLoop::arm(double deadlineMs)
{
    if (deadlineMs_ < 0.0 || deadlineMs < deadlineMs_)
        deadlineMs_ = deadlineMs;
}

void
EventLoop::wake()
{
    // On the loop thread the round is still running: afterEvents() and
    // the next prepare() see the change before the loop polls again, so
    // a pipe byte would only buy an empty round.
    if (tRunning != this)
        writeWake();
}

void
EventLoop::writeWake()
{
    // A full pipe means a wake is already pending: EAGAIN is success.
    const char byte = 1;
    [[maybe_unused]] ssize_t n = ::write(wakeWrite_.get(), &byte, 1);
}

void
EventLoop::requestStop()
{
    // Always the pipe: a signal handler on the loop thread may land
    // after the round's stop check, just before poll().
    stopRequested_.store(true);
    writeWake();
}

int
EventLoop::pollTimeoutMs() const
{
    if (deadlineMs_ < 0.0)
        return -1;
    // At least 1 ms: a deadline already due must not spin the loop.
    return static_cast<int>(
        std::clamp(std::ceil(deadlineMs_ - nowMs()), 1.0, kTickMs));
}

void
EventLoop::run(Driver& driver)
{
    const EventLoop* const outer = tRunning;
    tRunning = this;
    while (true) {
        if (!stopping_ && stopRequested_.load()) {
            stopping_ = true;
            driver.onStop();
        }
        fds_.clear();
        handlers_.clear();
        deadlineMs_ = -1.0;
        fds_.push_back({wakeRead_.get(), POLLIN, 0});
        handlers_.push_back(nullptr);
        if (!driver.prepare())
            break;

        const int rc = ::poll(fds_.data(),
                              static_cast<nfds_t>(fds_.size()),
                              pollTimeoutMs());
        if (rc < 0 && errno != EINTR)
            fatal("EventLoop: poll() failed");
        for (std::size_t i = 0; rc > 0 && i < fds_.size(); ++i) {
            const short revents = fds_[i].revents;
            if (revents == 0)
                continue;
            if (handlers_[i] != nullptr) {
                handlers_[i]->onReady(revents);
                continue;
            }
            char buf[256];
            while (::read(wakeRead_.get(), buf, sizeof(buf)) > 0) {
            }
        }
        driver.afterEvents();
    }
    driver.onExit();
    tRunning = outer;
    done_.store(true);
}

void
EventLoop::start(Driver& driver)
{
    thread_ = std::thread([this, &driver] { run(driver); });
}

void
EventLoop::stop()
{
    requestStop();
    if (thread_.joinable())
        thread_.join();
}

}  // namespace ftsim

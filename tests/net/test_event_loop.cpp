/**
 * @file
 * EventLoop wake-ups: a wake() from another thread unblocks a loop
 * parked in poll() with no deadline armed, and a wake() on the loop
 * thread itself (a cache hit's completion callback on a NetServer)
 * costs no extra round, because the round has not polled yet.
 */

#include <gtest/gtest.h>

#include <poll.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "net/event_loop.hpp"
#include "net/socket.hpp"

namespace ftsim {
namespace {

/** Counts rounds; a byte on the trigger pipe makes the loop thread
 *  call wake() on its own loop, as a synchronous notify does. */
struct CountingDriver : EventLoop::Driver, EventLoop::Handler {
    explicit CountingDriver(EventLoop& loop) : loop(loop)
    {
        int fds[2] = {-1, -1};
        EXPECT_EQ(::pipe(fds), 0);
        triggerRead = UniqueFd(fds[0]);
        triggerWrite = UniqueFd(fds[1]);
    }

    bool prepare() override
    {
        if (loop.stopping())
            return false;
        loop.watch(triggerRead.get(), POLLIN, *this);
        rounds.fetch_add(1);
        return true;
    }

    void onReady(short) override
    {
        char byte = 0;
        EXPECT_EQ(::read(triggerRead.get(), &byte, 1), 1);
        loop.wake();
        triggered.fetch_add(1);
    }

    void trigger()
    {
        const char byte = 1;
        EXPECT_EQ(::write(triggerWrite.get(), &byte, 1), 1);
    }

    EventLoop& loop;
    UniqueFd triggerRead;
    UniqueFd triggerWrite;
    /** prepare() calls: each is followed by one poll(). */
    std::atomic<int> rounds{0};
    std::atomic<int> triggered{0};
};

/** Polls @p done for up to 5 s of real time. */
template <typename Done>
bool
eventually(Done done)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (std::chrono::steady_clock::now() < deadline) {
        if (done())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return done();
}

TEST(NetEventLoop, WakeWritesThePipeOnlyOffTheLoopThread)
{
    EventLoop loop;
    CountingDriver driver(loop);
    loop.start(driver);
    EXPECT_TRUE(eventually([&] { return driver.rounds.load() == 1; }));
    driver.trigger();
    EXPECT_TRUE(eventually([&] {
        return driver.triggered.load() == 1 && driver.rounds.load() >= 2;
    }));
    // A pipe byte written by that wake() would end the next poll at
    // once and start a third round; give it ample time to show.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    EXPECT_EQ(driver.rounds.load(), 2);
    // A wake from another thread still ends a poll with no deadline
    // armed, where only the pipe can. (No ASSERT above: the loop must
    // stop before the driver goes away.)
    loop.wake();
    EXPECT_TRUE(eventually([&] { return driver.rounds.load() >= 3; }));
    loop.stop();
    EXPECT_TRUE(loop.stopped());
}

}  // namespace
}  // namespace ftsim

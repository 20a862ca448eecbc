#ifndef FTSIM_COMMON_CLOCK_HPP
#define FTSIM_COMMON_CLOCK_HPP

/**
 * @file
 * The process-wide real-time clock: milliseconds on steady_clock.
 * Every timer that is not injected (event-loop deadlines, client
 * timeouts, admission timing) reads this one function.
 */

#include <chrono>

namespace ftsim {

/** Monotonic milliseconds since an arbitrary epoch. */
inline double
monotonicMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

}  // namespace ftsim

#endif  // FTSIM_COMMON_CLOCK_HPP

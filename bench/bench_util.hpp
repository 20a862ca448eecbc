#ifndef FTSIM_BENCH_BENCH_UTIL_HPP
#define FTSIM_BENCH_BENCH_UTIL_HPP

/**
 * @file
 * Shared output helpers for the paper-reproduction benchmark binaries.
 * Every bench regenerates one table or figure of the paper and prints a
 * banner naming it, the series/rows in a diff-friendly layout, and the
 * paper's reference values where applicable. The perf harnesses share
 * one paired, order-alternating timer (`measure`) for their ratios.
 */

#include <chrono>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/stats.hpp"

namespace ftsim::bench {

/** Monotonic wall clock in milliseconds. */
inline double
nowMs()
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** A paired timing: the spread of the per-pair ratio baseline /
 *  candidate, and each side's median milliseconds per run. */
struct Paired {
    double median = 0.0;
    double p10 = 0.0;
    double p90 = 0.0;
    int trials = 0;
    double baselineMs = 0.0;
    double candidateMs = 0.0;
};

/**
 * The perf harnesses' one timer. Runs @p trials pairs; each pair times
 * @p inner consecutive calls of @p baseline and of @p candidate (per
 * call, so clock granularity amortizes on sub-millisecond bodies).
 * Even pairs run the baseline first and odd pairs the candidate, so
 * warm-up, drift and cache order hit both sides alike. A side that
 * needs fresh state builds it inside its body, once per call.
 */
template <typename Baseline, typename Candidate>
Paired
measure(int trials, int inner, Baseline&& baseline,
        Candidate&& candidate)
{
    auto timed = [inner](auto& body) {
        const double start = nowMs();
        for (int i = 0; i < inner; ++i)
            body();
        return (nowMs() - start) / inner;
    };
    std::vector<double> base_ms;
    std::vector<double> cand_ms;
    std::vector<double> ratios;
    for (int t = 0; t < trials; ++t) {
        double base = 0.0;
        double cand = 0.0;
        if (t % 2 == 0) {
            base = timed(baseline);
            cand = timed(candidate);
        } else {
            cand = timed(candidate);
            base = timed(baseline);
        }
        base_ms.push_back(base);
        cand_ms.push_back(cand);
        ratios.push_back(cand > 0.0 ? base / cand : 0.0);
    }
    Paired out;
    out.median = ftsim::median(ratios);
    out.p10 = percentile(ratios, 10.0);
    out.p90 = percentile(ratios, 90.0);
    out.trials = trials;
    out.baselineMs = ftsim::median(base_ms);
    out.candidateMs = ftsim::median(cand_ms);
    return out;
}

/** A paired ratio as a JSON object body: median, p10, p90, trials. */
inline std::string
spreadJson(const Paired& paired)
{
    std::ostringstream out;
    out << "{\"median\": " << paired.median << ", \"p10\": "
        << paired.p10 << ", \"p90\": " << paired.p90
        << ", \"trials\": " << paired.trials << "}";
    return out.str();
}

/** A paired ratio for the console: "1.8x median, p10-p90 1.6-1.9x,
 *  15 trials". */
inline std::string
spreadText(const Paired& paired)
{
    std::ostringstream out;
    out << paired.median << "x median, p10-p90 " << paired.p10 << '-'
        << paired.p90 << "x, " << paired.trials << " trials";
    return out.str();
}

/** Prints the standard banner for one reproduced artifact. */
inline void
banner(const std::string& artifact, const std::string& description)
{
    std::cout << '\n'
              << std::string(72, '=') << '\n'
              << artifact << " — " << description << '\n'
              << std::string(72, '=') << '\n';
}

/** Prints a sub-section heading. */
inline void
section(const std::string& title)
{
    std::cout << '\n' << title << '\n' << std::string(title.size(), '-')
              << '\n';
}

/** Prints a closing note (e.g. paper-vs-measured commentary). */
inline void
note(const std::string& text)
{
    std::cout << "note: " << text << '\n';
}

}  // namespace ftsim::bench

#endif  // FTSIM_BENCH_BENCH_UTIL_HPP

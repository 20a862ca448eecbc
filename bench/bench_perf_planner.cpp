/**
 * @file
 * Performance-tracking harness for the planner hot path.
 *
 * Unlike the figure/table benches (which reproduce paper artifacts),
 * this binary times the *implementation*: cold and warm `costTable`,
 * `cheapestPlan`, and a full-catalog throughput sweep — plus the same
 * sweep through the retained pre-optimization reference path
 * (`profileStepReference`, which rebuilds the KernelDesc workload per
 * query exactly as the code before the compiled-plan PR did). Results
 * are written to BENCH_planner.json. Each speedup is the median of
 * paired, order-alternating trials (`bench::measure`), recorded with
 * its p10/p90 spread; tools/bench_check.py gates the median.
 *
 * Reading the speedups: cold-vs-reference isolates the compiled-plan
 * rewrite alone; warm-vs-reference additionally includes the planner's
 * step-memoization layer (PR 1) and is the steady serving state.
 *
 * Usage: bench_perf_planner [output.json]   (default: BENCH_planner.json)
 */

#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/logging.hpp"
#include "core/planner.hpp"

using namespace ftsim;

namespace {

/** Paired trials per ratio. Each trial times kInner calls per side (a
 *  full-catalog sweep is sub-millisecond once compiled), or kWarmInner
 *  when a side is a warm, microsecond-scale lookup: its first call
 *  after the other side's cache churn must not dominate the mean. */
constexpr int kTrials = 15;
constexpr int kInner = 20;
constexpr int kWarmInner = 200;

}  // namespace

int
main(int argc, char** argv)
{
    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_planner.json";
    // Keep timing output clean of does-not-fit sweep warnings.
    Logger::instance().setLevel(LogLevel::Error);

    bench::banner("bench_perf_planner",
                  "Planner hot-path timings (compiled plans + lock-free "
                  "memoization)");

    const Scenario scenario = Scenario::gsMath();
    const std::vector<GpuSpec> gpus = GpuSpec::paperGpus();

    // --- Reference: the pre-compiled-plan implementation. ------------
    // One fresh simulator per GPU, every step profiled through the
    // retained reference path (per-query workload rebuild, no caching)
    // — the exact work the planner performed before this optimization.
    std::size_t sweep_points = 0;
    auto reference_sweep = [&] {
        sweep_points = 0;
        for (const GpuSpec& gpu : gpus) {
            FineTuneSim sim(scenario.model, gpu, scenario.calibration);
            // sweepConfigs is the same grid throughputObservations
            // simulates, so reference and planner time equal workloads.
            for (const RunConfig& config : sim.sweepConfigs(
                     scenario.medianSeqLen, scenario.lengthSigma)) {
                sim.profileStepReference(config);
                ++sweep_points;
            }
        }
    };

    // --- Compiled-plan path, serial, cache cold. ----------------------
    auto cold_sweep_serial = [&] {
        Planner planner(scenario);
        for (const GpuSpec& gpu : gpus)
            planner.throughputObservations(gpu);
    };

    // --- Warm sweep: planner cache populated. -------------------------
    Planner warm(scenario);
    for (const GpuSpec& gpu : gpus)
        warm.throughputObservations(gpu);
    auto warm_sweep = [&] {
        for (const GpuSpec& gpu : gpus)
            warm.throughputObservations(gpu);
    };

    // --- Cost table / cheapest plan. ----------------------------------
    auto cold_cost_table = [&] {
        Planner planner(scenario);
        planner.costTable(gpus);
    };
    auto warm_cost_table = [&] { warm.costTable(gpus); };
    auto warm_cheapest_plan = [&] { warm.cheapestPlan(gpus); };

    const bench::Paired cold_vs_ref =
        bench::measure(kTrials, kInner, reference_sweep, cold_sweep_serial);
    const bench::Paired warm_vs_ref =
        bench::measure(kTrials, kWarmInner, reference_sweep, warm_sweep);
    const bench::Paired cost_table =
        bench::measure(kTrials, kInner, cold_cost_table, warm_cost_table);
    const bench::Paired cheapest = bench::measure(
        kTrials, kWarmInner, warm_cost_table, warm_cheapest_plan);

    const double reference_sweep_ms = cold_vs_ref.baselineMs;
    const double cold_sweep_serial_ms = cold_vs_ref.candidateMs;
    const double warm_sweep_ms = warm_vs_ref.candidateMs;
    const double cold_cost_table_ms = cost_table.baselineMs;
    const double warm_cost_table_ms = cost_table.candidateMs;
    const double warm_cheapest_plan_ms = cheapest.candidateMs;
    const double warm_speedup = warm_vs_ref.median;
    const double cold_serial_speedup = cold_vs_ref.median;

    const PlannerStats stats = warm.stats();

    bench::section("Full-catalog throughput sweep (" +
                   std::to_string(sweep_points) + " configs, " +
                   std::to_string(gpus.size()) + " GPUs)");
    std::cout << "reference (pre-PR per-query rebuild): "
              << reference_sweep_ms << " ms\n"
              << "cold, compiled plans, serial:         "
              << cold_sweep_serial_ms << " ms  ("
              << bench::spreadText(cold_vs_ref) << ")\n"
              << "warm (memoized):                      " << warm_sweep_ms
              << " ms  (" << bench::spreadText(warm_vs_ref) << ")\n";
    bench::note("cold ratios isolate the compiled-plan rewrite; the "
                "warm ratio also includes the PR-1 step cache");

    bench::section("Cost table / cheapest plan");
    std::cout << "costTable cold: " << cold_cost_table_ms
              << " ms, warm: " << warm_cost_table_ms
              << " ms; cheapestPlan warm: " << warm_cheapest_plan_ms
              << " ms\n";

    std::ofstream out(out_path);
    if (!out) {
        std::cerr << "cannot write " << out_path << "\n";
        return 1;
    }
    out << "{\n"
        << "  \"bench\": \"bench_perf_planner\",\n"
        << "  \"scenario\": \"gsMath (Mixtral-8x7B, median 148)\",\n"
        << "  \"gpu_count\": " << gpus.size() << ",\n"
        << "  \"sweep_configs\": " << sweep_points << ",\n"
        << "  \"timings_ms\": {\n"
        << "    \"reference_sweep\": " << reference_sweep_ms << ",\n"
        << "    \"cold_sweep_serial\": " << cold_sweep_serial_ms << ",\n"
        << "    \"warm_sweep\": " << warm_sweep_ms << ",\n"
        << "    \"cold_cost_table\": " << cold_cost_table_ms << ",\n"
        << "    \"warm_cost_table\": " << warm_cost_table_ms << ",\n"
        << "    \"warm_cheapest_plan\": " << warm_cheapest_plan_ms
        << "\n"
        << "  },\n"
        << "  \"speedups_vs_reference\": {\n"
        << "    \"warm_sweep\": " << warm_speedup << ",\n"
        << "    \"cold_sweep_serial\": " << cold_serial_speedup << "\n"
        << "  },\n"
        << "  \"spread\": {\n"
        << "    \"warm_sweep\": " << bench::spreadJson(warm_vs_ref)
        << ",\n"
        << "    \"cold_sweep_serial\": "
        << bench::spreadJson(cold_vs_ref) << "\n"
        << "  },\n"
        << "  \"planner_stats\": {\n"
        << "    \"step_cache_hits\": " << stats.stepCacheHits << ",\n"
        << "    \"step_cache_misses\": " << stats.stepCacheMisses << ",\n"
        << "    \"steps_simulated\": " << stats.stepsSimulated << "\n"
        << "  }\n"
        << "}\n";
    bench::note("wrote " + out_path);
    return 0;
}

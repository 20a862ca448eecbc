/**
 * @file
 * Perf + identity harness for the vectorized batch sweep (ISSUE-9).
 *
 * Times the full-catalog 1..max_batch throughput sweep two ways on the
 * *same* warm compiled plans:
 *
 *  - per-batch: one `stepSeconds` call per batch size — the loop
 *    `throughputSweep` ran before the vectorized rewrite (plan lookup,
 *    scalar evaluate, scalar simulate per point);
 *  - vectorized: `throughputSweep` itself, which runs one
 *    `StepPlan::evaluateSweep` pass per (GPU, routing mode) and feeds
 *    the planes through `ExecutionModel::accumulateSweepSeconds`.
 *
 * Both paths are pinned bit-identical (step_plan.hpp's sweep
 * contract), so the bench first compares every point and exits
 * non-zero on any mismatch; only then does it time. The speedup is
 * the median of paired, order-alternating trials (`bench::measure`),
 * recorded with its p10/p90 spread. It is a gated artifact:
 * bench_check.py fails CI if the median regresses below tolerance of
 * the checked-in baseline, and the bench itself fails when the median
 * falls below the 1.5x floor the vectorization was acceptance-tested
 * at.
 *
 * Usage: bench_sweep [output.json]   (default: BENCH_sweep.json)
 */

#include <algorithm>
#include <cstddef>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/logging.hpp"
#include "core/scenario.hpp"
#include "gpusim/finetune_sim.hpp"

using namespace ftsim;

namespace {

/** Paired trials; each trial times 20 sweeps per side. */
constexpr int kTrials = 15;
constexpr int kInner = 20;

/** One (simulator, routing mode, batch ceiling) lane of the catalog. */
struct SweepLane {
    const FineTuneSim* sim = nullptr;
    bool sparse = false;
    std::size_t maxBatch = 0;
};

}  // namespace

int
main(int argc, char** argv)
{
    const std::string out_path = argc > 1 ? argv[1] : "BENCH_sweep.json";
    // Keep timing output clean of does-not-fit warnings.
    Logger::instance().setLevel(LogLevel::Error);

    bench::banner("bench_sweep",
                  "Vectorized 1..max_batch sweep vs the per-batch "
                  "compiled loop (bit-identity gated)");

    const Scenario scenario = Scenario::gsMath();

    // The catalog: one warm simulator per paper GPU, each routing mode
    // that fits at batch 1, swept up to that mode's own max batch —
    // the exact grid sweepConfigs defines (and the planner simulates).
    std::vector<GpuSpec> gpus = GpuSpec::paperGpus();
    std::vector<std::unique_ptr<FineTuneSim>> sims;
    sims.reserve(gpus.size());
    for (const GpuSpec& gpu : gpus)
        sims.push_back(std::make_unique<FineTuneSim>(
            scenario.model, gpu, scenario.calibration));

    std::vector<SweepLane> lanes;
    std::size_t sweep_points = 0;
    for (const auto& sim_ptr : sims) {
        const FineTuneSim& sim = *sim_ptr;
        const std::vector<RunConfig> grid = sim.sweepConfigs(
            scenario.medianSeqLen, scenario.lengthSigma);
        for (bool sparse : {false, true}) {
            SweepLane lane;
            lane.sim = &sim;
            lane.sparse = sparse;
            for (const RunConfig& c : grid)
                if (c.sparse == sparse)
                    lane.maxBatch = std::max(lane.maxBatch, c.batchSize);
            if (lane.maxBatch == 0)
                continue;  // mode does not fit on this GPU
            lanes.push_back(lane);
            sweep_points += lane.maxBatch;
        }
    }

    // Warm every compiled plan (and prove both paths run) before any
    // identity check or timing: the bench measures the steady serving
    // state, not first-touch compilation.
    for (const SweepLane& lane : lanes)
        lane.sim
            ->throughputSweep(scenario.medianSeqLen, lane.sparse,
                              lane.maxBatch, scenario.lengthSigma)
            .value();

    // --- Bit-identity: every vectorized point vs its scalar twin. ----
    std::size_t mismatches = 0;
    std::size_t points_compared = 0;
    for (const SweepLane& lane : lanes) {
        const auto sweep =
            lane.sim
                ->throughputSweep(scenario.medianSeqLen, lane.sparse,
                                  lane.maxBatch, scenario.lengthSigma)
                .value();
        for (const ThroughputPoint& pt : sweep) {
            RunConfig c;
            c.batchSize = pt.batchSize;
            c.seqLen = lane.sim->paddedSeqLen(scenario.medianSeqLen,
                                              pt.batchSize,
                                              scenario.lengthSigma);
            c.sparse = lane.sparse;
            const double scalar = lane.sim->stepSeconds(c);
            ++points_compared;
            if (pt.stepSeconds != scalar) {
                ++mismatches;
                std::cerr << "MISMATCH " << lane.sim->gpu().name
                          << (lane.sparse ? " sparse" : " dense")
                          << " batch " << pt.batchSize << ": sweep "
                          << pt.stepSeconds << " vs scalar " << scalar
                          << "\n";
            }
        }
    }

    // --- Timings on the same warm lanes. -----------------------------
    auto per_batch = [&] {
        for (const SweepLane& lane : lanes)
            for (std::size_t b = 1; b <= lane.maxBatch; ++b) {
                RunConfig c;
                c.batchSize = b;
                c.seqLen = lane.sim->paddedSeqLen(
                    scenario.medianSeqLen, b, scenario.lengthSigma);
                c.sparse = lane.sparse;
                lane.sim->stepSeconds(c);
            }
    };
    auto vectorized = [&] {
        for (const SweepLane& lane : lanes)
            lane.sim
                ->throughputSweep(scenario.medianSeqLen, lane.sparse,
                                  lane.maxBatch, scenario.lengthSigma)
                .value();
    };
    const bench::Paired timing =
        bench::measure(kTrials, kInner, per_batch, vectorized);
    const double per_batch_ms = timing.baselineMs;
    const double vectorized_ms = timing.candidateMs;
    const double speedup = timing.median;

    bench::section("Full-catalog warm sweep (" +
                   std::to_string(sweep_points) + " points, " +
                   std::to_string(lanes.size()) + " lanes, " +
                   std::to_string(gpus.size()) + " GPUs)");
    std::cout << "per-batch compiled loop: " << per_batch_ms << " ms\n"
              << "vectorized evaluateSweep: " << vectorized_ms
              << " ms  (" << bench::spreadText(timing) << ")\n"
              << "bit-identity: " << mismatches << " mismatches over "
              << points_compared << " points\n";
    bench::note("both paths share the warm compiled plans; the ratio "
                "isolates the sweep rewrite (dispatch hoisting + "
                "seconds-only arithmetic), not plan compilation");

    std::ofstream out(out_path);
    if (!out) {
        std::cerr << "cannot write " << out_path << "\n";
        return 1;
    }
    out << "{\n"
        << "  \"bench\": \"bench_sweep\",\n"
        << "  \"scenario\": \"gsMath (Mixtral-8x7B, median 148)\",\n"
        << "  \"gpu_count\": " << gpus.size() << ",\n"
        << "  \"sweep_lanes\": " << lanes.size() << ",\n"
        << "  \"sweep_points\": " << sweep_points << ",\n"
        << "  \"identity\": {\n"
        << "    \"points_compared\": " << points_compared << ",\n"
        << "    \"mismatches\": " << mismatches << "\n"
        << "  },\n"
        << "  \"timings_ms\": {\n"
        << "    \"per_batch_sweep\": " << per_batch_ms << ",\n"
        << "    \"vectorized_sweep\": " << vectorized_ms << "\n"
        << "  },\n"
        << "  \"speedups\": {\n"
        << "    \"vectorized_vs_per_batch\": " << speedup << "\n"
        << "  },\n"
        << "  \"spread\": {\n"
        << "    \"vectorized_vs_per_batch\": " << bench::spreadJson(timing)
        << "\n"
        << "  }\n"
        << "}\n";
    bench::note("wrote " + out_path);

    if (mismatches != 0) {
        std::cerr << "FAIL: vectorized sweep diverged from the scalar "
                     "path\n";
        return 1;
    }
    if (speedup < 1.5) {
        std::cerr << "FAIL: vectorized sweep median speedup " << speedup
                  << "x below the 1.5x acceptance floor\n";
        return 1;
    }
    return 0;
}

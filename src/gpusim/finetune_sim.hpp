#ifndef FTSIM_GPUSIM_FINETUNE_SIM_HPP
#define FTSIM_GPUSIM_FINETUNE_SIM_HPP

/**
 * @file
 * End-to-end fine-tuning step simulator.
 *
 * Combines the workload builder and the execution model, and aggregates
 * per-kernel metrics into the paper's three breakdown levels:
 *
 *  - stage level (forward / backward / optimizer)          — Fig. 4
 *  - layer level (norms / attention / mamba / MoE / head)  — Fig. 5
 *  - kernel level inside the MoE layer                     — Fig. 6
 *
 * plus time-weighted SM and DRAM utilization (Figs. 9-10), step latency,
 * and queries/second throughput (Fig. 8).
 */

#include <atomic>
#include <cstdint>
#include <string>
#include <vector>

#include "gpusim/exec_model.hpp"
#include "gpusim/workload.hpp"

namespace ftsim {

/** Per-kernel-name aggregate (forward + recompute + backward merged). */
struct KernelAggregate {
    std::string name;       ///< Normalized name, e.g. "matmul(w1)".
    double seconds = 0.0;
    double launches = 0.0;
    double flops = 0.0;
    double bytes = 0.0;
    /** Time-weighted SM utilization across the merged launches, %. */
    double smUtilPct = 0.0;
    /** Time-weighted DRAM bandwidth utilization, %. */
    double dramUtilPct = 0.0;
};

/** Per-layer-class aggregate (Fig. 5 rows). */
struct LayerAggregate {
    LayerClass layer = LayerClass::MoE;
    double seconds = 0.0;
};

/** Full profile of one simulated fine-tuning step. */
struct StepProfile {
    RunConfig config;
    double forwardSeconds = 0.0;
    double backwardSeconds = 0.0;   ///< Includes recomputation.
    double optimizerSeconds = 0.0;
    /** Per-step framework overhead (dataloader etc.). */
    double overheadSeconds = 0.0;
    /** Total step latency. */
    double stepSeconds = 0.0;
    /** Queries processed per second (paper's throughput metric). */
    double throughputQps = 0.0;
    /** Total kernel launches in the step. */
    double kernelLaunches = 0.0;

    /** Seconds by layer class, descending. */
    std::vector<LayerAggregate> byLayer;
    /** MoE-layer kernels by normalized name, descending by time. */
    std::vector<KernelAggregate> moeKernels;
    /** Time-weighted SM utilization over the MoE kernels, %. */
    double moeTimeWeightedSmPct = 0.0;
    /** Time-weighted DRAM utilization over the MoE kernels, %. */
    double moeTimeWeightedDramPct = 0.0;

    /** Fraction of step time spent in the MoE layer class. */
    double moeFractionOfStep() const;
};

/** Simulator facade: one model on one GPU. */
class FineTuneSim {
  public:
    /**
     * @param registry optional fleet-wide compiled-plan cache, handed
     *        through to the workload builder (see
     *        gpusim/plan_registry.hpp). Null keeps plans builder-local.
     */
    FineTuneSim(const ModelSpec& model, const GpuSpec& gpu,
                const SimCalibration& calib = {},
                std::shared_ptr<PlanRegistry> registry = nullptr);

    /**
     * Profiles one training step in full detail. Runs on the compiled
     * `StepPlan` path: the kernel graph is compiled once per config
     * shape and only the batch/seq-dependent terms are re-evaluated (a
     * one-point `StepPlan::evaluateSweep`), so repeated profiles do not
     * rebuild the workload.
     */
    StepProfile profileStep(const RunConfig& config) const;

    /** Step latency only (cheaper call sites); compiled-plan path. */
    double stepSeconds(const RunConfig& config) const;

    /**
     * Full profiles for a whole batch sweep in one vectorized pass:
     * `StepPlan::evaluateSweep` fills the kernel-major planes for every
     * config, then each profile aggregates from its plane column.
     * Configs are grouped by compiled plan (consecutive configs sharing
     * a shape evaluate together), so a mixed dense+sparse grid like
     * `sweepConfigs()` still works. Element i is bit-identical to
     * `profileStep(configs[i])`; counts toward stepsSimulated() once
     * per config.
     */
    std::vector<StepProfile> profileSweep(
        const std::vector<RunConfig>& configs) const;

    /**
     * The retained reference implementation of profileStep: rebuilds
     * the full `KernelDesc` workload on every call, exactly as the
     * pre-compiled-plan code did. Bit-identical to profileStep — golden
     * tests pin the equality, and the perf bench uses it as the
     * baseline. Counts toward stepsSimulated().
     */
    StepProfile profileStepReference(const RunConfig& config) const;

    /** Reference twin of stepSeconds (per-call workload rebuild). */
    double stepSecondsReference(const RunConfig& config) const;

    /**
     * Queries/second at the given configuration. @p seq_len is the
     * dataset's *median* length; @p length_sigma is the log-normal shape
     * of the length distribution — batches pad every query to the batch
     * maximum, so the effective per-query token count grows with batch
     * size (0 disables the padding model).
     */
    double throughput(std::size_t batch, std::size_t seq_len, bool sparse,
                      double length_sigma = 0.0) const;

    /** Effective (padding-amplified) sequence length for a batch. */
    std::size_t paddedSeqLen(std::size_t seq_len, std::size_t batch,
                             double length_sigma) const;

    /**
     * The dense + sparse full-sweep grid on this sim's GPU: for each
     * routing mode that fits at batch 1, configs at batch 1..max with
     * padding-amplified sequence lengths. This is the single
     * definition of the sweep `Planner::throughputObservations`
     * simulates (and the perf bench times) — keep them in lockstep by
     * construction, not by copy.
     */
    std::vector<RunConfig> sweepConfigs(std::size_t median_seq_len,
                                        double length_sigma) const;

    /** The model spec. */
    const ModelSpec& model() const { return model_; }

    /** The GPU spec. */
    const GpuSpec& gpu() const { return exec_.gpu(); }

    /** The workload builder (for tests and ablations). */
    const WorkloadBuilder& workload() const { return builder_; }

    /** The execution model. */
    const ExecutionModel& exec() const { return exec_; }

    /**
     * Number of full training steps simulated so far (profileStep or
     * stepSeconds calls; profileSweep counts once per config).
     * Cache layers above (see core/planner.hpp) use this to prove that
     * repeated queries do not re-simulate — each step simulation walks
     * the whole kernel workload and dominates query latency.
     */
    std::uint64_t stepsSimulated() const { return steps_simulated_; }

  private:
    /**
     * Aggregates one step profile from column @p point of the planes
     * `plan.evaluateSweep` filled into @p eval. The single source of
     * the aggregation arithmetic for profileStep and profileSweep.
     */
    StepProfile profileFromEval(const StepPlan& plan,
                                const RunConfig& config,
                                const SweepBuffers& eval,
                                std::size_t point) const;

    ModelSpec model_;
    WorkloadBuilder builder_;
    ExecutionModel exec_;
    /** Instrumentation only; atomic so const queries stay thread-safe. */
    mutable std::atomic<std::uint64_t> steps_simulated_{0};
};

}  // namespace ftsim

#endif  // FTSIM_GPUSIM_FINETUNE_SIM_HPP

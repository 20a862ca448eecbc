#ifndef FTSIM_GPUSIM_WORKLOAD_HPP
#define FTSIM_GPUSIM_WORKLOAD_HPP

/**
 * @file
 * Lowers a full-size ModelSpec + run configuration into the kernel
 * sequence of one fine-tuning step.
 *
 * The emitted kernels follow the paper's own naming (Figs. 6, 9, 10):
 * matmul(w1/w2/w3/router), w*_dequant, softmax, topk, gelu, sigmoid,
 * elementwise_mult, plus the attention / mamba / norm / optimizer
 * kernels that the stage- and layer-level breakdowns (Figs. 4-5)
 * aggregate over. Identical per-layer (and per-expert) launches are
 * collapsed via KernelDesc::count, so a 32-layer, 8-expert step stays a
 * compact descriptor list while launch-overhead accounting remains
 * correct.
 */

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "common/interner.hpp"
#include "gpusim/kernel.hpp"
#include "gpusim/plan_registry.hpp"
#include "gpusim/step_plan.hpp"
#include "models/spec.hpp"

namespace ftsim {

/** One fine-tuning step configuration. */
struct RunConfig {
    std::size_t batchSize = 1;
    std::size_t seqLen = 128;   ///< The paper's profiling length (§III).
    bool sparse = true;         ///< top-2 experts vs. all 8.
    /**
     * Re-run the forward pass inside backward (gradient checkpointing).
     * Defaults to the paper's setup: on for QLoRA Mixtral, off for
     * BlackMamba. Set explicitly for ablations.
     */
    int gradientCheckpointing = -1;  ///< -1 = strategy default.
};

/**
 * Builds kernel workloads from a model spec.
 *
 * Two emission paths produce identical numbers:
 *
 *  - `buildStep` / `buildForward` — the retained *reference* path,
 *    materializing a fresh `std::vector<KernelDesc>` per call. It is
 *    the golden oracle for tests and the pre-optimization baseline the
 *    perf bench compares against.
 *  - `stepPlan` — the compiled path: one `StepPlan` per config shape
 *    (sparse x checkpointing), cached for the builder's lifetime, with
 *    interned kernel names and per-kernel formulas evaluated per
 *    (batch, seq). This is what the simulation hot path uses.
 *
 * Any change to one path must be mirrored in the other; the golden
 * tests in tests/gpusim/test_step_plan.cpp enforce bit-equality.
 */
class WorkloadBuilder {
  public:
    /**
     * @param registry optional fleet-wide plan cache: when set, kernel
     *        names intern into the registry's interner and `stepPlan`
     *        looks shapes up there before compiling, so builders for
     *        the same model (different GPUs, different planners) share
     *        one compiled plan per shape.
     */
    explicit WorkloadBuilder(const ModelSpec& spec,
                             std::shared_ptr<PlanRegistry> registry =
                                 nullptr);

    // Plan slots hold std::once_flag: no copies.
    WorkloadBuilder(const WorkloadBuilder&) = delete;
    WorkloadBuilder& operator=(const WorkloadBuilder&) = delete;

    /** Kernels of a full step: forward + backward + optimizer. */
    std::vector<KernelDesc> buildStep(const RunConfig& config) const;

    /** Kernels of the forward pass only. */
    std::vector<KernelDesc> buildForward(const RunConfig& config) const;

    /**
     * The compiled plan for @p config's shape. Compiled on first use
     * and cached; batch size and sequence length do not participate in
     * the cache key (they are `StepPlan::evaluateSweep` inputs). Thread-safe.
     */
    const StepPlan& stepPlan(const RunConfig& config) const;

    /** The interner backing the plans' kernel-name ids (the attached
     *  registry's interner when one is set, else builder-local). */
    const StringInterner& kernelNames() const { return interner(); }

    /** Plans *this builder* compiled (at most 4; tests pin the reuse).
     *  Shapes answered by the attached registry do not count. */
    std::uint32_t plansCompiled() const { return plans_compiled_.load(); }

    /** The attached fleet-wide plan registry (may be null). */
    const std::shared_ptr<PlanRegistry>& planRegistry() const
    {
        return registry_;
    }

    /** The spec being lowered. */
    const ModelSpec& spec() const { return spec_; }

    /** Whether checkpointing applies under @p config. */
    bool checkpointing(const RunConfig& config) const;

    /** ALU ops charged per element de-quantized (NF4-style unpack:
     *  nibble shifts, LUT gather, per-block scale multiply). */
    static constexpr double kDequantOpsPerElement = 20.0;

  private:
    /** Appends the forward kernels of one decoder layer. */
    void addLayerForward(std::vector<KernelDesc>& out,
                         const RunConfig& config, Stage stage) const;

    /** Appends backward-only kernels (dX/dW chains) of one layer. */
    void addLayerBackward(std::vector<KernelDesc>& out,
                          const RunConfig& config) const;

    /** Appends embedding + LM-head kernels for a stage. */
    void addHead(std::vector<KernelDesc>& out, const RunConfig& config,
                 Stage stage) const;

    /** Appends the optimizer-stage kernels. */
    void addOptimizer(std::vector<KernelDesc>& out) const;

    // -- emission helpers ------------------------------------------------

    /** Emits a GEMM of shape [m, k] x [k, n] (+ optional weight read). */
    KernelDesc gemm(const char* name, Stage stage, LayerClass layer,
                    double m, double k, double n, double weight_bytes,
                    double count) const;

    /** Emits a 4-bit dequant kernel over a [k, n] weight. */
    KernelDesc dequant(const char* name, Stage stage, LayerClass layer,
                       double elements, double count) const;

    /** Emits a rowwise kernel (softmax/topk/norm/...). */
    KernelDesc rowwise(const char* name, KernelKind kind, Stage stage,
                       LayerClass layer, double rows, double width,
                       double ops_per_element, double count) const;

    // -- compiled-plan path ----------------------------------------------

    /** Compiles the plan for one shape; mirrors the reference path. */
    StepPlan compilePlan(bool sparse, bool checkpointing) const;

    /** Mirrors addLayerForward (names get " (recompute)" suffixed). */
    void compileLayerForward(StepPlan& plan, Stage stage,
                             bool recompute) const;

    /** Mirrors addLayerBackward. */
    void compileLayerBackward(StepPlan& plan) const;

    /** Mirrors addHead. */
    void compileHead(StepPlan& plan, Stage stage) const;

    /** Mirrors addOptimizer. */
    void compileOptimizer(StepPlan& plan) const;

    /** The interner in use: the registry's when attached, else ours. */
    StringInterner& interner() const
    {
        return registry_ ? registry_->names() : names_;
    }

    ModelSpec spec_;
    std::shared_ptr<PlanRegistry> registry_;

    /** One lazily-resolved plan per (sparse, checkpointing) shape; the
     *  pointee is owned here or shared out of the registry. */
    struct PlanSlot {
        std::once_flag once;
        std::shared_ptr<const StepPlan> plan;
    };
    mutable std::array<PlanSlot, 4> plans_;
    mutable StringInterner names_;
    mutable std::atomic<std::uint32_t> plans_compiled_{0};
};

}  // namespace ftsim

#endif  // FTSIM_GPUSIM_WORKLOAD_HPP

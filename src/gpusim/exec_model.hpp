#ifndef FTSIM_GPUSIM_EXEC_MODEL_HPP
#define FTSIM_GPUSIM_EXEC_MODEL_HPP

/**
 * @file
 * Roofline-with-occupancy kernel execution model.
 *
 * Each kernel is timed as max(compute time, memory time) + launch cost,
 * where the compute rate is the kind-appropriate peak (tensor core for
 * GEMM/attention, vector ALU for everything else) scaled by an occupancy
 * factor derived from how many thread blocks the kernel exposes relative
 * to the SM count. This is deliberately simple — and it is sufficient to
 * produce every hardware-level observation the paper makes:
 *
 *  - SM utilization rises with batch size (more tiles -> occupancy);
 *  - time-weighted DRAM utilization falls with batch size (weights are
 *    loaded once per step, so the traffic amortizes: Takeaway 5's
 *    memory-bound -> compute-bound transition);
 *  - de-quantization kernels stay SM-busy independent of batch size
 *    (their parallelism comes from the weight matrix, not the batch);
 *  - matmul dominates the MoE layer and saturates sub-linearly.
 *
 * A SimCalibration bundles the software-stack constants (framework
 * dispatch overhead per kernel, achievable-fraction-of-peak derates).
 * These are the analogue of the paper's fitted coefficients: they absorb
 * everything the structural model does not capture.
 */

#include "gpusim/gpu_spec.hpp"
#include "gpusim/kernel.hpp"

namespace ftsim {

/** Software-stack calibration constants (see file comment). */
struct SimCalibration {
    /** Host-side framework dispatch per kernel launch, microseconds
     *  (eager PyTorch + LLaMA-Factory glue). */
    double hostOverheadUs = 30.0;
    /**
     * Fraction of tensor peak a well-shaped GEMM achieves. Calibrated to
     * the paper's measured throughputs: eager PyTorch + bitsandbytes on
     * skinny fine-tuning GEMMs lands near ~12% of the dense tensor peak
     * (back-solved from Fig. 8's marginal per-query step costs).
     */
    double matmulEfficiency = 0.20;
    /** Fraction of vector peak elementwise kernels achieve. */
    double vectorEfficiency = 0.75;
    /**
     * Fraction of vector peak the 4-bit de-quantization kernels achieve.
     * NF4 unpacking is integer/LUT work, far from FMA peak; the low rate
     * is what keeps these kernels SM-bound at every batch size (Fig. 9).
     */
    double dequantEfficiency = 0.22;
    /** Fraction of DRAM peak streaming kernels achieve. */
    double memoryEfficiency = 0.80;
    /** Thread blocks per SM for full occupancy. */
    double blocksPerSm = 2.0;
    /** Occupancy floor (one lonely block still runs). */
    double minOccupancy = 0.02;
    /** Per-step host time (dataloader, logging), milliseconds. */
    double stepOverheadMs = 50.0;
    /** Optimizer passes over state per step (unfused AdamW). */
    double optimizerPasses = 4.0;
};

/** Times kernels against a GPU spec. */
class ExecutionModel {
  public:
    ExecutionModel(const GpuSpec& gpu, const SimCalibration& calib = {});

    /** Simulates one kernel descriptor (all its `count` launches). */
    KernelMetrics simulate(const KernelDesc& kernel) const;

    /**
     * Simulates from raw fields — the compiled-plan hot path, which
     * stores kernels as SoA arrays and never materializes a KernelDesc.
     * Identical arithmetic to the descriptor overload (which delegates
     * here), so the two paths agree to the last bit.
     */
    KernelMetrics simulate(KernelKind kind, double flops, double bytes,
                           double tiles, double efficiency,
                           double count) const;

    /** The device being modelled. */
    const GpuSpec& gpu() const { return gpu_; }

    /** The calibration in effect. */
    const SimCalibration& calibration() const { return calib_; }

  private:
    /** Occupancy in (0, 1] from exposed tiles. */
    double occupancy(double tiles) const;

    /** Peak FLOP/s for a kernel kind at full occupancy. */
    double peakFlops(KernelKind kind) const;

    GpuSpec gpu_;
    SimCalibration calib_;
};

}  // namespace ftsim

#endif  // FTSIM_GPUSIM_EXEC_MODEL_HPP

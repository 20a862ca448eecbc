#ifndef FTSIM_GPUSIM_STEP_PLAN_HPP
#define FTSIM_GPUSIM_STEP_PLAN_HPP

/**
 * @file
 * Compiled step plans: the allocation-free representation of one
 * training step's kernel sequence.
 *
 * `WorkloadBuilder::buildStep` materializes a fresh
 * `std::vector<KernelDesc>` — every element carrying a `std::string`
 * name — on every call, so a 1..max_batch throughput sweep rebuilds the
 * identical kernel graph max_batch times. A `StepPlan` is that graph
 * compiled once per (model, config-shape): the batch-independent kernel
 * fields (interned name id, kind, layer class, stage, launch count) live
 * in SoA arrays, and each kernel carries a tiny `KernelFormula` that
 * holds the constants of its batch/seq-dependent FLOPs / bytes / tiles
 * terms. `evaluateSweep()` is the one evaluator: it writes any number
 * of (batch, seq) points — one for a single step — into caller-owned
 * reusable buffers, so the simulation hot path performs no heap
 * allocation at all.
 *
 * Bit-identity contract: `evaluateSweep` reproduces the exact
 * floating-point expressions (including evaluation order) of the
 * reference emission path in workload.cpp, and both paths share the
 * `ceilDivD` / `paddedRows` / `kActBytes` helpers below. The golden
 * tests in tests/gpusim/test_step_plan*.cpp pin the two paths equal to
 * the last bit.
 */

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/interner.hpp"
#include "gpusim/kernel.hpp"

namespace ftsim {

// ---- Shared arithmetic helpers (reference path + compiled path) ------

/** fp16 activation bytes per element. */
inline constexpr double kActBytes = 2.0;

/** Ceiling division on doubles. */
inline double
ceilDivD(double a, double b)
{
    return std::ceil(a / b);
}

/**
 * Rows padded to the 32-row tensor-core tile: a GEMM with m = 5 costs
 * the same as m = 32 (the hardware computes whole tiles), which is what
 * makes small-batch expert GEMMs inefficient and SM utilization low.
 */
inline double
paddedRows(double m)
{
    return ceilDivD(m, 32.0) * 32.0;
}

// ---- Per-kernel formulas ---------------------------------------------

/** Row-count source of a batch-dependent kernel. */
enum class RowsKind : std::uint8_t {
    Tokens,           ///< batch * seq.
    TokensPerExpert,  ///< tokens * active / experts.
};

/** Evaluation rule of one kernel's batch-dependent terms. */
enum class EvalKind : std::uint8_t {
    Fixed,      ///< Batch-independent (dequant, optimizer): precomputed.
    Gemm,       ///< Whole-tile GEMM accounting.
    Rowwise,    ///< Softmax/topk/norm/activation rows.
    Attention,  ///< Fused flash-attention (quadratic in seq).
    Conv,       ///< Depthwise causal conv1d.
    Scan,       ///< Selective scan (tiles scale with batch only).
    Lora,       ///< LoRA adapter GEMM pair.
};

/**
 * One kernel's FLOPs/bytes/tiles as a function of (batch, seq). The
 * five parameter slots are interpreted per `eval` (see the factory
 * functions); all model-derived constants are baked in at compile time
 * with the same expressions the reference emission uses.
 */
struct KernelFormula {
    EvalKind eval = EvalKind::Fixed;
    RowsKind rows = RowsKind::Tokens;
    double a = 0.0;
    double b = 0.0;
    double c = 0.0;
    double d = 0.0;
    double e = 0.0;

    /** Gemm: a=k, b=n, c=weightBytes, d=flopsScale, e=bytesExtra. */
    static KernelFormula gemm(RowsKind rows, double k, double n,
                              double weight_bytes, double flops_scale,
                              double bytes_extra);
    /** Rowwise: a=width, b=opsPerElement. */
    static KernelFormula rowwise(RowsKind rows, double width,
                                 double ops_per_element);
    /** Attention: a=flopsCoef, b=bytesCoef, c=dModel, d=heads. */
    static KernelFormula attention(double flops_coef, double bytes_coef,
                                   double d_model, double heads);
    /** Conv: a=flopsCoef, b=bytesCoef, c=dInner, d=convK. */
    static KernelFormula conv(double flops_coef, double bytes_coef,
                              double d_inner, double conv_k);
    /** Scan: a=flopsCoef, b=bytesCoef, c=dInner, d=tilesPerBatchRow. */
    static KernelFormula scan(double flops_coef, double bytes_coef,
                              double d_inner, double tiles_per_row);
    /** Lora: a=rank, b=d+dff, c=bytesTail (batch-independent term). */
    static KernelFormula lora(RowsKind rows, double rank, double d_sum,
                              double bytes_tail);
    /** Fixed: a=flops, b=bytes, c=tiles (batch-independent). */
    static KernelFormula fixed(double flops, double bytes, double tiles);
};

// ---- The compiled plan -----------------------------------------------

/**
 * Reusable buffers for `StepPlan::evaluateSweep`: the per-point inputs
 * plus kernel-major FLOPs/bytes/tiles planes. Element (kernel i,
 * sweep point j) lives at index `i * points() + j`, so the batch-inner
 * loops walk unit-stride memory. One set per thread suffices.
 */
struct SweepBuffers {
    // Per sweep point (batch 1..max in a full sweep).
    std::vector<double> batches;
    std::vector<double> seqs;
    std::vector<double> nTok;          ///< batch * seq.
    std::vector<double> tokPerExpert;  ///< nTok * active / experts.

    // Kernel-major planes, size() == n_kernels * points().
    std::vector<double> flops;
    std::vector<double> bytes;
    std::vector<double> tiles;

    /** Number of sweep points the buffers currently hold. */
    std::size_t points() const { return batches.size(); }

    void resize(std::size_t n_kernels, std::size_t n_points)
    {
        batches.resize(n_points);
        seqs.resize(n_points);
        nTok.resize(n_points);
        tokPerExpert.resize(n_points);
        flops.resize(n_kernels * n_points);
        bytes.resize(n_kernels * n_points);
        tiles.resize(n_kernels * n_points);
    }
};

/**
 * One compiled training step: SoA arrays of the batch-independent
 * kernel fields plus one formula per kernel. Kernels appear in the
 * exact order the reference `buildStep` emits them.
 */
struct StepPlan {
    /** Active experts under the plan's routing mode, as a double. */
    double activeExperts = 0.0;
    /** Total experts, as a double (tok_per_expert denominator). */
    double nExperts = 0.0;

    // Batch-independent per-kernel fields (SoA).
    std::vector<std::uint32_t> nameIds;  ///< Into the builder's interner.
    std::vector<KernelKind> kinds;
    std::vector<LayerClass> layers;
    std::vector<Stage> stages;
    std::vector<double> counts;
    std::vector<double> efficiencies;  ///< KernelDesc::efficiency mirror.
    std::vector<KernelFormula> formulas;

    // Precompiled aggregation structure for the profile fast path.
    /** Per kernel: index into moeAggNames, or -1 if not an MoE kernel. */
    std::vector<std::int32_t> moeSlot;
    /** Normalized MoE aggregate names, lexicographically ordered (the
     *  same order a std::map<std::string, ...> iterates in). */
    std::vector<std::string> moeAggNames;
    /** Distinct layer classes present, ascending enum order (the same
     *  order a std::map<LayerClass, ...> iterates in). */
    std::vector<LayerClass> layersPresent;

    /** Number of kernels in the plan. */
    std::size_t size() const { return formulas.size(); }

    /** Appends one kernel. @p efficiency mirrors KernelDesc's default;
     *  an emission that sets a non-default value must pass it here so
     *  the compiled path stays bit-identical to the reference. */
    void push(std::uint32_t name_id, KernelKind kind, LayerClass layer,
              Stage stage, double count, const KernelFormula& formula,
              double efficiency = 1.0);

    /** Builds moeSlot / moeAggNames / layersPresent; call once after
     *  the last push(). */
    void finalize(const StringInterner& names);

    /**
     * Evaluates every kernel at all @p n_points (batch, seq) points in
     * one pass; a single step is the one-point sweep. @p batches and
     * @p seqs are parallel arrays (a full sweep pads the sequence
     * length per batch, so seq varies along the sweep). The loops run
     * kernel-outer / point-inner with the per-kernel formula dispatch
     * hoisted out of the inner loop, so each EvalKind body is a
     * straight-line loop over contiguous arrays that the compiler can
     * auto-vectorize. Bit-identity contract: point j of the output
     * planes equals the `KernelDesc` fields the reference `buildStep`
     * emits at (batches[j], seqs[j]) to the last bit — the per-kind
     * expressions are the reference terms in the same order, and this
     * TU is compiled with `-ffp-contract=off` so no FMA contraction can
     * perturb a lane. Fatal on a zero batch or sequence length.
     */
    void evaluateSweep(const std::size_t* batches, const std::size_t* seqs,
                       std::size_t n_points, SweepBuffers& out) const;
};

}  // namespace ftsim

#endif  // FTSIM_GPUSIM_STEP_PLAN_HPP

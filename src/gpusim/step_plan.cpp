#include "gpusim/step_plan.hpp"

#include <algorithm>
#include <map>

#include "common/logging.hpp"

namespace ftsim {

KernelFormula
KernelFormula::gemm(RowsKind rows, double k, double n, double weight_bytes,
                    double flops_scale, double bytes_extra)
{
    KernelFormula f;
    f.eval = EvalKind::Gemm;
    f.rows = rows;
    f.a = k;
    f.b = n;
    f.c = weight_bytes;
    f.d = flops_scale;
    f.e = bytes_extra;
    return f;
}

KernelFormula
KernelFormula::rowwise(RowsKind rows, double width, double ops_per_element)
{
    KernelFormula f;
    f.eval = EvalKind::Rowwise;
    f.rows = rows;
    f.a = width;
    f.b = ops_per_element;
    return f;
}

KernelFormula
KernelFormula::attention(double flops_coef, double bytes_coef,
                         double d_model, double heads)
{
    KernelFormula f;
    f.eval = EvalKind::Attention;
    f.a = flops_coef;
    f.b = bytes_coef;
    f.c = d_model;
    f.d = heads;
    return f;
}

KernelFormula
KernelFormula::conv(double flops_coef, double bytes_coef, double d_inner,
                    double conv_k)
{
    KernelFormula f;
    f.eval = EvalKind::Conv;
    f.a = flops_coef;
    f.b = bytes_coef;
    f.c = d_inner;
    f.d = conv_k;
    return f;
}

KernelFormula
KernelFormula::scan(double flops_coef, double bytes_coef, double d_inner,
                    double tiles_per_row)
{
    KernelFormula f;
    f.eval = EvalKind::Scan;
    f.a = flops_coef;
    f.b = bytes_coef;
    f.c = d_inner;
    f.d = tiles_per_row;
    return f;
}

KernelFormula
KernelFormula::lora(RowsKind rows, double rank, double d_sum,
                    double bytes_tail)
{
    KernelFormula f;
    f.eval = EvalKind::Lora;
    f.rows = rows;
    f.a = rank;
    f.b = d_sum;
    f.c = bytes_tail;
    return f;
}

KernelFormula
KernelFormula::fixed(double flops, double bytes, double tiles)
{
    KernelFormula f;
    f.eval = EvalKind::Fixed;
    f.a = flops;
    f.b = bytes;
    f.c = tiles;
    return f;
}

void
StepPlan::push(std::uint32_t name_id, KernelKind kind, LayerClass layer,
               Stage stage, double count, const KernelFormula& formula,
               double efficiency)
{
    nameIds.push_back(name_id);
    kinds.push_back(kind);
    layers.push_back(layer);
    stages.push_back(stage);
    counts.push_back(count);
    efficiencies.push_back(efficiency);
    formulas.push_back(formula);
}

void
StepPlan::finalize(const StringInterner& names)
{
    // MoE aggregation slots: lexicographic name order reproduces the
    // iteration order of the std::map the reference profile path uses.
    std::map<std::string, std::int32_t> slot_of;
    for (std::size_t i = 0; i < size(); ++i)
        if (layers[i] == LayerClass::MoE)
            slot_of.emplace(normalizeKernelName(names.name(nameIds[i])),
                            0);
    moeAggNames.clear();
    moeAggNames.reserve(slot_of.size());
    for (auto& [name, slot] : slot_of) {
        slot = static_cast<std::int32_t>(moeAggNames.size());
        moeAggNames.push_back(name);
    }
    moeSlot.assign(size(), -1);
    for (std::size_t i = 0; i < size(); ++i)
        if (layers[i] == LayerClass::MoE)
            moeSlot[i] =
                slot_of[normalizeKernelName(names.name(nameIds[i]))];

    // Distinct layer classes in ascending enum order (map iteration
    // order of the reference path).
    layersPresent.clear();
    for (LayerClass layer : layers)
        if (std::find(layersPresent.begin(), layersPresent.end(),
                      layer) == layersPresent.end())
            layersPresent.push_back(layer);
    std::sort(layersPresent.begin(), layersPresent.end(),
              [](LayerClass x, LayerClass y) {
                  return static_cast<std::uint8_t>(x) <
                         static_cast<std::uint8_t>(y);
              });
}

void
StepPlan::evaluateSweep(const std::size_t* batches,
                        const std::size_t* seqs, std::size_t n_points,
                        SweepBuffers& out) const
{
    const std::size_t n = size();
    out.resize(n, n_points);

    // Per-point inputs, hoisted once for the whole sweep. The
    // tok_per_expert expression keeps the reference multiply-then-divide
    // order.
    for (std::size_t j = 0; j < n_points; ++j) {
        if (batches[j] == 0 || seqs[j] == 0)
            fatal("WorkloadBuilder: zero batch or sequence length");
        const double b = static_cast<double>(batches[j]);
        const double s = static_cast<double>(seqs[j]);
        out.batches[j] = b;
        out.seqs[j] = s;
        out.nTok[j] = b * s;
        out.tokPerExpert[j] = out.nTok[j] * activeExperts / nExperts;
    }

    // Kernel-outer / point-inner: one formula dispatch per kernel, then
    // a straight-line loop over contiguous lanes. Every expression
    // below replicates the reference emission in workload.cpp
    // term-for-term in the same evaluation order — the bit-identity
    // contract (this TU is built with -ffp-contract=off so no lane
    // picks up an FMA).
    const double* n_tok = out.nTok.data();
    for (std::size_t i = 0; i < n; ++i) {
        const KernelFormula& f = formulas[i];
        double* F = out.flops.data() + i * n_points;
        double* B = out.bytes.data() + i * n_points;
        double* T = out.tiles.data() + i * n_points;
        const double* M = f.rows == RowsKind::Tokens
                              ? out.nTok.data()
                              : out.tokPerExpert.data();
        switch (f.eval) {
          case EvalKind::Fixed:
            for (std::size_t j = 0; j < n_points; ++j) {
                F[j] = f.a;
                B[j] = f.b;
                T[j] = f.c;
            }
            break;
          case EvalKind::Gemm:
            // gemm(): 2 * paddedRows(m) * k * n, optionally scaled for
            // full-FT dX+dW; activation traffic + weight read (+
            // gradient write when full-FT).
            for (std::size_t j = 0; j < n_points; ++j) {
                const double m = M[j];
                double flops = 2.0 * paddedRows(m) * f.a * f.b;
                flops *= f.d;
                double bytes = kActBytes * (m * f.a + m * f.b) + f.c;
                bytes += f.e;
                F[j] = flops;
                B[j] = bytes;
                T[j] = ceilDivD(m, 32.0) * ceilDivD(f.b, 128.0);
            }
            break;
          case EvalKind::Rowwise:
            // rowwise(): ops * rows * width; read + write.
            for (std::size_t j = 0; j < n_points; ++j) {
                const double m = M[j];
                F[j] = f.b * m * f.a;
                B[j] = 2.0 * kActBytes * m * f.a;
                T[j] = m;
            }
            break;
          case EvalKind::Attention:
            for (std::size_t j = 0; j < n_points; ++j) {
                F[j] = f.a * n_tok[j] * out.seqs[j] * f.c;
                B[j] = f.b * kActBytes * n_tok[j] * f.c;
                T[j] = out.batches[j] * f.d * ceilDivD(out.seqs[j], 64.0);
            }
            break;
          case EvalKind::Conv:
            for (std::size_t j = 0; j < n_points; ++j) {
                F[j] = f.a * n_tok[j] * f.c * f.d;
                B[j] = f.b * kActBytes * n_tok[j] * f.c;
                T[j] = ceilDivD(n_tok[j] * f.c, 4096.0);
            }
            break;
          case EvalKind::Scan:
            for (std::size_t j = 0; j < n_points; ++j) {
                F[j] = f.a * n_tok[j] * f.c;
                B[j] = f.b * kActBytes * n_tok[j] * f.c;
                T[j] = out.batches[j] * f.d;
            }
            break;
          case EvalKind::Lora:
            for (std::size_t j = 0; j < n_points; ++j) {
                const double m = M[j];
                F[j] = paddedRows(m) * f.a * f.b;
                B[j] = kActBytes * m * f.b / 2.0 + f.c;
                T[j] = ceilDivD(m, 32.0);
            }
            break;
        }
    }
}

}  // namespace ftsim

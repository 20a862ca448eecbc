#include "gpusim/exec_model.hpp"

#include <algorithm>
#include <cmath>

#include "common/logging.hpp"

namespace ftsim {

ExecutionModel::ExecutionModel(const GpuSpec& gpu,
                               const SimCalibration& calib)
    : gpu_(gpu), calib_(calib)
{
    if (gpu_.numSms <= 0 || gpu_.tensorTflops <= 0.0 ||
        gpu_.dramGBps <= 0.0)
        fatal("ExecutionModel: incomplete GPU spec");
}

double
ExecutionModel::occupancy(double tiles) const
{
    const double full =
        static_cast<double>(gpu_.numSms) * calib_.blocksPerSm;
    return std::clamp(tiles / full, calib_.minOccupancy, 1.0);
}

double
ExecutionModel::peakFlops(KernelKind kind) const
{
    switch (kind) {
      case KernelKind::MatMul:
      case KernelKind::Attention:
        return gpu_.tensorTflops * 1e12 * calib_.matmulEfficiency;
      case KernelKind::Dequant:
        return gpu_.vectorTflops * 1e12 * calib_.dequantEfficiency;
      default:
        return gpu_.vectorTflops * 1e12 * calib_.vectorEfficiency;
    }
}

KernelMetrics
ExecutionModel::simulate(const KernelDesc& kernel) const
{
    return simulate(kernel.kind, kernel.flops, kernel.bytes, kernel.tiles,
                    kernel.efficiency, kernel.count);
}

KernelMetrics
ExecutionModel::simulate(KernelKind kind, double flops, double bytes,
                         double tiles, double efficiency,
                         double count) const
{
    if (count <= 0.0)
        fatal("ExecutionModel::simulate: non-positive launch count");

    const double occ = occupancy(tiles);
    const double eff = std::clamp(efficiency, 1e-3, 1.0);
    const double compute_rate = peakFlops(kind) * occ * eff;
    // A handful of thread blocks already saturates DRAM bandwidth
    // (real kernels re-tile to stay occupied); only genuinely tiny
    // launches fall off the saturated rate.
    const double mem_occ = std::min(1.0, tiles / 12.0);
    const double mem_rate = gpu_.dramGBps * 1e9 *
                            calib_.memoryEfficiency *
                            std::max(mem_occ, 0.1);

    const double t_compute = flops > 0.0 ? flops / compute_rate : 0.0;
    const double t_mem = bytes > 0.0 ? bytes / mem_rate : 0.0;
    const double device_time = std::max(t_compute, t_mem);
    const double overhead =
        (gpu_.launchUs + calib_.hostOverheadUs) * 1e-6;

    KernelMetrics metrics;
    metrics.memoryBound = t_mem > t_compute;
    metrics.seconds = (device_time + overhead) * count;
    if (device_time > 0.0) {
        metrics.achievedFlops = flops / device_time;
        // SM% ~ how busy the compute pipes are while the kernel runs:
        // occupancy when compute-bound, scaled down by the fraction of
        // time compute actually limits when memory-bound.
        metrics.smUtilPct =
            100.0 * occ * eff *
            (device_time > 0.0 ? t_compute / device_time : 0.0);
        // DRAM% ~ achieved bandwidth vs peak.
        metrics.dramUtilPct =
            100.0 * (bytes / device_time) / (gpu_.dramGBps * 1e9);
        metrics.dramUtilPct = std::min(metrics.dramUtilPct, 100.0);
        metrics.smUtilPct = std::min(metrics.smUtilPct, 100.0);
    }
    return metrics;
}

}  // namespace ftsim

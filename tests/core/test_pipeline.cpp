/**
 * @file
 * Tests for the paper's experiment recipes (Fig. 13-15 / Table IV) run
 * through the Planner: sweep, fit, validate with RMSE, then price.
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "core/planner.hpp"

namespace ftsim {
namespace {

/** The sweep scenario of one Fig. 14/15 panel. */
Scenario
sweepScenario(const ModelSpec& model, std::size_t seq_len,
              double length_sigma = Scenario::kDefaultLengthSigma)
{
    return Scenario{}
        .withModel(model)
        .withMedianSeqLen(seq_len)
        .withLengthSigma(length_sigma);
}

double
maxQps(const ThroughputFit& fit)
{
    double max_qps = 0.0;
    for (const auto& obs : fit.observations)
        max_qps = std::max(max_qps, obs.qps);
    return max_qps;
}

TEST(Pipeline, BatchSizeDataCoversSweep)
{
    Planner planner(Scenario::gsMath());
    Result<std::vector<BatchSizeObservation>> data =
        planner.batchSizeSweep(GpuSpec::paperGpus(), {79, 174});
    ASSERT_TRUE(data.ok());
    // 4 GPUs x 2 seqs x {dense, sparse}.
    EXPECT_EQ(data.value().size(), 16u);
    for (const auto& obs : data.value()) {
        EXPECT_GT(obs.gpuMemGB, 0.0);
        EXPECT_GE(obs.maxBatch, 0);
    }
}

TEST(Pipeline, BatchSizeFitIsAccurate)
{
    // Fig. 13: Eq. 1 fitted on the simulator's ground truth tracks it.
    Planner planner(Scenario::gsMath());
    Result<BatchSizeFit> fit =
        planner.fitBatchSize(GpuSpec::paperGpus(), {79, 128, 148, 174});
    ASSERT_TRUE(fit.ok());
    EXPECT_LT(fit.value().rmse, 1.5);
    EXPECT_GT(fit.value().model.c0(), 0.0);
    EXPECT_GE(fit.value().model.c1(), 0.0);
    EXPECT_LE(fit.value().model.c1(), 1.0);
}

TEST(Pipeline, BatchSizeProjectionGrowsWithCapacity)
{
    // The Fig. 13 projection to hypothetical 100 / 120 GB GPUs.
    Planner planner(Scenario::gsMath());
    Result<BatchSizeFit> fit =
        planner.fitBatchSize(GpuSpec::paperGpus(), {148});
    ASSERT_TRUE(fit.ok());
    const MaxBatchModel& model = fit.value().model;
    const double model_mem =
        ModelSpec::mixtral8x7b().weightMemoryBytes() / 1e9;
    int at100 = model.predict(100.0, model_mem, 148.0, 0.25);
    int at120 = model.predict(120.0, model_mem, 148.0, 0.25);
    int at48 = model.predict(48.0, model_mem, 148.0, 0.25);
    EXPECT_GT(at100, at48);
    EXPECT_GT(at120, at100);
}

TEST(Pipeline, ThroughputDataHasDenseAndSparse)
{
    Planner planner(sweepScenario(ModelSpec::blackMamba2p8b(), 79));
    Result<std::vector<ThroughputObservation>> data =
        planner.throughputObservations(GpuSpec::a40());
    ASSERT_TRUE(data.ok());
    bool dense = false, sparse = false;
    for (const auto& obs : data.value()) {
        dense |= obs.sparsity == 1.0;
        sparse |= obs.sparsity == 0.25;
        EXPECT_GT(obs.qps, 0.0);
    }
    EXPECT_TRUE(dense);
    EXPECT_TRUE(sparse);
}

TEST(Pipeline, ThroughputFitMeetsPaperRmseBudget)
{
    // Fig. 14: the paper reports RMSE 0.02-0.79 across the four A40
    // combos, i.e. always below ~6% of the peak throughput. Hold this
    // reproduction to the same *relative* bar (its absolute qps scale
    // differs from the authors' testbed).
    for (bool mixtral : {true, false}) {
        ModelSpec spec = mixtral ? ModelSpec::mixtral8x7b()
                                 : ModelSpec::blackMamba2p8b();
        for (std::size_t seq : {79u, 174u}) {
            const double sigma = seq == 79 ? 0.45 : 0.40;
            Planner planner(sweepScenario(spec, seq, sigma));
            Result<ThroughputFit> fit =
                planner.fitThroughput(GpuSpec::a40());
            ASSERT_TRUE(fit.ok()) << spec.name << " seq " << seq;
            EXPECT_LT(fit.value().rmse,
                      std::max(0.8, 0.08 * maxQps(fit.value())))
                << spec.name << " seq " << seq;
        }
    }
}

TEST(Pipeline, ThroughputFitAcrossGpus)
{
    // Fig. 15: Mixtral on the CS dataset (median 79), validated on
    // A100-40GB, A100-80GB, and H100 — paper RMSE <= 0.55.
    Planner planner(sweepScenario(ModelSpec::mixtral8x7b(), 79, 0.45));
    for (const GpuSpec& gpu :
         {GpuSpec::a100_40(), GpuSpec::a100_80(), GpuSpec::h100_80()}) {
        Result<ThroughputFit> fit = planner.fitThroughput(gpu);
        ASSERT_TRUE(fit.ok()) << gpu.name;
        EXPECT_LT(fit.value().rmse,
                  std::max(0.6, 0.08 * maxQps(fit.value())))
            << gpu.name;
    }
}

TEST(Pipeline, CostTableRanksH100Cheapest)
{
    // Table IV: H100 wins end-to-end cost despite the highest rate.
    Planner planner(Scenario::gsMath());
    Result<std::vector<CostRow>> rows =
        planner.costTable(GpuSpec::paperGpus());
    ASSERT_TRUE(rows.ok());
    ASSERT_GE(rows.value().size(), 3u);
    const CostRow* h100 = nullptr;
    for (const auto& row : rows.value())
        if (row.gpuName == "H100")
            h100 = &row;
    ASSERT_NE(h100, nullptr);
    for (const auto& row : rows.value())
        EXPECT_LE(h100->totalDollars, row.totalDollars) << row.gpuName;
}

TEST(Pipeline, CostTableSkipsUnpricedGpus)
{
    // A100-40GB is not in the CUDO list; it must be absent.
    Planner planner(Scenario::gsMath());
    Result<std::vector<CostRow>> rows =
        planner.costTable(GpuSpec::paperGpus());
    ASSERT_TRUE(rows.ok());
    for (const auto& row : rows.value())
        EXPECT_NE(row.gpuName, "A100-40GB");
}

TEST(Pipeline, EmptySweepIsAnError)
{
    Planner planner(Scenario::gsMath());
    EXPECT_EQ(planner.batchSizeSweep({}, {128}).code(),
              ErrorCode::EmptySweep);
}

}  // namespace
}  // namespace ftsim

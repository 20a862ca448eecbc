/**
 * @file
 * Cross-configuration property sweeps over the simulator and analytical
 * models: invariants that must hold for EVERY (model, GPU, sparsity,
 * sequence length) combination, not just the paper's configurations.
 */

#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/planner.hpp"
#include "gpusim/finetune_sim.hpp"
#include "gpusim/memory_model.hpp"

namespace ftsim {
namespace {

/** (mixtral?, gpu index, sparse?, seq len). */
using Config = std::tuple<bool, int, bool, std::size_t>;

ModelSpec
modelOf(const Config& c)
{
    return std::get<0>(c) ? ModelSpec::mixtral8x7b()
                          : ModelSpec::blackMamba2p8b();
}

GpuSpec
gpuOf(const Config& c)
{
    return GpuSpec::paperGpus()[static_cast<std::size_t>(std::get<1>(c))];
}

class SimSweep : public ::testing::TestWithParam<Config> {};

TEST_P(SimSweep, StepTimeIsMonotonicInBatch)
{
    const Config& c = GetParam();
    FineTuneSim sim(modelOf(c), gpuOf(c));
    double prev = 0.0;
    for (std::size_t batch : {1u, 2u, 4u, 8u, 16u}) {
        RunConfig config;
        config.batchSize = batch;
        config.seqLen = std::get<3>(c);
        config.sparse = std::get<2>(c);
        double t = sim.stepSeconds(config);
        EXPECT_GE(t, prev) << "batch " << batch;
        prev = t;
    }
}

TEST_P(SimSweep, StepTimeIsMonotonicInSeqLen)
{
    const Config& c = GetParam();
    FineTuneSim sim(modelOf(c), gpuOf(c));
    double prev = 0.0;
    for (std::size_t seq : {32u, 64u, 128u, 256u}) {
        RunConfig config;
        config.batchSize = 4;
        config.seqLen = seq;
        config.sparse = std::get<2>(c);
        double t = sim.stepSeconds(config);
        EXPECT_GE(t, prev) << "seq " << seq;
        prev = t;
    }
}

TEST_P(SimSweep, DenseNeverFasterThanSparse)
{
    const Config& c = GetParam();
    FineTuneSim sim(modelOf(c), gpuOf(c));
    for (std::size_t batch : {1u, 4u, 16u}) {
        RunConfig sparse_cfg;
        sparse_cfg.batchSize = batch;
        sparse_cfg.seqLen = std::get<3>(c);
        sparse_cfg.sparse = true;
        RunConfig dense_cfg = sparse_cfg;
        dense_cfg.sparse = false;
        EXPECT_LE(sim.stepSeconds(sparse_cfg),
                  sim.stepSeconds(dense_cfg) * 1.001)
            << "batch " << batch;
    }
}

TEST_P(SimSweep, ProfileTotalsAreConsistent)
{
    const Config& c = GetParam();
    FineTuneSim sim(modelOf(c), gpuOf(c));
    RunConfig config;
    config.batchSize = 4;
    config.seqLen = std::get<3>(c);
    config.sparse = std::get<2>(c);
    StepProfile p = sim.profileStep(config);
    EXPECT_GT(p.forwardSeconds, 0.0);
    EXPECT_GT(p.backwardSeconds, 0.0);
    EXPECT_GT(p.optimizerSeconds, 0.0);
    double layer_total = 0.0;
    for (const auto& layer : p.byLayer)
        layer_total += layer.seconds;
    EXPECT_NEAR(layer_total,
                p.forwardSeconds + p.backwardSeconds + p.optimizerSeconds,
                1e-9);
    // Utilizations bounded on every configuration.
    for (const auto& k : p.moeKernels) {
        EXPECT_GE(k.smUtilPct, 0.0);
        EXPECT_LE(k.smUtilPct, 100.0);
        EXPECT_GE(k.dramUtilPct, 0.0);
        EXPECT_LE(k.dramUtilPct, 100.0);
    }
}

TEST_P(SimSweep, MaxBatchRespectsCapacityOrdering)
{
    // Bigger-memory GPUs never fit fewer queries (same compute family
    // assumption does not matter for the memory model).
    const Config& c = GetParam();
    const ModelSpec model = modelOf(c);
    const std::size_t seq = std::get<3>(c);
    const bool sparse = std::get<2>(c);
    const int at40 = MemoryModel::maxBatchSize(model, GpuSpec::a100_40(),
                                               seq, sparse);
    const int at48 =
        MemoryModel::maxBatchSize(model, GpuSpec::a40(), seq, sparse);
    const int at80 = MemoryModel::maxBatchSize(model, GpuSpec::a100_80(),
                                               seq, sparse);
    EXPECT_LE(at40, at48);
    EXPECT_LE(at48, at80);
}

TEST_P(SimSweep, PaddingNeverIncreasesThroughput)
{
    const Config& c = GetParam();
    FineTuneSim sim(modelOf(c), gpuOf(c));
    const std::size_t seq = std::get<3>(c);
    const bool sparse = std::get<2>(c);
    for (std::size_t batch : {2u, 8u}) {
        EXPECT_LE(sim.throughput(batch, seq, sparse, 0.45),
                  sim.throughput(batch, seq, sparse, 0.0) * 1.001);
    }
}

std::string
configName(const ::testing::TestParamInfo<Config>& info)
{
    const Config& c = info.param;
    std::string name = std::get<0>(c) ? "Mixtral_" : "BlackMamba_";
    name += GpuSpec::paperGpus()[static_cast<std::size_t>(std::get<1>(c))]
                .name;
    name += std::get<2>(c) ? "_sparse" : "_dense";
    name += "_seq" + std::to_string(std::get<3>(c));
    for (char& ch : name)
        if (ch == '-')
            ch = '_';
    return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, SimSweep,
    ::testing::Combine(::testing::Bool(),              // model
                       ::testing::Values(0, 3),        // A40, H100
                       ::testing::Bool(),              // sparse
                       ::testing::Values(79u, 174u)),  // seq len
    configName);

// --- Analytical-model sweeps across every GPU --------------------------

class GpuSweep : public ::testing::TestWithParam<int> {};

TEST_P(GpuSweep, ThroughputFitHoldsOnEveryGpu)
{
    const GpuSpec gpu =
        GpuSpec::paperGpus()[static_cast<std::size_t>(GetParam())];
    // BlackMamba fits everywhere; Mixtral skips dense on A100-40GB
    // internally.
    Planner planner(Scenario{}
                        .withModel(ModelSpec::blackMamba2p8b())
                        .withMedianSeqLen(79)
                        .withLengthSigma(0.45));
    Result<ThroughputFit> fit_r = planner.fitThroughput(gpu);
    ASSERT_TRUE(fit_r.ok()) << gpu.name;
    const ThroughputFit& fit = fit_r.value();
    double max_qps = 0.0;
    for (const auto& obs : fit.observations)
        max_qps = std::max(max_qps, obs.qps);
    EXPECT_LT(fit.rmse, std::max(0.8, 0.10 * max_qps)) << gpu.name;
    // C2 > 0: throughput must grow with batch on every device.
    EXPECT_GT(fit.model.c2(), 0.0) << gpu.name;
}

INSTANTIATE_TEST_SUITE_P(AllGpus, GpuSweep, ::testing::Values(0, 1, 2, 3),
                         [](const ::testing::TestParamInfo<int>& info) {
                             std::string n =
                                 GpuSpec::paperGpus()
                                     [static_cast<std::size_t>(info.param)]
                                         .name;
                             for (char& ch : n)
                                 if (ch == '-')
                                     ch = '_';
                             return n;
                         });

}  // namespace
}  // namespace ftsim

/**
 * @file
 * Golden tests for the vectorized sweep path: one
 * `StepPlan::evaluateSweep` pass must reproduce the reference emission
 * (`buildStep`, `profileStepReference`) and the per-batch compiled
 * profile path to the last bit, for every batch of every catalog
 * (model, GPU, seq) config. These tests are the multi-point half of
 * the bit-identity contract in step_plan.hpp.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/planner.hpp"
#include "gpusim/finetune_sim.hpp"
#include "gpusim/step_plan.hpp"
#include "gpusim/workload.hpp"

namespace ftsim {
namespace {

RunConfig
config(std::size_t batch, std::size_t seq, bool sparse, int ckpt)
{
    RunConfig c;
    c.batchSize = batch;
    c.seqLen = seq;
    c.sparse = sparse;
    c.gradientCheckpointing = ckpt;
    return c;
}

void
expectProfilesBitIdentical(const StepProfile& a, const StepProfile& b)
{
    EXPECT_EQ(a.forwardSeconds, b.forwardSeconds);
    EXPECT_EQ(a.backwardSeconds, b.backwardSeconds);
    EXPECT_EQ(a.optimizerSeconds, b.optimizerSeconds);
    EXPECT_EQ(a.overheadSeconds, b.overheadSeconds);
    EXPECT_EQ(a.stepSeconds, b.stepSeconds);
    EXPECT_EQ(a.throughputQps, b.throughputQps);
    EXPECT_EQ(a.kernelLaunches, b.kernelLaunches);
    EXPECT_EQ(a.moeTimeWeightedSmPct, b.moeTimeWeightedSmPct);
    EXPECT_EQ(a.moeTimeWeightedDramPct, b.moeTimeWeightedDramPct);
    ASSERT_EQ(a.byLayer.size(), b.byLayer.size());
    for (std::size_t i = 0; i < b.byLayer.size(); ++i) {
        EXPECT_EQ(a.byLayer[i].layer, b.byLayer[i].layer) << i;
        EXPECT_EQ(a.byLayer[i].seconds, b.byLayer[i].seconds) << i;
    }
    ASSERT_EQ(a.moeKernels.size(), b.moeKernels.size());
    for (std::size_t i = 0; i < b.moeKernels.size(); ++i) {
        EXPECT_EQ(a.moeKernels[i].name, b.moeKernels[i].name) << i;
        EXPECT_EQ(a.moeKernels[i].seconds, b.moeKernels[i].seconds)
            << b.moeKernels[i].name;
        EXPECT_EQ(a.moeKernels[i].launches, b.moeKernels[i].launches)
            << b.moeKernels[i].name;
        EXPECT_EQ(a.moeKernels[i].flops, b.moeKernels[i].flops)
            << b.moeKernels[i].name;
        EXPECT_EQ(a.moeKernels[i].bytes, b.moeKernels[i].bytes)
            << b.moeKernels[i].name;
        EXPECT_EQ(a.moeKernels[i].smUtilPct, b.moeKernels[i].smUtilPct)
            << b.moeKernels[i].name;
        EXPECT_EQ(a.moeKernels[i].dramUtilPct,
                  b.moeKernels[i].dramUtilPct)
            << b.moeKernels[i].name;
    }
}

TEST(StepPlanSweep, EvaluateSweepMatchesReferenceEmission)
{
    // Every shape of both model families: one evaluateSweep pass over
    // a batch range with per-batch sequence lengths must equal the
    // KernelDesc fields the reference buildStep emits at each point,
    // column by column, bit for bit.
    for (bool mixtral : {true, false}) {
        const ModelSpec spec = mixtral ? ModelSpec::mixtral8x7b()
                                       : ModelSpec::blackMamba2p8b();
        WorkloadBuilder builder(spec);
        SweepBuffers buf;
        for (bool sparse : {false, true})
            for (int ckpt : {-1, 0, 1}) {
                const StepPlan& plan =
                    builder.stepPlan(config(1, 128, sparse, ckpt));
                // Batches 1..24 with seq varying per point, as a real
                // padded sweep does.
                std::vector<std::size_t> batches, seqs;
                for (std::size_t b = 1; b <= 24; ++b) {
                    batches.push_back(b);
                    seqs.push_back(64 + 13 * b);
                }
                plan.evaluateSweep(batches.data(), seqs.data(),
                                   batches.size(), buf);
                ASSERT_EQ(buf.points(), batches.size());
                for (std::size_t j = 0; j < batches.size(); ++j) {
                    const auto ref = builder.buildStep(
                        config(batches[j], seqs[j], sparse, ckpt));
                    ASSERT_EQ(plan.size(), ref.size());
                    for (std::size_t i = 0; i < ref.size(); ++i) {
                        const std::size_t at = i * buf.points() + j;
                        ASSERT_EQ(buf.flops[at], ref[i].flops)
                            << ref[i].name << " batch " << batches[j];
                        ASSERT_EQ(buf.bytes[at], ref[i].bytes)
                            << ref[i].name << " batch " << batches[j];
                        ASSERT_EQ(buf.tiles[at], ref[i].tiles)
                            << ref[i].name << " batch " << batches[j];
                    }
                }
            }
    }
}

TEST(StepPlanSweep, ProfileSweepMatchesCompiledAndReferencePaths)
{
    // The full catalog: every batch of every (model, GPU, seq) sweep
    // config, profiled three ways — vectorized profileSweep, per-batch
    // compiled profileStep, and the retained profileStepReference
    // oracle — must agree to the last bit.
    for (bool mixtral : {true, false}) {
        const ModelSpec spec = mixtral ? ModelSpec::mixtral8x7b()
                                       : ModelSpec::blackMamba2p8b();
        for (const GpuSpec& gpu : GpuSpec::paperGpus()) {
            FineTuneSim sim(spec, gpu);
            const std::vector<RunConfig> configs =
                sim.sweepConfigs(148, 0.4);
            const std::vector<StepProfile> sweep =
                sim.profileSweep(configs);
            ASSERT_EQ(sweep.size(), configs.size());
            for (std::size_t i = 0; i < configs.size(); ++i) {
                SCOPED_TRACE(spec.name + " on " + gpu.name +
                             " batch " +
                             std::to_string(configs[i].batchSize));
                expectProfilesBitIdentical(
                    sweep[i], sim.profileStep(configs[i]));
                expectProfilesBitIdentical(
                    sweep[i], sim.profileStepReference(configs[i]));
            }
        }
    }
}

TEST(StepPlanSweep, ProfileSweepGroupsMixedShapesCorrectly)
{
    // A grid that interleaves shapes (dense run then sparse run, as
    // sweepConfigs emits) must split into per-plan groups without
    // mixing columns up, and count one simulated step per config.
    FineTuneSim sim(ModelSpec::mixtral8x7b(), GpuSpec::a40());
    std::vector<RunConfig> configs;
    for (bool sparse : {false, true})
        for (std::size_t b = 1; b <= 5; ++b)
            configs.push_back(config(b, 100 + 7 * b, sparse, -1));
    const std::uint64_t before = sim.stepsSimulated();
    const std::vector<StepProfile> sweep = sim.profileSweep(configs);
    EXPECT_EQ(sim.stepsSimulated() - before, configs.size());
    ASSERT_EQ(sweep.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i)
        expectProfilesBitIdentical(sweep[i],
                                   sim.profileStep(configs[i]));
}

TEST(StepPlanSweep, RejectsDegenerateRanges)
{
    WorkloadBuilder builder(ModelSpec::mixtral8x7b());
    const StepPlan& plan = builder.stepPlan(config(1, 128, true, -1));
    SweepBuffers buf;
    // A zero batch or a zero sequence length at any point is fatal.
    const std::size_t batches[] = {1, 0};
    const std::size_t seqs[] = {128, 128};
    EXPECT_THROW(plan.evaluateSweep(batches, seqs, 2, buf), FatalError);
    const std::size_t ok_batches[] = {1, 2};
    const std::size_t zero_seqs[] = {128, 0};
    EXPECT_THROW(plan.evaluateSweep(ok_batches, zero_seqs, 2, buf),
                 FatalError);
}

TEST(StepPlanSweep, PlannerObservationsMatchPerBatchProfiles)
{
    // The planner's vectorized sweep must populate the step cache with
    // the same profiles the per-batch path computes, with exact
    // counter bookkeeping: misses == simulated == distinct configs,
    // and a later profileAt() on a sweep point is a pure hit.
    Planner planner(Scenario::gsMath());
    const GpuSpec gpu = GpuSpec::a40();
    auto obs = planner.throughputObservations(gpu);
    ASSERT_TRUE(obs.ok());
    const PlannerStats after_sweep = planner.stats();
    EXPECT_EQ(after_sweep.stepCacheMisses, obs.value().size());
    EXPECT_EQ(after_sweep.stepsSimulated, after_sweep.stepCacheMisses);

    FineTuneSim oracle(Scenario::gsMath().model, gpu,
                       Scenario::gsMath().calibration);
    const std::vector<RunConfig> jobs = oracle.sweepConfigs(
        Scenario::gsMath().medianSeqLen, Scenario::gsMath().lengthSigma);
    ASSERT_EQ(jobs.size(), obs.value().size());
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        EXPECT_EQ(obs.value()[i].qps,
                  oracle.profileStepReference(jobs[i]).throughputQps)
            << "batch " << jobs[i].batchSize;
    }

    // Sparse sweep points are cached: profileAt on one must not
    // simulate again.
    const std::size_t sparse_batch = jobs.back().batchSize;
    ASSERT_TRUE(planner.profileAt(gpu, sparse_batch).ok());
    const PlannerStats after_hit = planner.stats();
    EXPECT_EQ(after_hit.stepCacheHits, after_sweep.stepCacheHits + 1);
    EXPECT_EQ(after_hit.stepsSimulated, after_sweep.stepsSimulated);
}

}  // namespace
}  // namespace ftsim

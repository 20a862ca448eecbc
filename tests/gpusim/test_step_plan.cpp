/**
 * @file
 * Golden tests for the compiled-plan path: the StepPlan machinery must
 * reproduce the retained reference path (per-call buildStep) to the
 * last bit, across both model families, both routing modes, both
 * checkpointing settings, and a grid of batch/sequence shapes. These
 * tests are the enforcement arm of the bit-identity contract in
 * step_plan.hpp.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "common/logging.hpp"
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

/** The sweep grid shared by the golden tests. */
const std::size_t kBatches[] = {1, 5, 32};
const std::size_t kSeqLens[] = {79, 128, 311};
const bool kSparse[] = {false, true};
const int kCkpt[] = {-1, 0, 1};

void
expectProfilesBitIdentical(const StepProfile& plan, const StepProfile& ref)
{
    EXPECT_EQ(plan.forwardSeconds, ref.forwardSeconds);
    EXPECT_EQ(plan.backwardSeconds, ref.backwardSeconds);
    EXPECT_EQ(plan.optimizerSeconds, ref.optimizerSeconds);
    EXPECT_EQ(plan.overheadSeconds, ref.overheadSeconds);
    EXPECT_EQ(plan.stepSeconds, ref.stepSeconds);
    EXPECT_EQ(plan.throughputQps, ref.throughputQps);
    EXPECT_EQ(plan.kernelLaunches, ref.kernelLaunches);
    EXPECT_EQ(plan.moeTimeWeightedSmPct, ref.moeTimeWeightedSmPct);
    EXPECT_EQ(plan.moeTimeWeightedDramPct, ref.moeTimeWeightedDramPct);

    ASSERT_EQ(plan.byLayer.size(), ref.byLayer.size());
    for (std::size_t i = 0; i < ref.byLayer.size(); ++i) {
        EXPECT_EQ(plan.byLayer[i].layer, ref.byLayer[i].layer) << i;
        EXPECT_EQ(plan.byLayer[i].seconds, ref.byLayer[i].seconds) << i;
    }

    ASSERT_EQ(plan.moeKernels.size(), ref.moeKernels.size());
    for (std::size_t i = 0; i < ref.moeKernels.size(); ++i) {
        EXPECT_EQ(plan.moeKernels[i].name, ref.moeKernels[i].name) << i;
        EXPECT_EQ(plan.moeKernels[i].seconds, ref.moeKernels[i].seconds)
            << ref.moeKernels[i].name;
        EXPECT_EQ(plan.moeKernels[i].launches, ref.moeKernels[i].launches)
            << ref.moeKernels[i].name;
        EXPECT_EQ(plan.moeKernels[i].flops, ref.moeKernels[i].flops)
            << ref.moeKernels[i].name;
        EXPECT_EQ(plan.moeKernels[i].bytes, ref.moeKernels[i].bytes)
            << ref.moeKernels[i].name;
        EXPECT_EQ(plan.moeKernels[i].smUtilPct,
                  ref.moeKernels[i].smUtilPct)
            << ref.moeKernels[i].name;
        EXPECT_EQ(plan.moeKernels[i].dramUtilPct,
                  ref.moeKernels[i].dramUtilPct)
            << ref.moeKernels[i].name;
    }
}

TEST(StepPlan, PlanMirrorsReferenceKernelForKernel)
{
    // Structural golden test: the compiled plan lists exactly the
    // kernels buildStep emits — same order, names, tags, counts — and
    // evaluates to bit-identical flops/bytes/tiles.
    for (bool mixtral : {true, false}) {
        const ModelSpec spec = mixtral ? ModelSpec::mixtral8x7b()
                                       : ModelSpec::blackMamba2p8b();
        WorkloadBuilder builder(spec);
        SweepBuffers eval;
        for (bool sparse : kSparse)
            for (int ckpt : kCkpt)
                for (std::size_t batch : kBatches)
                    for (std::size_t seq : kSeqLens) {
                        const RunConfig c =
                            config(batch, seq, sparse, ckpt);
                        const auto ref = builder.buildStep(c);
                        const StepPlan& plan = builder.stepPlan(c);
                        plan.evaluateSweep(&batch, &seq, 1, eval);
                        ASSERT_EQ(plan.size(), ref.size()) << spec.name;
                        for (std::size_t i = 0; i < ref.size(); ++i) {
                            EXPECT_EQ(builder.kernelNames().name(
                                          plan.nameIds[i]),
                                      ref[i].name)
                                << i;
                            EXPECT_EQ(plan.kinds[i], ref[i].kind) << i;
                            EXPECT_EQ(plan.layers[i], ref[i].layer) << i;
                            EXPECT_EQ(plan.stages[i], ref[i].stage) << i;
                            EXPECT_EQ(plan.counts[i], ref[i].count) << i;
                            EXPECT_EQ(plan.efficiencies[i],
                                      ref[i].efficiency)
                                << i;
                            EXPECT_EQ(eval.flops[i], ref[i].flops)
                                << ref[i].name;
                            EXPECT_EQ(eval.bytes[i], ref[i].bytes)
                                << ref[i].name;
                            EXPECT_EQ(eval.tiles[i], ref[i].tiles)
                                << ref[i].name;
                        }
                    }
    }
}

TEST(StepPlan, ProfileMatchesReferenceBitForBit)
{
    // End-to-end golden test: the full StepProfile (stage seconds,
    // layer breakdown, MoE aggregates, utilizations, QPS) is identical
    // between the compiled-plan path and the retained reference path.
    for (bool mixtral : {true, false}) {
        const ModelSpec spec = mixtral ? ModelSpec::mixtral8x7b()
                                       : ModelSpec::blackMamba2p8b();
        FineTuneSim sim(spec, GpuSpec::a40());
        for (bool sparse : kSparse)
            for (int ckpt : kCkpt)
                for (std::size_t batch : kBatches)
                    for (std::size_t seq : kSeqLens) {
                        const RunConfig c =
                            config(batch, seq, sparse, ckpt);
                        expectProfilesBitIdentical(
                            sim.profileStep(c),
                            sim.profileStepReference(c));
                    }
    }
}

TEST(StepPlan, StepSecondsMatchesReferenceBitForBit)
{
    FineTuneSim sim(ModelSpec::mixtral8x7b(), GpuSpec::h100_80());
    for (std::size_t batch : kBatches)
        for (std::size_t seq : kSeqLens) {
            const RunConfig c = config(batch, seq, true, -1);
            EXPECT_EQ(sim.stepSeconds(c), sim.stepSecondsReference(c));
        }
}

TEST(StepPlan, CompiledOncePerShape)
{
    // A 1..N sweep must not recompile: the plan is keyed on the config
    // shape (sparse x checkpointing), not on batch or sequence length.
    WorkloadBuilder builder(ModelSpec::mixtral8x7b());
    EXPECT_EQ(builder.plansCompiled(), 0u);
    for (std::size_t b = 1; b <= 32; ++b)
        builder.stepPlan(config(b, 128, true, -1));
    EXPECT_EQ(builder.plansCompiled(), 1u);
    for (std::size_t seq : {64, 128, 256, 512})
        builder.stepPlan(config(4, seq, true, -1));
    EXPECT_EQ(builder.plansCompiled(), 1u);

    builder.stepPlan(config(1, 128, false, -1));  // New shape: dense.
    EXPECT_EQ(builder.plansCompiled(), 2u);
    builder.stepPlan(config(1, 128, true, 0));  // New shape: no ckpt.
    EXPECT_EQ(builder.plansCompiled(), 3u);
    // Explicit ckpt=1 aliases the strategy default for QLoRA.
    builder.stepPlan(config(1, 128, true, 1));
    EXPECT_EQ(builder.plansCompiled(), 3u);
}

TEST(StepPlan, InternerDeduplicatesAcrossShapes)
{
    // Shapes share kernel spellings; the interner must fold them.
    WorkloadBuilder builder(ModelSpec::mixtral8x7b());
    builder.stepPlan(config(1, 128, true, -1));
    const std::size_t after_one = builder.kernelNames().size();
    builder.stepPlan(config(1, 128, false, -1));
    // The dense plan introduces no new spellings.
    EXPECT_EQ(builder.kernelNames().size(), after_one);
}

TEST(StepPlan, EvaluateRejectsZeroShapes)
{
    WorkloadBuilder builder(ModelSpec::mixtral8x7b());
    const StepPlan& plan = builder.stepPlan(config(1, 128, true, -1));
    SweepBuffers eval;
    const std::size_t zero = 0;
    const std::size_t one = 1;
    const std::size_t seq = 128;
    EXPECT_THROW(plan.evaluateSweep(&zero, &seq, 1, eval), FatalError);
    EXPECT_THROW(plan.evaluateSweep(&one, &zero, 1, eval), FatalError);
}

TEST(StepPlan, MoeSlotsCoverExactlyMoeKernels)
{
    WorkloadBuilder builder(ModelSpec::blackMamba2p8b());
    const StepPlan& plan = builder.stepPlan(config(2, 128, true, -1));
    for (std::size_t i = 0; i < plan.size(); ++i) {
        if (plan.layers[i] == LayerClass::MoE) {
            ASSERT_GE(plan.moeSlot[i], 0);
            ASSERT_LT(static_cast<std::size_t>(plan.moeSlot[i]),
                      plan.moeAggNames.size());
            EXPECT_EQ(plan.moeAggNames[static_cast<std::size_t>(
                          plan.moeSlot[i])],
                      normalizeKernelName(builder.kernelNames().name(
                          plan.nameIds[i])));
        } else {
            EXPECT_EQ(plan.moeSlot[i], -1);
        }
    }
    // Aggregate names are unique and lexicographically ordered (the
    // reference path's std::map iteration order).
    for (std::size_t i = 1; i < plan.moeAggNames.size(); ++i)
        EXPECT_LT(plan.moeAggNames[i - 1], plan.moeAggNames[i]);
}

TEST(PlanRegistry, SharesOnePlanAcrossBuilders)
{
    auto registry = std::make_shared<PlanRegistry>();
    WorkloadBuilder first(ModelSpec::mixtral8x7b(), registry);
    WorkloadBuilder second(ModelSpec::mixtral8x7b(), registry);

    const RunConfig c = config(4, 128, true, 1);
    const StepPlan& a = first.stepPlan(c);
    const StepPlan& b = second.stepPlan(c);
    // Literally the same compiled object, not an equal copy.
    EXPECT_EQ(&a, &b);
    EXPECT_EQ(registry->plansCompiled(), 1u);
    EXPECT_EQ(registry->planHits(), 1u);
    // Exactly one of the builders did the compiling.
    EXPECT_EQ(first.plansCompiled() + second.plansCompiled(), 1u);
    // Name ids resolve through the one shared interner.
    EXPECT_EQ(&first.kernelNames(), &second.kernelNames());
    EXPECT_EQ(&first.kernelNames(), &registry->names());
}

TEST(PlanRegistry, DistinctModelsAndShapesDoNotAlias)
{
    auto registry = std::make_shared<PlanRegistry>();
    WorkloadBuilder mixtral(ModelSpec::mixtral8x7b(), registry);
    WorkloadBuilder mamba(ModelSpec::blackMamba2p8b(), registry);

    const StepPlan& sparse = mixtral.stepPlan(config(2, 64, true, 1));
    const StepPlan& dense = mixtral.stepPlan(config(2, 64, false, 1));
    const StepPlan& other = mamba.stepPlan(config(2, 64, true, 1));
    EXPECT_NE(&sparse, &dense);
    EXPECT_NE(&sparse, &other);
    EXPECT_EQ(registry->plansCompiled(), 3u);
}

TEST(PlanRegistry, RegistryBackedSimMatchesStandaloneBitExact)
{
    // Sharing plans must not change a single bit of any profile.
    auto registry = std::make_shared<PlanRegistry>();
    FineTuneSim shared(ModelSpec::mixtral8x7b(), GpuSpec::a40(), {},
                       registry);
    FineTuneSim standalone(ModelSpec::mixtral8x7b(), GpuSpec::a40());
    for (const RunConfig& c :
         {config(1, 128, true, 1), config(6, 256, false, 0)}) {
        const StepProfile a = shared.profileStep(c);
        const StepProfile b = standalone.profileStep(c);
        EXPECT_EQ(a.stepSeconds, b.stepSeconds);
        EXPECT_EQ(a.throughputQps, b.throughputQps);
        EXPECT_EQ(a.forwardSeconds, b.forwardSeconds);
        EXPECT_EQ(a.backwardSeconds, b.backwardSeconds);
    }
}

}  // namespace
}  // namespace ftsim

/**
 * @file
 * Integration tests: full pipelines across modules, mirroring the
 * paper's experiments end to end at miniature scale.
 */

#include <gtest/gtest.h>

#include "core/planner.hpp"
#include "data/batching.hpp"
#include "train/imbalance.hpp"
#include "train/pretrain.hpp"
#include "train/trainer.hpp"

namespace ftsim {
namespace {

MiniModelConfig
trainableMixtral()
{
    MiniModelConfig cfg = MiniModelConfig::miniMixtral();
    cfg.vocab = Vocab::kSize;
    cfg.dModel = 32;
    cfg.nLayers = 2;
    cfg.nHeads = 4;
    cfg.dFf = 64;
    cfg.nExperts = 8;
    cfg.topK = 2;
    cfg.loraRank = 4;
    return cfg;
}

Dataset
csTrainSet(std::size_t n = 96)
{
    DatasetSpec spec = DatasetSpec::commonsense15k();
    spec.numQueries = n;
    spec.medianSeqLen = 12.0;
    spec.lengthSigma = 0.25;
    return Dataset::generate(spec);
}

TEST(EndToEnd, SparseQloraFineTuningLearnsCommonsenseTask)
{
    // The Fig. 3 story at miniature scale, with the paper's full flow:
    // pre-train a dense base on generic text, quantize into QLoRA, then
    // fine-tune. Pre-trained accuracy starts low ("<25%" in §IV-A) and
    // climbs to a useful level within ten epochs.
    Dataset corpus = Dataset::generate(DatasetSpec::genericCorpus(256, 14.0));
    auto model = makePretrainedQlora(trainableMixtral(), corpus, 120, 16,
                                     3e-3, /*exclude_answers=*/false);
    Dataset train_set = csTrainSet(128);

    EvalResult before = evaluateExactMatch(*model, train_set, 16, 64);
    EXPECT_LT(before.exactMatch, 0.25);  // Pre-trained: low accuracy.

    AdamW opt(model->trainableParameters(), 8e-3);
    TrainerOptions options;
    options.batchSize = 16;
    Trainer trainer(*model, opt, options);
    for (int epoch = 0; epoch < 10; ++epoch)
        trainer.trainEpoch(train_set);
    EvalResult after = evaluateExactMatch(*model, train_set, 16, 64);

    EXPECT_GT(after.exactMatch, before.exactMatch + 0.25)
        << "before " << before.exactMatch << " after "
        << after.exactMatch;
    EXPECT_LT(after.meanLoss, before.meanLoss);
}

TEST(EndToEnd, FineTuningChangesExpertLoadDistribution)
{
    // The Fig. 11 direction: fine-tuning shifts the router's token
    // distribution (for the attention-MoE model it concentrates).
    MoeLlm model(trainableMixtral());
    Dataset train_set = csTrainSet(64);

    ExpertLoadProfile before = measureExpertLoad(model, train_set, 16);
    AdamW opt(model.trainableParameters(), 8e-3);
    TrainerOptions options;
    options.batchSize = 16;
    Trainer trainer(model, opt, options);
    for (int epoch = 0; epoch < 6; ++epoch)
        trainer.trainEpoch(train_set);
    ExpertLoadProfile after = measureExpertLoad(model, train_set, 16);

    // The distribution must move; we check it is not frozen in place.
    double moved = 0.0;
    for (std::size_t e = 0; e < before.avgTokensPerQuery.size(); ++e)
        moved += std::abs(after.avgTokensPerQuery[e] -
                          before.avgTokensPerQuery[e]);
    EXPECT_GT(moved, 1e-3);
}

TEST(EndToEnd, AnalyticalPipelineMatchesSimulatorThroughput)
{
    // §V validation loop: fit Eq. 2 on the simulator, then check that
    // predictions at held-out batch sizes stay close to the simulator.
    Planner planner(Scenario::gsMath());
    Result<ThroughputFit> fit = planner.fitThroughput(GpuSpec::a40());
    ASSERT_TRUE(fit.ok());
    // Interpolated, non-integer batch behaviour is smooth; check the
    // model at swept points directly.
    for (const auto& obs : fit.value().observations) {
        double predicted =
            fit.value().model.predict(obs.batchSize, obs.sparsity);
        EXPECT_NEAR(predicted, obs.qps, 0.8);
    }
}

TEST(EndToEnd, CostPipelineEndToEnd)
{
    // Table IV + OpenOrca projection recipe.
    Planner planner(Scenario::gsMath());
    Result<std::vector<CostRow>> rows =
        planner.costTable(GpuSpec::paperGpus());
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(rows.value().size(), 3u);  // A40, A100-80GB, H100 priced.
    for (const auto& row : rows.value()) {
        EXPECT_GT(row.maxBatchSize, 0);
        EXPECT_GT(row.throughputQps, 0.0);
        EXPECT_GT(row.totalDollars, 0.0);
        // Fine-tuning is orders cheaper than pre-training: sanity bound.
        EXPECT_LT(row.totalDollars, 10000.0);
    }
}

TEST(EndToEnd, DenseAndSparseConvergeToSimilarLoss)
{
    // Takeaway 1 at miniature scale: sparse top-2 routing trains about
    // as well as dense routing on the same task/seed.
    Dataset train_set = csTrainSet(64);

    auto final_loss = [&](std::size_t top_k) {
        MiniModelConfig cfg = trainableMixtral();
        cfg.topK = top_k;
        MoeLlm model(cfg);
        AdamW opt(model.trainableParameters(), 8e-3);
        TrainerOptions options;
        options.batchSize = 16;
        Trainer trainer(model, opt, options);
        double loss = 0.0;
        for (int epoch = 0; epoch < 6; ++epoch)
            loss = trainer.trainEpoch(train_set).meanLoss;
        return loss;
    };
    double sparse = final_loss(2);
    double dense = final_loss(8);
    EXPECT_NEAR(sparse, dense, 0.8);
}

}  // namespace
}  // namespace ftsim

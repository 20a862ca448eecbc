/**
 * @file
 * Tests for the one-call characterization report (`Planner::report`).
 */

#include <gtest/gtest.h>

#include "core/planner.hpp"

namespace ftsim {
namespace {

/** The report for @p scenario on @p gpu; empty when it failed. */
std::string
reportFor(const Scenario& scenario, const GpuSpec& gpu)
{
    Planner planner(scenario);
    Result<std::string> report = planner.report(gpu);
    EXPECT_TRUE(report.ok()) << report.error().describe();
    return report.valueOr("");
}

TEST(Report, ContainsEverySection)
{
    // Defaults: Mixtral on A40, GS-like dataset.
    std::string report = reportFor(Scenario::gsMath(), GpuSpec::a40());
    for (const char* expected :
         {"# Fine-tuning characterization", "## Memory",
          "maximum batch size: 4", "## Step breakdown", "matmul",
          "## Throughput (Eq. 2)", "## Cost", "GPU-hours"}) {
        EXPECT_NE(report.find(expected), std::string::npos) << expected;
    }
}

TEST(Report, BlackMambaVariant)
{
    std::string report = reportFor(Scenario{}
                                       .withModel(ModelSpec::blackMamba2p8b())
                                       .withMedianSeqLen(79)
                                       .withLengthSigma(0.45),
                                   GpuSpec::a40());
    EXPECT_NE(report.find("BlackMamba-2.8B"), std::string::npos);
    EXPECT_NE(report.find("maximum batch size: 20"), std::string::npos);
}

TEST(Report, UnpricedGpuStillReports)
{
    // A100-40GB is not in the CUDO catalog.
    std::string report = reportFor(Scenario{}
                                       .withModel(ModelSpec::blackMamba2p8b())
                                       .withMedianSeqLen(79),
                                   GpuSpec::a100_40());
    EXPECT_NE(report.find("no price listed"), std::string::npos);
}

TEST(Report, OversizedModelIsAnError)
{
    GpuSpec gpu = GpuSpec::a40();
    gpu.memGB = 24.0;  // Mixtral cannot fit.
    Planner planner(Scenario::gsMath());
    EXPECT_EQ(planner.report(gpu).code(), ErrorCode::DoesNotFit);
}

TEST(Report, DenseModeReportsSmallerBatch)
{
    std::string sparse_report =
        reportFor(Scenario::gsMath(), GpuSpec::a40());
    std::string dense_report =
        reportFor(Scenario::gsMath().withSparse(false), GpuSpec::a40());
    EXPECT_NE(sparse_report.find("maximum batch size: 4"),
              std::string::npos);
    EXPECT_NE(dense_report.find("maximum batch size: 1"),
              std::string::npos);
}

}  // namespace
}  // namespace ftsim

/**
 * @file
 * The packed request key (PlanRequest::canonicalKey / plannerKey)
 * against the key it replaced: the same fields spelled as decimal text
 * (`%.17g` doubles, a rebuilt ModelSpec::fingerprint()). That spelling
 * survives only here, as the oracle. Over both fuzz seed corpora, the
 * serve golden's requests and hand-picked edge cases, two requests
 * share a packed key iff their spelled keys were equal — so the answer
 * cache coalesces exactly what it coalesced before.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <fstream>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "serve/protocol.hpp"
#include "serve/wire.hpp"
#include "support/seed_corpus.hpp"

#ifndef FTSIM_SOURCE_DIR
#error "FTSIM_SOURCE_DIR must point at the repo root (set by CMake)"
#endif

namespace ftsim {
namespace {

void
putSpelledElem(std::string& key, const std::string& s)
{
    key += strCat(s.size(), ':', s);
}

/** The scenario key as decimal text: the oracle's half of the model. */
std::string
spelledScenarioKey(const Scenario& s)
{
    const SimCalibration& c = s.calibration;
    return strCat(s.model.fingerprint(), "|seq=", s.medianSeqLen,
                  "|sigma=", strExact(s.lengthSigma),
                  "|q=", strExact(s.numQueries),
                  "|ep=", strExact(s.epochs), "|sparse=", s.sparse,
                  "|cal=", strExact(c.hostOverheadUs), ',',
                  strExact(c.matmulEfficiency), ',',
                  strExact(c.vectorEfficiency), ',',
                  strExact(c.dequantEfficiency), ',',
                  strExact(c.memoryEfficiency), ',',
                  strExact(c.blocksPerSm), ',',
                  strExact(c.minOccupancy), ',',
                  strExact(c.stepOverheadMs), ',',
                  strExact(c.optimizerPasses));
}

std::string
spelledPlannerKey(const PlanRequest& r)
{
    std::string key = spelledScenarioKey(r.scenario) + "|rates=";
    for (const CloudOffering& rate : r.rates) {
        putSpelledElem(key, rate.gpuName);
        key += strCat('@', strExact(rate.dollarsPerHour), ';');
    }
    return key;
}

std::string
spelledKey(const PlanRequest& r)
{
    std::string key = strCat(queryKindName(r.query), "|gpu=");
    putSpelledElem(key, r.gpu);
    key += "|gpus=";
    for (const std::string& gpu : r.gpus) {
        putSpelledElem(key, gpu);
        key += ',';
    }
    return key + '|' + spelledPlannerKey(r);
}

std::vector<std::string>
readLines(const std::string& relative)
{
    std::ifstream in(std::string(FTSIM_SOURCE_DIR) + "/" + relative);
    EXPECT_TRUE(in.good()) << relative;
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);)
        if (!line.empty())
            lines.push_back(line);
    return lines;
}

/** Every request the two codecs accept from the corpora and the golden
 *  inputs, each decoded both ways round (JSON and binary), plus the
 *  edge cases: −0.0, one ULP, reordered and duplicated gpus. */
std::vector<PlanRequest>
corpus()
{
    std::vector<PlanRequest> out;
    auto addLine = [&out](const std::string& line) {
        Result<PlanRequest> parsed = parsePlanRequest(line);
        if (parsed.ok())
            out.push_back(parsed.value());
    };
    auto addFrame = [&out](const std::string& frame) {
        Result<WireMessage> decoded =
            decodeWirePayload(frame.substr(kWireHeaderBytes));
        if (decoded.ok() && decoded.value().type == WireMsg::Request)
            out.push_back(decoded.value().request);
    };
    for (const std::string& line : protocolSeedLines())
        addLine(line);
    for (const std::string& frame : wireSeedFrames())
        addFrame(frame);
    for (const char* file : {"examples/serve_requests.jsonl",
                             "examples/serve_requests_governed.jsonl"})
        for (const std::string& line : readLines(file))
            addLine(line);
    // Each accepted request again through the other codec.
    const std::size_t decoded = out.size();
    for (std::size_t i = 0; i < decoded; ++i) {
        addFrame(encodeRequestFrame(out[i]));
        addLine(writePlanRequest(out[i]));
    }

    const std::string edges[] = {
        // Signed zero: %.17g spells "0" and "-0", so they stay apart.
        R"({"query":"throughput","gpu":"A40","scenario":{"length_sigma":0}})",
        R"({"query":"throughput","gpu":"A40","scenario":{"length_sigma":-0.0}})",
        R"({"query":"throughput","gpu":"A40","scenario":{"length_sigma":0.0}})",
        // One value, three spellings: they share a key.
        R"({"query":"throughput","gpu":"A40","scenario":{"epochs":3}})",
        R"({"query":"throughput","gpu":"A40","scenario":{"epochs":3.0}})",
        R"({"query":"throughput","gpu":"A40","scenario":{"epochs":30e-1}})",
        // A preset and its spelled-out defaults.
        R"({"query":"max_batch","gpu":"A40","scenario":{"preset":"gs_math"}})",
        R"({"query":"max_batch","gpu":"A40","scenario":{"median_seq_len":148,"length_sigma":0.4,"num_queries":14000,"epochs":10,"sparse":true}})",
        // Reordered and duplicated gpus are different questions.
        R"({"query":"cost_table","gpus":["A40","H100"]})",
        R"({"query":"cost_table","gpus":["H100","A40"]})",
        R"({"query":"cost_table","gpus":["A40","A40","H100"]})",
        R"({"query":"cost_table","gpus":["A40"]})",
        R"({"query":"cost_table","gpus":["A40,H100"]})",
        R"({"query":"cheapest_plan","gpus":["A40","H100"]})",
        // Rates: names vs values, and one rate vs two.
        R"({"query":"cost_table","rates":{"A40":1.5}})",
        R"({"query":"cost_table","rates":{"A40":1.50}})",
        R"({"query":"cost_table","rates":{"A40":1.5,"H100":2}})",
        R"({"query":"cost_table","rates":{"H100":2,"A40":1.5}})",
        R"({"query":"cost_table","rates":{"A4":1.5}})",
        // Tenant and id are not identity.
        R"({"id":"x","tenant":"acme","query":"max_batch","gpu":"A40"})",
        R"({"id":"y","tenant":"zeta","query":"max_batch","gpu":"A40"})",
    };
    for (const std::string& line : edges)
        addLine(line);

    // Doubles one ULP apart, in every packed double a request carries.
    PlanRequest base;
    base.query = QueryKind::Throughput;
    base.gpu = "A40";
    base.rates = {{"user", "L40S", 1.05}};
    out.push_back(base);
    auto ulp = [](double v) { return std::nextafter(v, 1e300); };
    for (double Scenario::*field :
         {&Scenario::lengthSigma, &Scenario::numQueries,
          &Scenario::epochs}) {
        PlanRequest r = base;
        r.scenario.*field = ulp(r.scenario.*field);
        out.push_back(r);
    }
    {
        PlanRequest r = base;
        r.rates[0].dollarsPerHour = ulp(r.rates[0].dollarsPerHour);
        out.push_back(r);
    }
    for (double SimCalibration::*knob :
         {&SimCalibration::hostOverheadUs,
          &SimCalibration::matmulEfficiency,
          &SimCalibration::vectorEfficiency,
          &SimCalibration::dequantEfficiency,
          &SimCalibration::memoryEfficiency, &SimCalibration::blocksPerSm,
          &SimCalibration::minOccupancy, &SimCalibration::stepOverheadMs,
          &SimCalibration::optimizerPasses}) {
        PlanRequest r = base;
        r.scenario.calibration.*knob = ulp(r.scenario.calibration.*knob);
        out.push_back(r);
    }
    // A tweaked model never aliases its preset.
    {
        PlanRequest r = base;
        r.scenario.model.loraRank = 8;
        out.push_back(r);
        r.scenario.model = ModelSpec::mixtral8x7b();
        r.scenario.model.bytesPerParam = ulp(0.5);
        out.push_back(r);
        r.scenario.model = ModelSpec::mixtral8x7b();
        r.scenario.model.strategy = FineTuneStrategy::FullFineTune;
        out.push_back(r);
    }
    {
        PlanRequest r = base;
        r.scenario.sparse = false;
        out.push_back(r);
        r.scenario.sparse = true;
        r.scenario.medianSeqLen += 1;
        out.push_back(r);
    }
    return out;
}

TEST(ProtocolKey, PackedKeysShareExactlyWhenSpelledKeysDid)
{
    const std::vector<PlanRequest> requests = corpus();
    ASSERT_GT(requests.size(), 100u);

    std::vector<std::string> packed, spelled, packedPlanner,
        spelledPlanner;
    for (const PlanRequest& r : requests) {
        packed.push_back(r.canonicalKey());
        spelled.push_back(spelledKey(r));
        packedPlanner.push_back(r.plannerKey());
        spelledPlanner.push_back(spelledPlannerKey(r));
    }
    std::size_t sameKey = 0, differentKey = 0, samePlanner = 0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        for (std::size_t j = i + 1; j < requests.size(); ++j) {
            const bool wasSame = spelled[i] == spelled[j];
            ASSERT_EQ(packed[i] == packed[j], wasSame)
                << "request " << i << ": " << writePlanRequest(requests[i])
                << "\nrequest " << j << ": "
                << writePlanRequest(requests[j]);
            ASSERT_EQ(packedPlanner[i] == packedPlanner[j],
                      spelledPlanner[i] == spelledPlanner[j])
                << "request " << i << " vs " << j;
            (wasSame ? sameKey : differentKey) += 1;
            samePlanner += packedPlanner[i] == packedPlanner[j];
        }
    }
    // Both sides of the iff must be exercised.
    EXPECT_GT(sameKey, 50u);
    EXPECT_GT(differentKey, 1000u);
    EXPECT_GT(samePlanner, sameKey);
}

}  // namespace
}  // namespace ftsim

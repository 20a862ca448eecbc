#ifndef FTSIM_TESTS_SUPPORT_SEED_CORPUS_HPP
#define FTSIM_TESTS_SUPPORT_SEED_CORPUS_HPP

/**
 * @file
 * The valid inputs the codec fuzzers start from: JSON request lines
 * (ProtocolFuzz) and binary frames of every message type (WireFuzz).
 * RequestKey reads both as its corpus of real requests.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "serve/protocol.hpp"
#include "serve/wire.hpp"

namespace ftsim {

/** Valid JSON request lines, the ones ProtocolFuzz mutates. */
inline std::vector<std::string>
protocolSeedLines()
{
    std::vector<std::string> corpus = {
        R"({"id":"t1-q1","query":"max_batch","gpu":"A40"})",
        R"({"id":"t1-q2","query":"throughput","gpu":"H100",)"
        R"("scenario":{"preset":"commonsense15k","epochs":3}})",
        R"({"id":"t2-q1","query":"cost_table",)"
        R"("gpus":["A40","A100-40GB"],"rates":{"A100-40GB":1.20}})",
        R"({"id":"t2-q2","query":"cheapest_plan"})",
        R"({"id":"t3-q1","query":"report","gpu":"A40",)"
        R"("scenario":{"model":"blackmamba2p8b","num_queries":2e6}})",
        R"({"tenant":"acme","query":"throughput","gpu":"A40",)"
        R"("scenario":{"median_seq_len":256,"length_sigma":0.45,)"
        R"("sparse":false}})",
        // The live scrape: mutants graft scenario/gpu/
        // snapshot keys onto it, which the parser must reject.
        R"({"id":"s1","query":"stats"})",
        // Astral-plane and surrogate seeds: a valid pair
        // (U+1F600), a lone high surrogate, a lone low surrogate, and
        // lax number spellings. The first must parse and round-trip
        // its 4-byte UTF-8 identity; the rest are typed errors the
        // mutator then explores around.
        R"({"id":"\uD83D\uDE00","query":"max_batch","gpu":"A40"})",
        R"({"id":"\uDBFF\uDFFF x \u0041","query":"cheapest_plan"})",
        R"({"id":"\uD800","query":"max_batch","gpu":"A40"})",
        R"({"id":"\uDC00","query":"max_batch","gpu":"A40"})",
        R"({"query":"max_batch","gpu":"A40","scenario":{"epochs":+5}})",
        R"({"query":"max_batch","gpu":"A40","scenario":{"epochs":.5}})",
        // Out-of-range median_seq_len and a rate named twice: both
        // must be typed errors here and in the binary codec.
        R"({"query":"max_batch","gpu":"A40","scenario":{"median_seq_len":1e30}})",
        R"({"query":"max_batch","gpu":"A40",)"
        R"("scenario":{"median_seq_len":9007199254740993}})",
        R"({"query":"cost_table","rates":{"A40":1.5,"A40":2.5}})",
    };
    // Plus the writer's own spelling of every request kind.
    for (QueryKind kind :
         {QueryKind::MaxBatch, QueryKind::Throughput,
          QueryKind::CostTable, QueryKind::CheapestPlan,
          QueryKind::Report, QueryKind::Stats}) {
        PlanRequest req;
        req.id = "fuzz";
        req.tenant = "fuzz-tenant";
        req.query = kind;
        if (kind == QueryKind::CostTable ||
            kind == QueryKind::CheapestPlan)
            req.gpus = {"A40", "H100"};
        else if (!isLiveKind(kind))
            req.gpu = "A40";  // Live kinds carry no workload fields.
        req.rates = {{"user", "L40S", 1.05}};
        corpus.push_back(writePlanRequest(req));
    }
    return corpus;
}

/** Valid frames of every message type, the ones WireFuzz mutates. */
inline std::vector<std::string>
wireSeedFrames()
{
    std::vector<std::string> corpus;

    // One request frame per kind, fields filled per its rules.
    for (QueryKind kind :
         {QueryKind::MaxBatch, QueryKind::Throughput,
          QueryKind::CostTable, QueryKind::CheapestPlan,
          QueryKind::Report, QueryKind::Snapshot,
          QueryKind::LoadSnapshot, QueryKind::Fleet,
          QueryKind::Stats}) {
        PlanRequest req;
        req.id = "fuzz";
        req.query = kind;
        if (kind == QueryKind::MaxBatch ||
            kind == QueryKind::Throughput || kind == QueryKind::Report)
            req.gpu = "A40";
        else if (kind == QueryKind::CostTable ||
                 kind == QueryKind::CheapestPlan)
            req.gpus = {"A40", "H100"};
        if (kind == QueryKind::LoadSnapshot)
            req.snapshot = std::string("raw\0bytes\xff", 10);
        if (!isLiveKind(kind)) {
            req.tenant = "fuzz-tenant";
            req.scenario = Scenario::gsMath()
                               .withMedianSeqLen(256)
                               .withLengthSigma(0.45)
                               .withNumQueries(2.0e6)
                               .withEpochs(3.0);
            req.rates = {{"user", "L40S", 1.05}};
        }
        corpus.push_back(encodeRequestFrame(req));
    }
    {
        // Out-of-range median_seq_len and a rate named twice: both
        // must be typed errors here and in the JSON codec.
        PlanRequest req;
        req.query = QueryKind::MaxBatch;
        req.gpu = "A40";
        req.scenario.medianSeqLen = (std::uint64_t{1} << 53) + 1;
        corpus.push_back(encodeRequestFrame(req));
        req.scenario = Scenario::gsMath();
        req.rates = {{"user", "A40", 1.5}, {"user", "A40", 2.5}};
        corpus.push_back(encodeRequestFrame(req));
    }

    // Response frames: a value, a cost table, and an error.
    {
        PlanResponse resp;
        resp.query = QueryKind::Throughput;
        resp.id = "r1";
        resp.ok = true;
        resp.value = 1234.5678;
        corpus.push_back(encodeResponseFrame(resp));
    }
    {
        PlanResponse resp;
        resp.query = QueryKind::CostTable;
        resp.id = "r2";
        resp.ok = true;
        resp.rows = {{"A40", 48.0, 18, 42.5, 1.28, 96.4},
                     {"H100", 80.0, 44, 97.25, 4.76, 131.9}};
        corpus.push_back(encodeResponseFrame(resp));
    }
    {
        PlanRequest failing;
        failing.id = "r3";
        failing.query = QueryKind::MaxBatch;
        corpus.push_back(encodeResponseFrame(errorResponse(
            failing,
            Error{ErrorCode::UnknownGpu, "no such GPU \"B300\""})));
    }

    // A protocol-error frame (the third message type).
    corpus.push_back(
        encodeProtocolErrorFrame("p1", "bad frame: fuzz seed"));
    return corpus;
}

}  // namespace ftsim

#endif  // FTSIM_TESTS_SUPPORT_SEED_CORPUS_HPP

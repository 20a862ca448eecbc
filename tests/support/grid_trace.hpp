#ifndef FTSIM_TESTS_SUPPORT_GRID_TRACE_HPP
#define FTSIM_TESTS_SUPPORT_GRID_TRACE_HPP

/**
 * @file
 * The duplicate-heavy socket traffic the NetE2E, Router and RouterHeal
 * suites share: a 12-question grid, a seeded multi-connection draw
 * over it, and a helper that pipelines every connection at once.
 */

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hpp"
#include "net/client.hpp"
#include "serve/protocol.hpp"

namespace ftsim {

/** Distinct step configurations the grid simulates. */
inline constexpr std::size_t kGridStepConfigs = 9;

/** 3 scenarios x (throughput on 3 GPUs + max_batch on A40): 12
 *  questions over kGridStepConfigs step configs (max_batch is memory
 *  arithmetic and simulates none); ids "g1".."g12". */
inline std::vector<PlanRequest>
gridQuestions()
{
    const Scenario scenarios[] = {
        Scenario::gsMath(),
        Scenario::gsMath().withNumQueries(50000.0).withEpochs(3.0),
        Scenario::commonsense15k(),
    };
    std::vector<PlanRequest> questions;
    for (const Scenario& scenario : scenarios) {
        for (const char* gpu : {"A40", "A100-80GB", "H100"}) {
            PlanRequest throughput;
            throughput.query = QueryKind::Throughput;
            throughput.gpu = gpu;
            throughput.scenario = scenario;
            throughput.id = strCat("g", questions.size() + 1);
            questions.push_back(throughput);
        }
        PlanRequest maxBatch;
        maxBatch.query = QueryKind::MaxBatch;
        maxBatch.gpu = "A40";
        maxBatch.scenario = scenario;
        maxBatch.id = strCat("g", questions.size() + 1);
        questions.push_back(maxBatch);
    }
    return questions;
}

/** @p connections x @p perConnection grid questions drawn from one
 *  seeded generator, so a smaller draw is a prefix of a larger one;
 *  ids "c<connection>-q<index>". */
inline std::vector<std::vector<PlanRequest>>
gridTraffic(std::size_t connections, std::size_t perConnection)
{
    const std::vector<PlanRequest> questions = gridQuestions();
    std::mt19937 rng(7);
    std::uniform_int_distribution<std::size_t> pick(
        0, questions.size() - 1);
    std::vector<std::vector<PlanRequest>> traffic(connections);
    for (std::size_t c = 0; c < connections; ++c)
        for (std::size_t q = 0; q < perConnection; ++q) {
            PlanRequest request = questions[pick(rng)];
            request.id = strCat("c", c, "-q", q);
            traffic[c].push_back(std::move(request));
        }
    return traffic;
}

/** One loopback connection per entry of @p traffic, all pipelining at
 *  once; returns each connection's answer lines in request order. */
inline std::vector<std::vector<std::string>>
pipelineConcurrently(std::uint16_t port,
                     const std::vector<std::vector<PlanRequest>>& traffic)
{
    std::vector<std::vector<std::string>> answers(traffic.size());
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < traffic.size(); ++c)
        clients.emplace_back([port, &traffic, &answers, c] {
            Result<NetClient> client =
                NetClient::connectTo("127.0.0.1", port);
            ASSERT_TRUE(client.ok()) << client.error().message;
            for (const PlanRequest& request : traffic[c])
                ASSERT_TRUE(
                    client.value().sendLine(writePlanRequest(request)).ok());
            for (std::size_t i = 0; i < traffic[c].size(); ++i) {
                Result<std::string> line = client.value().recvLine();
                ASSERT_TRUE(line.ok()) << line.error().message;
                answers[c].push_back(line.value());
            }
        });
    for (std::thread& thread : clients)
        thread.join();
    return answers;
}

}  // namespace ftsim

#endif  // FTSIM_TESTS_SUPPORT_GRID_TRACE_HPP

/**
 * @file
 * Binary-vs-JSON wire-format bench.
 *
 * One `NetServer`, timed phases over the *same warm cache*: JSON phases
 * (lines in, lines out) and binary phases (frames in, frames out)
 * running the identical request trace, in paired, order-alternating
 * trials (`bench::measure`). A warm-up pass outside the
 * clock executes every distinct step configuration first, so neither
 * phase pays simulation cost — the measured difference is codec +
 * transport only, which is exactly what the wire format changes.
 *
 * All request bytes are pre-encoded per connection before the clock
 * starts, and responses are compared as raw bytes against pre-computed
 * expectations from an in-process `PlanService`, so the gate also
 * re-proves byte-level fidelity under load in both formats:
 *
 *  - every JSON answer equals `writePlanResponse` of the reference;
 *  - every binary answer's frame bytes equal `encodeResponseFrame` of
 *    the reference (decode + re-encode is deterministic);
 *  - the paired median must show binary >= 1.3x the JSON request rate.
 *
 * Exits non-zero on any divergence or a speedup below the bar, so
 * ci.sh gets the gate for free; emits BENCH_wire.json for the trend
 * line and tools/bench_check.py.
 *
 * Usage: bench_wire [output.json]   (default: BENCH_wire.json)
 */

#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "common/logging.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "serve/plan_service.hpp"
#include "serve/wire.hpp"

using namespace ftsim;

int
main(int argc, char** argv)
{
    const std::string out_path =
        argc > 1 ? argv[1] : "BENCH_wire.json";
    Logger::instance().setLevel(LogLevel::Error);

    bench::banner("bench_wire",
                  "binary frames vs. JSON lines on a warm NetServer");

    // ---- Templates: 3 scenarios x 3 GPUs, throughput + max_batch. ---
    // Scenario-bearing requests on purpose: they are the expensive
    // spelling in JSON and the common shape in production traces.
    const std::vector<Scenario> scenarios = {
        Scenario::gsMath(),
        Scenario::gsMath().withNumQueries(50000.0).withEpochs(3.0),
        Scenario::commonsense15k(),
    };
    const std::vector<std::string> gpu_names = {"A40", "A100-80GB",
                                                "H100"};
    std::vector<PlanRequest> templates;
    for (const Scenario& scenario : scenarios) {
        for (const std::string& gpu : gpu_names) {
            PlanRequest throughput;
            throughput.query = QueryKind::Throughput;
            throughput.gpu = gpu;
            throughput.scenario = scenario;
            throughput.rates = {{"user", gpu, 1.05}};
            templates.push_back(throughput);
        }
        PlanRequest max_batch;
        max_batch.query = QueryKind::MaxBatch;
        max_batch.gpu = "A40";
        max_batch.scenario = scenario;
        templates.push_back(max_batch);
    }
    const std::size_t kDistinctStepConfigs =
        scenarios.size() * gpu_names.size();

    constexpr std::size_t kConnections = 4;
    constexpr std::size_t kPerConnection = 256;
    constexpr int kTrials = 8;
    const std::size_t requests_per_phase = kConnections * kPerConnection;
    const std::size_t requests_per_mode = kTrials * requests_per_phase;

    // ---- Expected answers: the in-process service, no sockets. ------
    PlanService reference;
    std::vector<PlanResponse> template_answers;
    for (const PlanRequest& request : templates)
        template_answers.push_back(reference.ask(request));
    if (reference.stats().stepsSimulated != kDistinctStepConfigs)
        fatal(strCat("bench_wire: reference simulated ",
                     reference.stats().stepsSimulated,
                     " steps, expected ", kDistinctStepConfigs));

    // ---- Pre-encode everything outside the clock. -------------------
    // Per connection: the full outbound byte stream for each mode and
    // the per-slot expected response bytes (JSON line / binary frame).
    struct ConnTrace {
        std::string json_out;    ///< All request lines, concatenated.
        std::string binary_out;  ///< All request frames, concatenated.
        std::vector<std::string> expect_json;
        std::vector<std::string> expect_binary;
    };
    std::vector<ConnTrace> traces(kConnections);
    for (std::size_t c = 0; c < kConnections; ++c) {
        ConnTrace& trace = traces[c];
        for (std::size_t q = 0; q < kPerConnection; ++q) {
            const std::size_t t = (c + q) % templates.size();
            PlanRequest request = templates[t];
            request.id = strCat("c", c, "-q", q);
            trace.json_out += writePlanRequest(request);
            trace.json_out += '\n';
            trace.binary_out += encodeRequestFrame(request);
            PlanResponse response = template_answers[t];
            response.id = request.id;
            trace.expect_json.push_back(writePlanResponse(response));
            trace.expect_binary.push_back(
                encodeResponseFrame(response));
        }
    }

    // ---- The server under test, cache warmed outside the clock. -----
    NetServer server;
    Result<bool> started = server.start();
    if (!started)
        fatal("bench_wire: " + started.error().message);
    const std::uint16_t port = server.port();
    {
        Result<NetClient> warm =
            NetClient::connectTo("127.0.0.1", port);
        if (!warm)
            fatal("bench_wire: " + warm.error().message);
        for (const PlanRequest& request : templates)
            if (!warm.value().ask(writePlanRequest(request)))
                fatal("bench_wire: warm-up request failed");
    }

    bench::section("Trace");
    std::cout << kTrials << " paired trials x " << kConnections
              << " connections x " << kPerConnection
              << " pipelined requests per mode ("
              << templates.size() << " templates, "
              << kDistinctStepConfigs
              << " distinct step configs, cache warm)\n";

    // ---- One timed phase: send the stream, verify every answer. -----
    std::size_t mismatches = 0;
    std::size_t failed_connections = 0;
    auto run_phase = [&](bool binary) {
        std::vector<std::size_t> bad(kConnections, 0);
        std::vector<char> failed(kConnections, 0);
        {
            std::vector<std::thread> clients;
            for (std::size_t c = 0; c < kConnections; ++c)
                clients.emplace_back([&, c] {
                    Result<NetClient> connected =
                        NetClient::connectTo("127.0.0.1", port);
                    if (!connected) {
                        failed[c] = 1;
                        return;
                    }
                    NetClient client =
                        std::move(connected.value());
                    const ConnTrace& trace = traces[c];
                    if (!client.sendBytes(binary ? trace.binary_out
                                                 : trace.json_out)) {
                        failed[c] = 1;
                        return;
                    }
                    for (std::size_t q = 0; q < kPerConnection;
                         ++q) {
                        if (binary) {
                            Result<WireFramer::Frame> frame =
                                client.recvFrame();
                            if (!frame || !frame.value().binary) {
                                failed[c] = 1;
                                return;
                            }
                            // Raw frame bytes vs the pre-encoded
                            // expectation (header included).
                            if (wireFrame(frame.value().payload) !=
                                trace.expect_binary[q])
                                ++bad[c];
                        } else {
                            Result<std::string> line =
                                client.recvLine();
                            if (!line) {
                                failed[c] = 1;
                                return;
                            }
                            if (line.value() !=
                                trace.expect_json[q])
                                ++bad[c];
                        }
                    }
                });
            for (std::thread& thread : clients)
                thread.join();
        }
        for (std::size_t c = 0; c < kConnections; ++c) {
            mismatches += bad[c];
            failed_connections += failed[c] ? 1 : 0;
        }
    };

    // Both against the same warm cache; the pairs alternate which
    // phase runs first, so ordering cannot flatter either.
    const bench::Paired timing =
        bench::measure(kTrials, 1, [&] { run_phase(false); },
                       [&] { run_phase(true); });
    const double json_wall_ms = timing.baselineMs;
    const double binary_wall_ms = timing.candidateMs;

    const ServiceStats stats = server.service().stats();
    const NetServerStats net = server.stats();
    server.stop();

    const double json_rps =
        json_wall_ms > 0.0
            ? requests_per_phase / (json_wall_ms / 1000.0)
            : 0.0;
    const double binary_rps =
        binary_wall_ms > 0.0
            ? requests_per_phase / (binary_wall_ms / 1000.0)
            : 0.0;
    const double speedup = timing.median;

    bench::section("Results");
    std::cout << "json:   " << requests_per_phase
              << " requests per phase, median " << json_wall_ms
              << " ms = " << json_rps << " req/s\n"
              << "binary: " << requests_per_phase
              << " requests per phase, median " << binary_wall_ms
              << " ms = " << binary_rps << " req/s\n"
              << "speedup binary vs json: " << bench::spreadText(timing)
              << '\n'
              << "byte mismatches: " << mismatches
              << ", failed connections: " << failed_connections
              << ", steps_simulated=" << stats.stepsSimulated << '\n';
    bench::note("gate: byte-identical answers in both formats and a "
                "paired median of binary >= 1.3x JSON");

    std::ofstream out(out_path);
    if (!out) {
        std::cerr << "cannot write " << out_path << '\n';
        return 1;
    }
    out << "{\n"
        << "  \"bench\": \"bench_wire\",\n"
        << "  \"connections\": " << kConnections << ",\n"
        << "  \"requests_per_mode\": " << requests_per_mode << ",\n"
        << "  \"distinct_step_configs\": " << kDistinctStepConfigs
        << ",\n"
        << "  \"json_wall_ms\": " << json_wall_ms << ",\n"
        << "  \"binary_wall_ms\": " << binary_wall_ms << ",\n"
        << "  \"json_requests_per_sec\": " << json_rps << ",\n"
        << "  \"binary_requests_per_sec\": " << binary_rps << ",\n"
        << "  \"speedup_binary_vs_json\": " << speedup << ",\n"
        << "  \"spread\": {\n"
        << "    \"speedup_binary_vs_json\": " << bench::spreadJson(timing)
        << "\n"
        << "  },\n"
        << "  \"byte_mismatches\": " << mismatches << ",\n"
        << "  \"failed_connections\": " << failed_connections << ",\n"
        << "  \"service_stats\": {\n"
        << "    \"steps_simulated\": " << stats.stepsSimulated
        << ",\n"
        << "    \"executed\": " << stats.executed << "\n"
        << "  },\n"
        << "  \"net_stats\": {\n"
        << "    \"requests\": " << net.requests << ",\n"
        << "    \"binary_requests\": " << net.binaryRequests << ",\n"
        << "    \"wire_poisoned\": " << net.wirePoisoned << ",\n"
        << "    \"protocol_errors\": " << net.protocolErrors << "\n"
        << "  }\n"
        << "}\n";
    bench::note("wrote " + out_path);

    if (failed_connections > 0) {
        std::cerr << "bench_wire: " << failed_connections
                  << " connections failed\n";
        return 1;
    }
    if (mismatches > 0) {
        std::cerr << "bench_wire: wire answers diverge from the "
                     "in-process PlanService\n";
        return 1;
    }
    if (stats.stepsSimulated != kDistinctStepConfigs) {
        std::cerr << "bench_wire: server simulated "
                  << stats.stepsSimulated << " steps, expected "
                  << kDistinctStepConfigs << '\n';
        return 1;
    }
    if (net.binaryRequests != requests_per_mode) {
        std::cerr << "bench_wire: server counted "
                  << net.binaryRequests << " binary requests, "
                  << "expected " << requests_per_mode << '\n';
        return 1;
    }
    if (speedup < 1.3) {
        std::cerr << "bench_wire: binary/json paired median " << speedup
                  << "x is below the 1.3x bar\n";
        return 1;
    }
    return 0;
}

/**
 * @file
 * Load-generator bench for the plan-serving subsystem.
 *
 * Replays a synthetic multi-tenant trace — N tenants probing a
 * scenario x GPU grid, so the request stream is duplicate-heavy, the
 * shape pre-hoc prediction services see when many users price the same
 * popular runs — against two servers:
 *
 *  - **serial / naive**: one fresh `Planner` per request, executed
 *    sequentially. No step cache survives a request, no planner is
 *    shared, nothing coalesces — the straw-man a service without
 *    shared state degenerates to.
 *  - **coalesced**: one `PlanService` (admission queue + worker pool +
 *    request coalescing + planner sharing + fleet-wide plan registry).
 *
 * Both paths must produce bit-identical answers; the bench verifies
 * that, emits BENCH_serve.json for trend tracking, and exits non-zero
 * if the coalesced service is *slower* than the serial baseline (the
 * ci.sh perf-smoke gate). The speedup is the median of paired,
 * order-alternating trials (`bench::measure`), each on fresh state: a
 * new `PlanService` per coalesced trial. The acceptance floor is 5x
 * on this 256-request trace. The capacity-bounded (eviction) side of
 * the service is asserted by the PlanService unit tests, not timed
 * here.
 *
 * Usage: bench_serve_load [output.json]   (default: BENCH_serve.json)
 */

#include <algorithm>
#include <fstream>
#include <iostream>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/logging.hpp"
#include "core/planner.hpp"
#include "serve/plan_service.hpp"

using namespace ftsim;

namespace {

/** Paired trials; the serial side replays 256 fresh planners each. */
constexpr int kTrials = 9;

GpuSpec
gpuByName(const std::string& name)
{
    if (const GpuSpec* gpu = GpuSpec::byName(name))
        return *gpu;
    fatal("bench_serve_load: unknown GPU " + name);
}

/**
 * The naive one-Planner-per-request server: what each request costs
 * when no state is shared between tenants.
 */
PlanResponse
answerNaive(const PlanRequest& request)
{
    PlanResponse response;
    response.query = request.query;
    Planner planner(request.scenario, CloudCatalog::cudoCompute());
    switch (request.query) {
    case QueryKind::MaxBatch: {
        Result<int> mbs = planner.maxBatch(gpuByName(request.gpu));
        if (!mbs)
            return errorResponse(request, mbs.error());
        response.ok = true;
        response.value = static_cast<double>(mbs.value());
        break;
    }
    case QueryKind::Throughput: {
        Result<double> qps =
            planner.throughput(gpuByName(request.gpu));
        if (!qps)
            return errorResponse(request, qps.error());
        response.ok = true;
        response.value = qps.value();
        break;
    }
    case QueryKind::CostTable: {
        Result<std::vector<CostRow>> rows =
            planner.costTable(GpuSpec::paperGpus());
        if (!rows)
            return errorResponse(request, rows.error());
        response.ok = true;
        response.rows = rows.value();
        break;
    }
    case QueryKind::CheapestPlan: {
        Result<CostRow> best =
            planner.cheapestPlan(GpuSpec::paperGpus());
        if (!best)
            return errorResponse(request, best.error());
        response.ok = true;
        response.rows.push_back(best.value());
        break;
    }
    case QueryKind::Report: {
        Result<std::string> report =
            planner.report(gpuByName(request.gpu));
        if (!report)
            return errorResponse(request, report.error());
        response.ok = true;
        response.report = report.value();
        break;
    }
    }
    return response;
}

bool
sameAnswer(const PlanResponse& a, const PlanResponse& b)
{
    if (a.ok != b.ok || a.query != b.query)
        return false;
    if (a.value != b.value || a.rows.size() != b.rows.size())
        return false;
    for (std::size_t i = 0; i < a.rows.size(); ++i)
        if (a.rows[i].gpuName != b.rows[i].gpuName ||
            a.rows[i].totalDollars != b.rows[i].totalDollars)
            return false;
    return a.report == b.report;
}

}  // namespace

int
main(int argc, char** argv)
{
    const std::string out_path = argc > 1 ? argv[1] : "BENCH_serve.json";
    Logger::instance().setLevel(LogLevel::Error);

    bench::banner("bench_serve_load",
                  "multi-tenant trace: serial planners vs. coalesced "
                  "PlanService");

    // ---- The trace: 32 tenants x 8 probes over a shared grid. -------
    // Tenants probe the same popular scenarios and GPUs, so the stream
    // is duplicate-heavy: 256 requests, few distinct questions.
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
            templates.push_back(throughput);
        }
        PlanRequest table;
        table.query = QueryKind::CostTable;
        table.scenario = scenario;
        templates.push_back(table);

        PlanRequest cheapest;
        cheapest.query = QueryKind::CheapestPlan;
        cheapest.scenario = scenario;
        templates.push_back(cheapest);

        // The heavy probe: a full characterization (sweep + fits).
        PlanRequest report;
        report.query = QueryKind::Report;
        report.gpu = "A40";
        report.scenario = scenario;
        templates.push_back(report);
    }

    constexpr std::size_t kTenants = 32;
    constexpr std::size_t kProbesPerTenant = 8;
    std::vector<PlanRequest> trace;
    std::mt19937 rng(42);  // Deterministic trace across runs.
    for (std::size_t tenant = 0; tenant < kTenants; ++tenant) {
        for (std::size_t probe = 0; probe < kProbesPerTenant; ++probe) {
            const std::size_t pick = std::uniform_int_distribution<
                std::size_t>(0, templates.size() - 1)(rng);
            PlanRequest request = templates[pick];
            request.id = strCat("t", tenant, "-q", probe);
            trace.push_back(std::move(request));
        }
    }

    std::vector<std::string> keys;
    for (const PlanRequest& request : trace)
        keys.push_back(request.canonicalKey());
    std::sort(keys.begin(), keys.end());
    const std::size_t distinct = static_cast<std::size_t>(
        std::unique(keys.begin(), keys.end()) - keys.begin());

    bench::section("Trace");
    std::cout << trace.size() << " requests from " << kTenants
              << " tenants, " << distinct << " distinct questions ("
              << templates.size() << " templates)\n";

    // ---- Serial baseline: one fresh Planner per request. ------------
    std::vector<PlanResponse> serial_answers;
    auto serial = [&] {
        serial_answers.clear();
        for (const PlanRequest& request : trace)
            serial_answers.push_back(answerNaive(request));
    };

    // ---- Coalesced: a fresh PlanService per trial. ------------------
    // Each trial's service outlives its timed call, so teardown and the
    // stats read below stay out of the timing.
    std::vector<std::unique_ptr<PlanService>> services;
    std::vector<std::vector<PlanResponse>> coalesced_answers;
    auto coalesced = [&] {
        auto service = std::make_unique<PlanService>();
        std::vector<std::shared_future<PlanResponse>> futures;
        futures.reserve(trace.size());
        for (const PlanRequest& request : trace)
            futures.push_back(service->submit(request));
        std::vector<PlanResponse> answers;
        answers.reserve(trace.size());
        for (auto& future : futures)
            answers.push_back(future.get());
        coalesced_answers.push_back(std::move(answers));
        services.push_back(std::move(service));
    };

    const bench::Paired timing =
        bench::measure(kTrials, 1, serial, coalesced);
    const double speedup = timing.median;

    // ---- Verify: every trial gives the serial answers, bit for bit. -
    std::size_t mismatches = 0;
    for (const std::vector<PlanResponse>& answers : coalesced_answers)
        for (std::size_t i = 0; i < trace.size(); ++i)
            if (!sameAnswer(serial_answers[i], answers[i]))
                ++mismatches;

    // Every trial starts cold, so any one's counters are the trace's.
    const PlanService& service = *services.back();
    const ServiceStats stats = service.stats();

    bench::section("Results");
    std::cout << "serial (fresh planner per request): "
              << timing.baselineMs << " ms\n"
              << "coalesced PlanService (" << service.workers()
              << " workers):      " << timing.candidateMs << " ms  ("
              << bench::spreadText(timing) << ")\n"
              << "coalesced=" << stats.coalesced << "/" << stats.requests
              << " requests, executed=" << stats.executed
              << ", planners=" << stats.plannersCreated
              << " (reused " << stats.plannerReuses << "x)"
              << ", plans_compiled=" << stats.plansCompiled
              << ", steps_simulated=" << stats.stepsSimulated << '\n'
              << "latency p50=" << stats.p50LatencyMs
              << "ms p99=" << stats.p99LatencyMs << "ms\n"
              << "answer mismatches: " << mismatches << '\n';
    bench::note("acceptance floor: coalesced >= 5x serial on this "
                "duplicate-heavy trace; ci.sh fails below 1x");

    std::ofstream out(out_path);
    if (!out) {
        std::cerr << "cannot write " << out_path << '\n';
        return 1;
    }
    out << "{\n"
        << "  \"bench\": \"bench_serve_load\",\n"
        << "  \"trace_requests\": " << trace.size() << ",\n"
        << "  \"distinct_requests\": " << distinct << ",\n"
        << "  \"tenants\": " << kTenants << ",\n"
        << "  \"workers\": " << service.workers() << ",\n"
        << "  \"timings_ms\": {\n"
        << "    \"serial\": " << timing.baselineMs << ",\n"
        << "    \"coalesced\": " << timing.candidateMs << "\n"
        << "  },\n"
        << "  \"speedup_coalesced_vs_serial\": " << speedup << ",\n"
        << "  \"spread\": {\n"
        << "    \"speedup_coalesced_vs_serial\": "
        << bench::spreadJson(timing) << "\n"
        << "  },\n"
        << "  \"answer_mismatches\": " << mismatches << ",\n"
        << "  \"service_stats\": {\n"
        << "    \"requests\": " << stats.requests << ",\n"
        << "    \"coalesced\": " << stats.coalesced << ",\n"
        << "    \"executed\": " << stats.executed << ",\n"
        << "    \"planners_created\": " << stats.plannersCreated << ",\n"
        << "    \"planner_reuses\": " << stats.plannerReuses << ",\n"
        << "    \"plans_compiled\": " << stats.plansCompiled << ",\n"
        << "    \"plan_registry_hits\": " << stats.planRegistryHits
        << ",\n"
        << "    \"steps_simulated\": " << stats.stepsSimulated << ",\n"
        << "    \"p50_latency_ms\": " << stats.p50LatencyMs << ",\n"
        << "    \"p99_latency_ms\": " << stats.p99LatencyMs << "\n"
        << "  }\n"
        << "}\n";
    bench::note("wrote " + out_path);

    if (mismatches > 0) {
        std::cerr << "bench_serve_load: coalesced answers diverge from "
                     "serial\n";
        return 1;
    }
    if (speedup < 1.0) {
        std::cerr << "bench_serve_load: coalesced service slower than "
                     "serial baseline ("
                  << speedup << "x)\n";
        return 1;
    }
    return 0;
}

/**
 * @file
 * PlanService tests: thundering-herd coalescing (the ISSUE-3
 * acceptance bar: stepsSimulated == distinct configs however many
 * tenants ask), planner sharing, fleet-wide plan-registry sharing,
 * rate overrides, error surfacing — and the ISSUE-4 governance layer:
 * per-tenant admission quotas (token bucket + max-inflight) and
 * LRU-bounded answer/planner caches (capacity-1 stays correct,
 * evicted answers recompute identically and re-simulate, a trace four
 * times the answer cap stays within it and matches an unbounded
 * service byte for byte).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <vector>

#include "common/clock.hpp"
#include "core/planner.hpp"
#include "serve/plan_service.hpp"

namespace ftsim {
namespace {

PlanRequest
throughputRequest(const std::string& gpu,
                  Scenario scenario = Scenario::gsMath())
{
    PlanRequest req;
    req.query = QueryKind::Throughput;
    req.gpu = gpu;
    req.scenario = scenario;
    return req;
}

/**
 * A ServiceConfig::clock that parks every thread but the one that
 * built it until open(). A worker reads the clock after execute() and
 * before finishExecution() frees the request's tenant slots, so while
 * the gate is shut an admitted request holds its slots for as long as
 * the test needs. Open the gate before the service is destroyed: its
 * destructor joins the parked workers.
 */
class WorkerGate {
  public:
    std::function<double()> clock()
    {
        return [this] {
            if (std::this_thread::get_id() != owner_) {
                std::unique_lock<std::mutex> lock(mutex_);
                opened_.wait(lock, [this] { return open_; });
            }
            return monotonicMs();
        };
    }

    void open()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            open_ = true;
        }
        opened_.notify_all();
    }

  private:
    const std::thread::id owner_ = std::this_thread::get_id();
    std::mutex mutex_;
    std::condition_variable opened_;
    bool open_ = false;
};

TEST(PlanService, ThunderingHerdSimulatesEachDistinctConfigOnce)
{
    // 32 tenants each submit the same 4 questions: three throughput
    // probes (one step simulation each — the profile at max batch)
    // and one max_batch probe (memory arithmetic, no simulation).
    // 128 submissions, 3 distinct step configs -> exactly 3 sims.
    // One extra "greedy" tenant hammers the same probes under a
    // token-bucket quota: its overflow is RateLimited, and neither
    // its admitted nor its rejected traffic perturbs the herd's
    // simulate-once guarantee (untenanted requests are quota-exempt).
    ServiceConfig config;
    config.tenantRps = 1e-9;  // Effectively burst-only: 2 then reject.
    config.tenantBurst = 2.0;
    PlanService service(config);
    const std::vector<PlanRequest> probes = {
        throughputRequest("A40"),
        throughputRequest("H100"),
        throughputRequest("A40", Scenario::commonsense15k()),
        [] {
            PlanRequest req;
            req.query = QueryKind::MaxBatch;
            req.gpu = "A40";
            return req;
        }(),
    };

    constexpr int kTenants = 32;
    constexpr std::uint64_t kGreedySubmits = 8;
    std::vector<std::vector<PlanResponse>> answers(kTenants);
    std::vector<PlanResponse> greedy_answers;
    std::vector<std::thread> tenants;
    for (int t = 0; t < kTenants; ++t)
        tenants.emplace_back([&service, &probes, &answers, t] {
            for (const PlanRequest& probe : probes)
                answers[t].push_back(service.ask(probe));
        });
    tenants.emplace_back([&service, &probes, &greedy_answers] {
        for (std::uint64_t i = 0; i < kGreedySubmits; ++i) {
            PlanRequest probe = probes[i % probes.size()];
            probe.tenant = "greedy";
            greedy_answers.push_back(service.ask(probe));
        }
    });
    for (std::thread& tenant : tenants)
        tenant.join();

    const ServiceStats stats = service.stats();
    // The acceptance assertion: duplicate-heavy concurrent load
    // simulates only the distinct configurations.
    EXPECT_EQ(stats.stepsSimulated, 3u);
    EXPECT_EQ(stats.requests,
              static_cast<std::uint64_t>(kTenants * probes.size()) +
                  kGreedySubmits);
    EXPECT_EQ(stats.executed, probes.size());
    EXPECT_EQ(stats.rateLimited, kGreedySubmits - 2);
    EXPECT_EQ(stats.coalesced,
              stats.requests - stats.executed - stats.rateLimited);
    // Two scenarios -> two planners, every other request reused one.
    EXPECT_EQ(stats.plannersCreated, 2u);

    // Every tenant got the same (successful) answers.
    for (int t = 0; t < kTenants; ++t) {
        ASSERT_EQ(answers[t].size(), probes.size());
        for (std::size_t i = 0; i < probes.size(); ++i) {
            EXPECT_TRUE(answers[t][i].ok);
            EXPECT_EQ(answers[t][i].value, answers[0][i].value);
        }
    }

    // The greedy tenant: burst admitted (with the herd's answers),
    // the rest rejected — deterministically, since it submits
    // serially against a bucket only it drains.
    ASSERT_EQ(greedy_answers.size(), kGreedySubmits);
    for (std::size_t i = 0; i < greedy_answers.size(); ++i) {
        if (i < 2) {
            EXPECT_TRUE(greedy_answers[i].ok);
            EXPECT_EQ(greedy_answers[i].value,
                      answers[0][i % probes.size()].value);
        } else {
            EXPECT_FALSE(greedy_answers[i].ok);
            EXPECT_EQ(greedy_answers[i].errorCode, "RateLimited");
        }
    }
    const auto greedy = stats.tenants.find("greedy");
    ASSERT_NE(greedy, stats.tenants.end());
    EXPECT_EQ(greedy->second.admitted, 2u);
    EXPECT_EQ(greedy->second.rejectedRate, kGreedySubmits - 2);
    EXPECT_EQ(greedy->second.rejectedInflight, 0u);
    EXPECT_EQ(greedy->second.inflight, 0u);
}

TEST(PlanService, AnswersMatchADirectPlanner)
{
    PlanService service;
    PlanRequest table;
    table.query = QueryKind::CostTable;
    PlanResponse response = service.ask(table);
    ASSERT_TRUE(response.ok);

    Planner planner(Scenario::gsMath());
    auto rows = planner.costTable(GpuSpec::paperGpus());
    ASSERT_TRUE(rows.ok());
    ASSERT_EQ(response.rows.size(), rows.value().size());
    for (std::size_t i = 0; i < response.rows.size(); ++i) {
        EXPECT_EQ(response.rows[i].gpuName, rows.value()[i].gpuName);
        EXPECT_EQ(response.rows[i].totalDollars,
                  rows.value()[i].totalDollars);
    }
}

TEST(PlanService, SharesOnePlannerAcrossQueryKinds)
{
    PlanService service;
    PlanRequest throughput = throughputRequest("A40");
    PlanRequest table;
    table.query = QueryKind::CostTable;
    PlanRequest cheapest;
    cheapest.query = QueryKind::CheapestPlan;

    ASSERT_TRUE(service.ask(throughput).ok);
    ASSERT_TRUE(service.ask(table).ok);
    ASSERT_TRUE(service.ask(cheapest).ok);

    const ServiceStats stats = service.stats();
    // Same scenario -> one planner; the later kinds reused it (and
    // its step cache: the A40 max-batch profile simulated once).
    EXPECT_EQ(stats.plannersCreated, 1u);
    EXPECT_EQ(stats.plannerReuses, 2u);
}

TEST(PlanService, RegistrySharesPlansAcrossPlanners)
{
    // Two scenarios on the same model: two planners, two simulators
    // per GPU — but the compiled step-plan shape is shared through
    // the service's registry instead of recompiled per builder.
    PlanService service;
    ASSERT_TRUE(service.ask(throughputRequest("A40")).ok);
    ASSERT_TRUE(
        service.ask(throughputRequest("A40", Scenario::commonsense15k()))
            .ok);

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.plannersCreated, 2u);
    // Both probes plan sparse Mixtral with checkpointing: one shape.
    EXPECT_EQ(stats.plansCompiled, 1u);
    EXPECT_GE(stats.planRegistryHits, 1u);
    EXPECT_EQ(service.planRegistry()->plansCompiled(), 1u);
}

TEST(PlanService, CoalescedFutureCarriesBlankIdAndAskRestoresIt)
{
    PlanService service;
    PlanRequest first = throughputRequest("A40");
    first.id = "alice";
    PlanRequest second = throughputRequest("A40");
    second.id = "bob";

    PlanResponse shared = service.submit(first).get();
    EXPECT_TRUE(shared.id.empty());  // Shared answers own no id.
    PlanResponse bobs = service.ask(second);
    EXPECT_EQ(bobs.id, "bob");
    EXPECT_EQ(bobs.value, shared.value);
    EXPECT_EQ(service.stats().executed, 1u);
    EXPECT_EQ(service.stats().coalesced, 1u);
}

TEST(PlanService, RateOverridesPriceUnpricedGpus)
{
    // A100-40GB has a spec but no CUDO price: without a rate override
    // the cost table skips it, with one it appears.
    PlanService service;
    PlanRequest bare;
    bare.query = QueryKind::CostTable;
    bare.gpus = {"A40", "A100-40GB"};
    PlanResponse without = service.ask(bare);
    ASSERT_TRUE(without.ok);
    EXPECT_EQ(without.rows.size(), 1u);

    PlanRequest priced = bare;
    priced.rates = {{"user", "A100-40GB", 1.20}};
    PlanResponse with = service.ask(priced);
    ASSERT_TRUE(with.ok);
    ASSERT_EQ(with.rows.size(), 2u);
    EXPECT_EQ(with.rows[1].gpuName, "A100-40GB");
    EXPECT_DOUBLE_EQ(with.rows[1].dollarsPerHour, 1.20);
    // Different rates -> different planner identity (no false share).
    EXPECT_EQ(service.stats().plannersCreated, 2u);
}

TEST(PlanService, SurfacesDomainErrorsAsResponses)
{
    PlanService service;

    PlanRequest unknown = throughputRequest("B300");
    unknown.id = "alice";
    // The shared (coalescable) future must not leak the submitter's id
    // on the error path either.
    PlanResponse shared_err = service.submit(unknown).get();
    EXPECT_FALSE(shared_err.ok);
    EXPECT_TRUE(shared_err.id.empty());
    PlanResponse resp = service.ask(unknown);
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.errorCode, "UnknownGpu");
    EXPECT_EQ(resp.id, "alice");

    PlanRequest bad_rate = throughputRequest("A40");
    bad_rate.rates = {{"user", "", -1.0}};
    resp = service.ask(bad_rate);
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.errorCode, "InvalidArgument");

    PlanRequest dense_small = throughputRequest("A100-40GB");
    dense_small.scenario.withSparse(false);  // Does not fit dense.
    resp = service.ask(dense_small);
    EXPECT_FALSE(resp.ok);
    EXPECT_EQ(resp.errorCode, "DoesNotFit");
}

TEST(PlanService, StatsExposeLatencyQuantiles)
{
    PlanService service;
    ASSERT_TRUE(service.ask(throughputRequest("A40")).ok);
    const ServiceStats stats = service.stats();
    EXPECT_GT(stats.p99LatencyMs, 0.0);
    EXPECT_LE(stats.p50LatencyMs, stats.p99LatencyMs);
}

// ---- ISSUE-4 resource governance ------------------------------------

TEST(PlanService, EvictedAnswerRecomputesIdenticallyAndResimulates)
{
    // Capacity-1 caches: asking A, then B, then A again must evict
    // and rebuild at every step — the third answer is a fresh planner
    // and a fresh simulation, yet bit-identical to the first.
    ServiceConfig config;
    config.maxAnswers = 1;
    config.maxPlanners = 1;
    PlanService service(config);

    const PlanRequest a = throughputRequest("A40");
    const PlanRequest b =
        throughputRequest("A40", Scenario::commonsense15k());

    const PlanResponse first = service.ask(a);
    ASSERT_TRUE(first.ok);
    EXPECT_EQ(service.stats().stepsSimulated, 1u);

    ASSERT_TRUE(service.ask(b).ok);  // Evicts a's answer AND planner.
    EXPECT_EQ(service.stats().stepsSimulated, 2u);

    const PlanResponse again = service.ask(a);
    ASSERT_TRUE(again.ok);
    EXPECT_EQ(again.value, first.value);  // Eviction never changes answers.

    const ServiceStats stats = service.stats();
    // The recomputation is real work: a third simulation (the planner
    // holding a's step cache was evicted too), not a coalesced hit.
    EXPECT_EQ(stats.stepsSimulated, 3u);
    EXPECT_EQ(stats.executed, 3u);
    EXPECT_EQ(stats.coalesced, 0u);
    EXPECT_EQ(stats.answersEvicted, 2u);
    EXPECT_EQ(stats.plannersEvicted, 2u);
    EXPECT_EQ(stats.plannersCreated, 3u);
    EXPECT_EQ(stats.answersCached, 1u);
    EXPECT_EQ(stats.answersCachedPeak, 1u);
    EXPECT_LE(stats.plannersCached, 1u);
}

TEST(PlanService, CachedAnswersStillCoalesceWithinCapacity)
{
    // Within capacity the bounded service behaves exactly like the
    // unbounded one: duplicates coalesce, nothing re-simulates.
    ServiceConfig config;
    config.maxAnswers = 8;
    config.maxPlanners = 8;
    PlanService service(config);

    const PlanRequest a = throughputRequest("A40");
    const PlanResponse first = service.ask(a);
    ASSERT_TRUE(first.ok);
    const PlanResponse second = service.ask(a);
    ASSERT_TRUE(second.ok);
    EXPECT_EQ(second.value, first.value);

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.executed, 1u);
    EXPECT_EQ(stats.coalesced, 1u);
    EXPECT_EQ(stats.stepsSimulated, 1u);
    EXPECT_EQ(stats.answersEvicted, 0u);
}

TEST(PlanService, EvictionPressureStaysWithinCapsAndMatchesUnbounded)
{
    // 64 distinct questions, replayed twice, against caps of 16
    // answers / 8 planners: the second pass recomputes everything the
    // LRU dropped. Serial asks keep the eviction order, and so every
    // counter, deterministic.
    constexpr std::size_t kDistinct = 64;
    constexpr std::size_t kMaxAnswers = 16;
    constexpr std::size_t kMaxPlanners = 8;
    std::vector<PlanRequest> trace;
    for (std::size_t pass = 0; pass < 2; ++pass)
        for (std::size_t i = 0; i < kDistinct; ++i) {
            PlanRequest req;
            req.query = QueryKind::MaxBatch;
            req.gpu = "A40";
            // Distinct num_queries: distinct answer and planner keys,
            // while the answer itself is cheap memory arithmetic.
            req.scenario = Scenario::gsMath().withNumQueries(
                10000.0 + static_cast<double>(i));
            req.id = strCat("p", pass, "-", i);
            trace.push_back(std::move(req));
        }

    ServiceConfig config;
    config.maxAnswers = kMaxAnswers;
    config.maxPlanners = kMaxPlanners;
    PlanService bounded(config);
    PlanService unbounded;
    for (const PlanRequest& req : trace)
        EXPECT_EQ(writePlanResponse(bounded.ask(req)),
                  writePlanResponse(unbounded.ask(req)))
            << req.id;  // Eviction may cost recomputation, never bytes.

    const ServiceStats stats = bounded.stats();
    EXPECT_EQ(stats.answersCachedPeak, kMaxAnswers);
    EXPECT_EQ(stats.answersCached, kMaxAnswers);
    EXPECT_EQ(stats.answersEvicted, trace.size() - kMaxAnswers);
    EXPECT_EQ(stats.plannersCached, kMaxPlanners);
    EXPECT_EQ(stats.plannersEvicted, trace.size() - kMaxPlanners);
}

TEST(PlanService, CapacityOneServiceAnswersConcurrentHerdCorrectly)
{
    // The hardest governance invariant: a capacity-1 service under a
    // concurrent multi-question herd must answer *everything*
    // correctly — eviction may cost recomputation, but a coalesced
    // waiter can never lose its future (in-flight entries live
    // outside the LRU) and answers never change.
    ServiceConfig config;
    config.maxAnswers = 1;
    config.maxPlanners = 1;
    PlanService service(config);

    PlanService reference;  // Unbounded twin for expected values.
    const std::vector<PlanRequest> probes = {
        throughputRequest("A40"),
        throughputRequest("H100"),
        throughputRequest("A40", Scenario::commonsense15k()),
    };
    std::vector<PlanResponse> expected;
    for (const PlanRequest& probe : probes)
        expected.push_back(reference.ask(probe));

    constexpr int kThreads = 8;
    constexpr int kRounds = 3;
    std::vector<std::vector<PlanResponse>> answers(kThreads);
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&service, &probes, &answers, t] {
            for (int round = 0; round < kRounds; ++round)
                for (const PlanRequest& probe : probes)
                    answers[t].push_back(service.ask(probe));
        });
    for (std::thread& thread : threads)
        thread.join();

    for (int t = 0; t < kThreads; ++t) {
        ASSERT_EQ(answers[t].size(), probes.size() * kRounds);
        for (std::size_t i = 0; i < answers[t].size(); ++i) {
            const PlanResponse& got = answers[t][i];
            const PlanResponse& want = expected[i % probes.size()];
            ASSERT_TRUE(got.ok);
            EXPECT_EQ(got.value, want.value);
        }
    }

    const ServiceStats stats = service.stats();
    // Everyone answered: nothing lost to eviction...
    EXPECT_EQ(stats.requests,
              static_cast<std::uint64_t>(kThreads * kRounds) *
                  probes.size());
    EXPECT_EQ(stats.coalesced + stats.executed, stats.requests);
    // ...and the capacity bound held at every instant.
    EXPECT_EQ(stats.answersCachedPeak, 1u);
    EXPECT_LE(stats.answersCached, 1u);
    EXPECT_GE(stats.stepsSimulated, 2u);  // Distinct configs at least.
}

TEST(PlanService, TokenBucketRejectsPerTenantIndependently)
{
    ServiceConfig config;
    config.tenantRps = 1e-9;  // Burst-only in test timescales.
    config.tenantBurst = 2.0;
    PlanService service(config);

    // Distinct cheap questions so nothing coalesces: the quota, not
    // the cache, must be what rejects.
    auto probe = [](int i) {
        PlanRequest req;
        req.query = QueryKind::MaxBatch;
        req.gpu = "A40";
        req.scenario =
            Scenario::gsMath().withNumQueries(10000.0 + i);
        return req;
    };

    int alice_ok = 0, alice_limited = 0;
    for (int i = 0; i < 5; ++i) {
        PlanRequest req = probe(i);
        req.tenant = "alice";
        req.id = strCat("alice-", i);
        const PlanResponse resp = service.ask(req);
        EXPECT_EQ(resp.id, req.id);  // ask() restamps rejections too.
        if (resp.ok) {
            ++alice_ok;
        } else {
            EXPECT_EQ(resp.errorCode, "RateLimited");
            ++alice_limited;
        }
    }
    EXPECT_EQ(alice_ok, 2);
    EXPECT_EQ(alice_limited, 3);

    // Bob has his own bucket; alice draining hers costs him nothing.
    PlanRequest bobs = probe(100);
    bobs.tenant = "bob";
    EXPECT_TRUE(service.ask(bobs).ok);

    // Untenanted traffic is quota-exempt however much there is.
    for (int i = 200; i < 210; ++i)
        EXPECT_TRUE(service.ask(probe(i)).ok);

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.rateLimited, 3u);
    EXPECT_EQ(stats.tenants.at("alice").admitted, 2u);
    EXPECT_EQ(stats.tenants.at("alice").rejectedRate, 3u);
    EXPECT_EQ(stats.tenants.at("bob").admitted, 1u);
    EXPECT_EQ(stats.tenants.at("bob").rejectedRate, 0u);
}

TEST(PlanService, InflightGateCapsConcurrentRequestsPerTenant)
{
    // One worker, inflight limit 1: the first request occupies the
    // tenant's only slot; requests submitted while it runs are
    // rejected, and the slot frees once it answers.
    WorkerGate gate;
    ServiceConfig config;
    config.workers = 1;
    config.tenantMaxInflight = 1;
    config.clock = gate.clock();
    PlanService service(config);

    PlanRequest heavy;
    heavy.query = QueryKind::Report;
    heavy.gpu = "A40";
    heavy.tenant = "carol";

    std::shared_future<PlanResponse> slow = service.submit(heavy);

    // The gate holds the first request's worker, so its slot is still
    // taken and a second (distinct) request bounces.
    PlanRequest second = throughputRequest("A40");
    second.tenant = "carol";
    const PlanResponse bounced = service.submit(second).get();
    EXPECT_FALSE(bounced.ok);
    EXPECT_EQ(bounced.errorCode, "RateLimited");

    gate.open();
    EXPECT_TRUE(slow.get().ok);
    // The answer resolved, so the slot is free again — and the retry
    // coalesces onto the cached report without consuming new work.
    PlanRequest retry = heavy;
    EXPECT_TRUE(service.ask(retry).ok);

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.tenants.at("carol").rejectedInflight, 1u);
    EXPECT_EQ(stats.tenants.at("carol").admitted, 2u);
    EXPECT_EQ(stats.tenants.at("carol").inflight, 0u);
    EXPECT_EQ(stats.rateLimited, 1u);
}

TEST(PlanService, CoalescedDuplicatesHoldInflightSlotsUntilAnswered)
{
    // Duplicates coalesce onto one execution but each admitted copy
    // holds its own tenant slot until the shared answer resolves —
    // otherwise a tenant could multiply pressure through duplicates.
    WorkerGate gate;
    ServiceConfig config;
    config.workers = 1;
    config.tenantMaxInflight = 2;
    config.clock = gate.clock();
    PlanService service(config);

    PlanRequest heavy;
    heavy.query = QueryKind::Report;
    heavy.gpu = "A40";
    heavy.tenant = "dave";

    std::shared_future<PlanResponse> first = service.submit(heavy);
    std::shared_future<PlanResponse> duplicate = service.submit(heavy);
    const PlanResponse third = service.submit(heavy).get();
    EXPECT_FALSE(third.ok);  // Two slots held by the shared execution.
    EXPECT_EQ(third.errorCode, "RateLimited");

    gate.open();
    EXPECT_TRUE(first.get().ok);
    EXPECT_TRUE(duplicate.get().ok);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.tenants.at("dave").inflight, 0u);
    EXPECT_EQ(stats.tenants.at("dave").rejectedInflight, 1u);
    EXPECT_EQ(stats.executed, 1u);  // Still one execution.
}

TEST(PlanService, TenantTableIsBoundedUnderNameRotation)
{
    // The tenant field is unauthenticated wire input: a client
    // rotating fresh names must not grow the admission table without
    // limit. Idle states are evicted oldest-first to make room.
    ServiceConfig config;
    config.tenantRps = 1e9;  // Quotas on, but never the rejector here.
    config.maxTenants = 2;
    PlanService service(config);

    for (int i = 0; i < 10; ++i) {
        PlanRequest req = throughputRequest("A40");
        req.tenant = strCat("rotating-", i);
        EXPECT_TRUE(service.ask(req).ok);  // Idle olds evict fine.
    }
    const ServiceStats stats = service.stats();
    EXPECT_LE(stats.tenants.size(), 2u);
    EXPECT_EQ(stats.rateLimited, 0u);
}

TEST(PlanService, FullTenantTableOfBusyTenantsRejectsNewNames)
{
    // When every tracked tenant has work in flight, there is nothing
    // safe to evict: a fresh name is rejected instead of tracked.
    WorkerGate gate;
    ServiceConfig config;
    config.workers = 1;
    config.tenantRps = 1e9;
    config.maxTenants = 1;
    config.clock = gate.clock();
    PlanService service(config);

    PlanRequest heavy;
    heavy.query = QueryKind::Report;  // Held by the gate while running.
    heavy.gpu = "A40";
    heavy.tenant = "resident";
    std::shared_future<PlanResponse> slow = service.submit(heavy);

    PlanRequest newcomer = throughputRequest("A40");
    newcomer.tenant = "newcomer";
    const PlanResponse bounced = service.submit(newcomer).get();
    EXPECT_FALSE(bounced.ok);
    EXPECT_EQ(bounced.errorCode, "RateLimited");

    gate.open();
    EXPECT_TRUE(slow.get().ok);
    // Resident is idle now: the newcomer takes its slot.
    EXPECT_TRUE(service.ask(newcomer).ok);
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.tenants.size(), 1u);
    EXPECT_EQ(stats.tenants.count("newcomer"), 1u);
}

TEST(PlanService, ExecutionThrowBecomesAnErrorResponseNotAPoisonedKey)
{
    // A crafted programmatic scenario (incomplete model spec) makes
    // the simulator fatal() mid-execution. The future must resolve
    // with an error response, the key must leave the in-flight map
    // (later duplicates recompute, not rethrow — and the guard answer
    // is never cached), and the tenant's inflight slot must come back.
    ServiceConfig config;
    config.tenantMaxInflight = 1;
    PlanService service(config);

    PlanRequest poison = throughputRequest("A40");
    poison.tenant = "edgar";
    poison.scenario.model.nLayers = 0;  // WorkloadBuilder fatals.

    const PlanResponse first = service.ask(poison);
    EXPECT_FALSE(first.ok);
    EXPECT_EQ(first.errorCode, "InvalidArgument");
    EXPECT_NE(first.errorMessage.find("execution failed"),
              std::string::npos);

    // Same question again: guard answers are NOT promoted to the
    // answer cache (a transient failure must not become the key's
    // permanent answer), so the retry re-executes — through a freed
    // key and a freed tenant slot — and fails the same way.
    const PlanResponse again = service.ask(poison);
    EXPECT_FALSE(again.ok);
    EXPECT_EQ(again.errorCode, first.errorCode);

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.tenants.at("edgar").inflight, 0u);
    EXPECT_EQ(stats.executed, 2u);
    EXPECT_EQ(stats.coalesced, 0u);
    EXPECT_EQ(stats.rateLimited, 0u);

    // And the service keeps serving healthy requests afterwards.
    EXPECT_TRUE(service.ask(throughputRequest("A40")).ok);
}

TEST(PlanService, TokenBucketRefillsOnTheInjectedClock)
{
    // The refill path, deterministically: a virtual clock
    // (ServiceConfig::clock) drives time, so the test controls exactly
    // how many tokens accrue between requests. 2 rps = one token per
    // 500 ms (all increments are exact binary fractions — no float
    // drift in the assertions).
    double now_ms = 0.0;
    ServiceConfig config;
    config.tenantRps = 2.0;
    config.tenantBurst = 1.0;
    config.clock = [&now_ms] { return now_ms; };
    PlanService service(config);

    // Distinct cheap questions so the quota, not the cache, decides.
    auto probe = [](int i) {
        PlanRequest req;
        req.query = QueryKind::MaxBatch;
        req.gpu = "A40";
        req.tenant = "alice";
        req.scenario = Scenario::gsMath().withNumQueries(30000.0 + i);
        return req;
    };

    // t=0: the initial burst (1 token) admits, then the bucket is dry.
    EXPECT_TRUE(service.ask(probe(0)).ok);
    EXPECT_EQ(service.ask(probe(1)).errorCode, "RateLimited");

    // t=250ms: half a token — still dry.
    now_ms = 250.0;
    EXPECT_EQ(service.ask(probe(2)).errorCode, "RateLimited");

    // t=500ms: the other half arrived; exactly one token to spend.
    now_ms = 500.0;
    EXPECT_TRUE(service.ask(probe(3)).ok);
    EXPECT_EQ(service.ask(probe(4)).errorCode, "RateLimited");

    // A long quiet spell refills to the burst cap, not beyond: one
    // admit, then dry again.
    now_ms = 60000.0;
    EXPECT_TRUE(service.ask(probe(5)).ok);
    EXPECT_EQ(service.ask(probe(6)).errorCode, "RateLimited");

    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.tenants.at("alice").admitted, 3u);
    EXPECT_EQ(stats.tenants.at("alice").rejectedRate, 4u);
    EXPECT_EQ(stats.rateLimited, 4u);
}

TEST(PlanService, SourcesBucketSubmissionsPerConnectionLabel)
{
    // SubmitOptions::source is the network layer's per-connection
    // stats hook; notify must fire for ready-now answers too (the
    // cached duplicate below) — synchronously, per the contract.
    PlanService service;
    std::atomic<int> notified{0};
    SubmitOptions options;
    options.source = "127.0.0.1:9999#1";
    options.notify = [&notified] { notified.fetch_add(1); };

    PlanRequest probe = throughputRequest("A40");
    PlanResponse first = service.submit(probe, options).get();
    EXPECT_TRUE(first.ok);
    // The executed path notifies from the worker *after* resolving the
    // future, so get() returning does not yet imply the callback ran —
    // wait for it (bounded by the worker finishing its epilogue).
    while (notified.load() == 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_EQ(notified.load(), 1);

    // Duplicate: served from the answer cache, notified before
    // submit() returns (the spin above guaranteed finishExecution
    // promoted the answer).
    service.submit(probe, options);
    EXPECT_EQ(notified.load(), 2);

    const ServiceStats stats = service.stats();
    ASSERT_EQ(stats.sources.size(), 1u);
    const SourceStats& row =
        stats.sources.at("127.0.0.1:9999#1");
    EXPECT_EQ(row.requests, 2u);
    EXPECT_EQ(row.coalesced, 1u);
    EXPECT_EQ(row.rateLimited, 0u);

    // An unlabeled submission stays untracked.
    service.ask(throughputRequest("H100"));
    EXPECT_EQ(service.stats().sources.size(), 1u);
}

TEST(PlanService, QuotasDisabledByDefaultEvenForTenantedRequests)
{
    PlanService service;  // Default config: no quotas.
    for (int i = 0; i < 8; ++i) {
        PlanRequest req = throughputRequest("A40");
        req.tenant = "free";
        EXPECT_TRUE(service.ask(req).ok);
    }
    const ServiceStats stats = service.stats();
    EXPECT_EQ(stats.rateLimited, 0u);
    EXPECT_TRUE(stats.tenants.empty());  // No tracking when disabled.
}

TEST(PlanService, LoadSnapshotWarmsTheRegistryWithoutCompiling)
{
    // A donor service compiles two configs; its live snapshot pushed
    // into a cold service via the `load_snapshot` query must make the
    // same questions registry hits — zero compiles on the receiver.
    PlanService donor;
    donor.ask(throughputRequest("A40"));
    donor.ask(throughputRequest("A40", Scenario::commonsense15k()));
    const std::uint64_t donorPlans =
        donor.planRegistry()->plansCompiled();
    ASSERT_GT(donorPlans, 0u);
    const PlanResponse snap = donor.ask([] {
        PlanRequest req;
        req.query = QueryKind::Snapshot;
        return req;
    }());
    ASSERT_TRUE(snap.ok) << snap.errorMessage;

    PlanService cold;
    PlanRequest load;
    load.query = QueryKind::LoadSnapshot;
    // Raw bytes end to end in-process; base64 exists only on the wire.
    load.snapshot = snap.snapshot;
    const PlanResponse loaded = cold.ask(load);
    ASSERT_TRUE(loaded.ok) << loaded.errorMessage;
    // plansLoaded is echoed back as the answer's value.
    EXPECT_EQ(loaded.value, static_cast<double>(donorPlans));

    // The warmed answers are the donor's, byte for byte.
    for (const PlanRequest& req :
         {throughputRequest("A40"),
          throughputRequest("A40", Scenario::commonsense15k())})
        EXPECT_EQ(writePlanResponse(cold.ask(req)),
                  writePlanResponse(donor.ask(req)));
    EXPECT_EQ(cold.planRegistry()->plansCompiled(), 0u);
    EXPECT_EQ(cold.planRegistry()->plansLoaded(), donorPlans);
}

TEST(PlanService, StatsQueryIsLiveNeverCoalescedAndRegistryBacked)
{
    PlanService service;
    service.ask(throughputRequest("A40"));
    service.ask(throughputRequest("H100"));

    PlanRequest scrape;
    scrape.query = QueryKind::Stats;
    const PlanResponse first = service.ask(scrape);
    ASSERT_TRUE(first.ok) << first.errorMessage;
    EXPECT_GT(first.value, 0.0);  // value = entry count.
    // The flat snapshot carries the service's own cells.
    EXPECT_NE(first.statsJson.find("\"serve.requests\":"),
              std::string::npos)
        << first.statsJson;
    EXPECT_NE(first.statsJson.find("\"planner.step_cache_misses\":"),
              std::string::npos);

    // Live contract: identical scrapes are answered fresh — never
    // cached, never coalesced — and each counts as executed.
    const ServiceStats before = service.stats();
    const PlanResponse second = service.ask(scrape);
    ASSERT_TRUE(second.ok);
    const ServiceStats after = service.stats();
    EXPECT_EQ(after.coalesced, before.coalesced);
    EXPECT_EQ(after.executed, before.executed + 1);
    // The second scrape observed the first in its own counters.
    EXPECT_GT(second.value, 0.0);

    // ServiceStats is a view over the same registry cells: the
    // pinned counters and the scrape must agree exactly once the
    // service is quiet.
    const StatsSnapshot snap = service.statsRegistry()->snapshot();
    EXPECT_EQ(snap.counter("serve.requests"), after.requests);
    EXPECT_EQ(snap.counter("serve.executed"), after.executed);
    EXPECT_EQ(snap.counter("serve.coalesced"), after.coalesced);
    EXPECT_GT(snap.counter("planner.step_cache_misses"), 0u);
    EXPECT_EQ(snap.counter("serve.steps_simulated"),
              after.stepsSimulated);
}

TEST(PlanService, LoadSnapshotRejectsHostileBytesTyped)
{
    PlanService service;
    PlanRequest load;
    load.query = QueryKind::LoadSnapshot;
    load.snapshot = "not a snapshot at all";
    const PlanResponse response = service.ask(load);
    EXPECT_FALSE(response.ok);
    EXPECT_FALSE(response.errorMessage.empty());
    // And the service is unharmed: it still answers.
    EXPECT_TRUE(service.ask(throughputRequest("A40")).ok);
}

}  // namespace
}  // namespace ftsim

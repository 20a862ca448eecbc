/**
 * @file
 * Self-healing fleet tests (ISSUE-7): retry/failover, the supervised
 * reconnect heartbeat, and warm-start rejoin — RouterServer over real
 * NetServer shards with a FaultProxy parked in between where a test
 * needs to kill or retarget a link at an exact moment.
 *
 * The claims under test:
 *
 *  - a shard killed with requests in flight loses *nothing*: its
 *    outstanding and future requests replay on the survivors, none
 *    answers Unavailable or trips a deadline, and every answer matches
 *    one in-process PlanService's, byte for byte;
 *  - an alive-but-wedged shard (accepts, never answers) is declared
 *    dead by the per-request deadline and handled identically;
 *  - with `reconnectBackoffMs` set the router re-dials the dead
 *    endpoint on an exponential schedule driven by the injectable
 *    clock — no wall-clock sleeps decide test outcomes;
 *  - a rejoining shard is warmed from the survivors' live registry
 *    snapshots before its ring points return: it compiles zero plans
 *    for configs the fleet has already seen;
 *  - the `fleet` query reports lifecycle states and the
 *    retried/healed/respawned ledger.
 *
 * Everything binds port 0 so parallel runs never collide.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.hpp"
#include "net/client.hpp"
#include "net/fault_proxy.hpp"
#include "net/server.hpp"
#include "net/socket.hpp"
#include "router/hash_ring.hpp"
#include "router/router.hpp"
#include "serve/plan_service.hpp"
#include "serve/protocol.hpp"
#include "support/grid_trace.hpp"

namespace ftsim {
namespace {

NetClient
connectLoopback(std::uint16_t port)
{
    Result<NetClient> client = NetClient::connectTo("127.0.0.1", port);
    if (!client.ok()) {
        ADD_FAILURE() << client.error().message;
        return NetClient();
    }
    return std::move(client.value());
}

/** A duplicate-heavy request mix over 6 identities (5 simulating). */
std::vector<PlanRequest>
healTraffic()
{
    std::vector<PlanRequest> requests;
    auto add = [&requests](QueryKind kind, const std::string& gpu,
                           Scenario scenario) {
        PlanRequest req;
        req.id = strCat("h", requests.size() + 1);
        req.query = kind;
        req.gpu = gpu;
        req.scenario = scenario;
        requests.push_back(std::move(req));
    };
    add(QueryKind::MaxBatch, "A40", Scenario::gsMath());
    add(QueryKind::Throughput, "A40", Scenario::gsMath());
    add(QueryKind::Throughput, "H100", Scenario::gsMath());
    add(QueryKind::Throughput, "A40", Scenario::commonsense15k());
    add(QueryKind::Throughput, "H100", Scenario::commonsense15k());
    add(QueryKind::Throughput, "A40",
        Scenario::gsMath().withModel(ModelSpec::blackMamba2p8b()));
    return requests;
}

/** Polls @p predicate for up to @p budgetMs of real time. */
bool
eventually(double budgetMs, const std::function<bool()>& predicate)
{
    const auto deadline =
        std::chrono::steady_clock::now() +
        std::chrono::milliseconds(static_cast<int>(budgetMs));
    while (std::chrono::steady_clock::now() < deadline) {
        if (predicate())
            return true;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return predicate();
}

/** One kill-and-heal run: the victim shard's link runs through a
 *  FaultProxy so the test can cut it at an exact moment and later
 *  point the same endpoint at a fresh replacement. */
struct KillCase {
    std::vector<std::string> shardNames;
    std::size_t victim;
    std::vector<PlanRequest> traffic;
    /** Requests the mirrored ring places on the victim. */
    std::size_t doomed;
    /** Plans the rejoiner warms from the survivors' snapshots. */
    std::uint64_t plansLoaded;
};

void
killMidPipelineThenHeal(const KillCase& kill)
{
    const std::size_t shardCount = kill.shardNames.size();
    std::vector<std::unique_ptr<NetServer>> shards;
    for (std::size_t i = 0; i < shardCount; ++i) {
        shards.push_back(std::make_unique<NetServer>());
        ASSERT_TRUE(shards.back()->start().ok());
    }
    FaultProxyConfig proxyConfig;
    proxyConfig.targetPort = shards[kill.victim]->port();
    FaultProxy proxy(proxyConfig);
    ASSERT_TRUE(proxy.start().ok());

    RouterConfig config;
    for (std::size_t i = 0; i < shardCount; ++i) {
        ShardEndpoint endpoint;
        endpoint.port =
            i == kill.victim ? proxy.port() : shards[i]->port();
        endpoint.name = kill.shardNames[i];
        config.shards.push_back(endpoint);
    }
    config.retryBudget = 2;
    config.reconnectBackoffMs = 20.0;  // Real clock: heal fast.
    config.reconnectBackoffMaxMs = 100.0;
    config.healTimeoutMs = 500.0;  // Keep a doomed heal attempt short.
    RouterServer router(config);
    ASSERT_TRUE(router.start().ok());

    // Every phase must answer what one in-process service answers.
    const std::vector<PlanRequest>& requests = kill.traffic;
    PlanService reference;
    std::vector<std::string> expected;
    for (const PlanRequest& req : requests)
        expected.push_back(writePlanResponse(reference.ask(req)));

    // Phase 1: warm the whole fleet.
    {
        NetClient client = connectLoopback(router.port());
        for (std::size_t i = 0; i < requests.size(); ++i) {
            Result<std::string> line =
                client.ask(writePlanRequest(requests[i]));
            ASSERT_TRUE(line.ok()) << line.error().message;
            EXPECT_NE(line.value().find("\"ok\":true"),
                      std::string::npos)
                << line.value();
            EXPECT_EQ(line.value(), expected[i]);
        }
    }

    // Phase 2: kill the victim with requests provably in flight.
    // Mirror the ring to know how many requests it owns, stall its
    // response flow so they cannot complete, fill the pipeline, then
    // cut the link: the outstanding requests must replay on the
    // survivors and every answer must stay byte-identical.
    HashRing ring(config.virtualNodes);
    for (std::size_t i = 0; i < shardCount; ++i)
        ring.addShard(static_cast<int>(i), kill.shardNames[i]);
    std::size_t doomed = 0;
    for (const PlanRequest& req : requests)
        if (ring.shardFor(req.canonicalKey()) ==
            static_cast<int>(kill.victim))
            ++doomed;
    // Deterministic placement split; pick different shard names if a
    // hash or traffic change ever empties a side.
    ASSERT_EQ(doomed, kill.doomed);
    ASSERT_GT(doomed, 0u);
    ASSERT_LT(doomed, requests.size());

    FaultScript stall;
    stall.kind = FaultKind::Stall;
    stall.direction = FaultDirection::ServerToClient;
    proxy.setFault(stall);

    NetClient client = connectLoopback(router.port());
    for (const PlanRequest& req : requests)
        ASSERT_TRUE(client.sendLine(writePlanRequest(req)).ok());
    ASSERT_TRUE(eventually(5000.0, [&] {
        return router.stats().forwarded == 2 * requests.size();
    })) << "the router never forwarded the second batch";
    // Stop the old worker first so heal dials cannot reach it, then
    // cut the live link: the router sees a mid-pipeline death with
    // exactly `doomed` requests outstanding.
    shards[kill.victim]->stop();
    proxy.killConnections();
    proxy.clearFault();
    for (std::size_t i = 0; i < requests.size(); ++i) {
        Result<std::string> line = client.recvLine();
        ASSERT_TRUE(line.ok())
            << "request " << i << ": " << line.error().message;
        EXPECT_EQ(line.value(), expected[i]);
    }

    // Phase 3: the degraded fleet — survivors own the whole keyspace.
    for (std::size_t i = 0; i < requests.size(); ++i) {
        Result<std::string> line =
            client.ask(writePlanRequest(requests[i]));
        ASSERT_TRUE(line.ok()) << line.error().message;
        EXPECT_EQ(line.value(), expected[i]);
    }

    // Phase 4: bring up a cold replacement on the victim's endpoint
    // and let the heartbeat heal into it. The rejoiner must be warmed
    // from the survivors' snapshots before serving.
    NetServer replacement;
    ASSERT_TRUE(replacement.start().ok());
    proxy.setTarget("127.0.0.1", replacement.port());
    ASSERT_TRUE(eventually(5000.0, [&] {
        return router.stats().healed == 1;
    })) << kill.shardNames[kill.victim] << " never healed";

    const RouterStats healedStats = router.stats();
    EXPECT_EQ(healedStats.shardsAlive, shardCount);
    EXPECT_EQ(healedStats.shards[kill.victim].state, ShardState::Alive);
    EXPECT_EQ(healedStats.shards[kill.victim].heals, 1u);
    EXPECT_GE(healedStats.shards[kill.victim].dialAttempts, 1u);
    EXPECT_GE(healedStats.lastHealMs, 0.0);
    // Nothing answered Unavailable, no deadline tripped, and the
    // failover replayed exactly the doomed set.
    EXPECT_EQ(healedStats.shardFailures, 0u);
    EXPECT_EQ(healedStats.deadlineExpired, 0u);
    EXPECT_EQ(healedStats.retried, doomed);

    // Phase 5: every fleet-seen config replays byte-identically
    // through the healed fleet — and the rejoined shard compiled
    // nothing: its registry was warm-started, not rebuilt.
    for (std::size_t i = 0; i < requests.size(); ++i) {
        Result<std::string> line =
            client.ask(writePlanRequest(requests[i]));
        ASSERT_TRUE(line.ok()) << line.error().message;
        EXPECT_EQ(line.value(), expected[i]);
    }
    EXPECT_EQ(replacement.service().planRegistry()->plansCompiled(), 0u);
    EXPECT_EQ(replacement.service().planRegistry()->plansLoaded(),
              kill.plansLoaded);
    // Four sweeps, every one answered.
    EXPECT_EQ(router.stats().responses, 4 * requests.size());

    // The fleet view spells out the ledger.
    Result<std::string> fleet = client.ask("{\"query\":\"fleet\"}");
    ASSERT_TRUE(fleet.ok());
    EXPECT_NE(fleet.value().find(strCat("alive=", shardCount)),
              std::string::npos)
        << fleet.value();
    EXPECT_NE(fleet.value().find("healed=1"), std::string::npos)
        << fleet.value();
    EXPECT_NE(
        fleet.value().find(kill.shardNames[kill.victim] + "=alive"),
        std::string::npos)
        << fleet.value();

    router.stop();
    proxy.stop();
    for (std::size_t i = 0; i < shardCount; ++i)
        if (i != kill.victim)
            shards[i]->stop();
    replacement.stop();
}

TEST(RouterHeal, KilledShardRejoinsWarmAndAnswersStayByteIdentical)
{
    {
        SCOPED_TRACE("two shards, shard-d killed");
        killMidPipelineThenHeal(
            {{"shard-a", "shard-d"}, 1, healTraffic(), 2, 2});
    }
    {
        SCOPED_TRACE("three shards over the grid, shard-0 killed");
        killMidPipelineThenHeal({{"shard-0", "shard-1", "shard-8"},
                                 0,
                                 gridQuestions(),
                                 5,
                                 1});
    }
}

TEST(RouterHeal, WedgedShardTripsDeadlineAndRequestsFailOver)
{
    // shard-fake accepts the router's upstream connection but never
    // answers: alive at the TCP level, dead at the protocol level.
    // Only the per-request deadline can unwedge its requests.
    NetServer real;
    ASSERT_TRUE(real.start().ok());
    Result<TcpListener> fakeListener =
        TcpListener::bind("127.0.0.1", 0);
    ASSERT_TRUE(fakeListener.ok());

    RouterConfig config;
    ShardEndpoint realEnd;
    realEnd.port = real.port();
    realEnd.name = "shard-real";
    ShardEndpoint fakeEnd;
    fakeEnd.port = fakeListener.value().port();
    fakeEnd.name = "shard-fake";
    config.shards = {realEnd, fakeEnd};
    config.retryBudget = 2;
    config.requestDeadlineMs = 100.0;
    RouterServer router(config);
    ASSERT_TRUE(router.start().ok());

    Connection fakeUpstream;
    for (int spin = 0; spin < 200 && !fakeUpstream.valid(); ++spin) {
        fakeUpstream = fakeListener.value().accept();
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_TRUE(fakeUpstream.valid());

    NetClient client = connectLoopback(router.port());
    const std::vector<PlanRequest> requests = healTraffic();
    for (const PlanRequest& req : requests)
        ASSERT_TRUE(client.sendLine(writePlanRequest(req)).ok());

    // The wedged shard's requests sit until the 100ms deadline trips,
    // then replay on shard-real: every answer is ok, none is lost.
    for (std::size_t i = 0; i < requests.size(); ++i) {
        Result<std::string> line = client.recvLine();
        ASSERT_TRUE(line.ok())
            << "request " << i << ": " << line.error().message;
        EXPECT_NE(line.value().find("\"ok\":true"), std::string::npos)
            << line.value();
    }

    const RouterStats stats = router.stats();
    EXPECT_EQ(stats.deadlineExpired, 1u);
    EXPECT_GT(stats.retried, 0u);
    EXPECT_EQ(stats.shardFailures, 0u);
    EXPECT_FALSE(stats.shards[1].alive);

    router.stop();
    real.stop();
}

TEST(RouterHeal, ReconnectBackoffIsExponentialOnTheInjectedClock)
{
    // One real shard (so the router starts) plus one shard that dies
    // immediately and whose endpoint stays dead: the heartbeat must
    // re-dial at reconnectBackoffMs, then double per failure up to the
    // cap — all on virtual time.
    NetServer real;
    ASSERT_TRUE(real.start().ok());
    Result<TcpListener> fakeListener =
        TcpListener::bind("127.0.0.1", 0);
    ASSERT_TRUE(fakeListener.ok());

    std::atomic<double> now{0.0};
    RouterConfig config;
    ShardEndpoint realEnd;
    realEnd.port = real.port();
    realEnd.name = "shard-real";
    ShardEndpoint fakeEnd;
    fakeEnd.port = fakeListener.value().port();
    fakeEnd.name = "shard-fake";
    config.shards = {realEnd, fakeEnd};
    config.reconnectBackoffMs = 100.0;
    config.reconnectBackoffMaxMs = 400.0;
    config.healTimeoutMs = 50.0;  // Dial failures resolve fast.
    config.clock = [&now] { return now.load(); };
    RouterServer router(config);
    ASSERT_TRUE(router.start().ok());

    // Adopt + kill the upstream, and close the listener so every
    // re-dial is refused (nothing left to accept the handshake).
    Connection fakeUpstream;
    for (int spin = 0; spin < 200 && !fakeUpstream.valid(); ++spin) {
        fakeUpstream = fakeListener.value().accept();
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_TRUE(fakeUpstream.valid());
    fakeListener.value().close();
    fakeUpstream.close();

    auto dials = [&] { return router.stats().shards[1].dialAttempts; };
    ASSERT_TRUE(eventually(2000.0, [&] {
        return !router.stats().shards[1].alive;
    }));

    // Death at t≈0 arms the first dial at t=100. Virtual time stands
    // still, so nothing can fire yet no matter how long we wait.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_EQ(dials(), 0u);

    now.store(150.0);  // Past the first backoff: exactly one dial.
    ASSERT_TRUE(eventually(2000.0, [&] { return dials() >= 1; }));
    EXPECT_EQ(dials(), 1u);

    // The failed dial doubled the backoff to 200ms. t=250 is only
    // 100ms later — still inside it.
    now.store(250.0);
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    EXPECT_EQ(dials(), 1u);

    now.store(10000.0);  // Far past every capped backoff.
    ASSERT_TRUE(eventually(2000.0, [&] { return dials() >= 2; }));

    // The fleet view names the lifecycle state while it heartbeats.
    NetClient client = connectLoopback(router.port());
    Result<std::string> fleet = client.ask("{\"query\":\"fleet\"}");
    ASSERT_TRUE(fleet.ok());
    EXPECT_NE(fleet.value().find("shard-fake="), std::string::npos)
        << fleet.value();
    EXPECT_EQ(fleet.value().find("shard-fake=alive"),
              std::string::npos)
        << fleet.value();

    router.stop();
    real.stop();
}

TEST(RouterHeal, RetryBudgetZeroRestoresFailFast)
{
    // With the budget off, a killed shard's in-flight requests answer
    // Unavailable exactly as before ISSUE-7 — the knob is honored.
    NetServer real;
    ASSERT_TRUE(real.start().ok());
    Result<TcpListener> fakeListener =
        TcpListener::bind("127.0.0.1", 0);
    ASSERT_TRUE(fakeListener.ok());

    RouterConfig config;
    ShardEndpoint realEnd;
    realEnd.port = real.port();
    realEnd.name = "shard-real";
    ShardEndpoint fakeEnd;
    fakeEnd.port = fakeListener.value().port();
    fakeEnd.name = "shard-fake";
    config.shards = {realEnd, fakeEnd};
    config.retryBudget = 0;
    RouterServer router(config);
    ASSERT_TRUE(router.start().ok());

    Connection fakeUpstream;
    for (int spin = 0; spin < 200 && !fakeUpstream.valid(); ++spin) {
        fakeUpstream = fakeListener.value().accept();
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_TRUE(fakeUpstream.valid());

    NetClient client = connectLoopback(router.port());
    const std::vector<PlanRequest> requests = healTraffic();
    std::size_t doomed = 0;
    for (const PlanRequest& req : requests)
        ASSERT_TRUE(client.sendLine(writePlanRequest(req)).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    fakeUpstream.close();

    for (std::size_t i = 0; i < requests.size(); ++i) {
        Result<std::string> line = client.recvLine();
        ASSERT_TRUE(line.ok()) << line.error().message;
        if (line.value().find("\"ok\":false") != std::string::npos) {
            EXPECT_NE(line.value().find("Unavailable"),
                      std::string::npos)
                << line.value();
            ++doomed;
        }
    }
    EXPECT_GT(doomed, 0u);
    const RouterStats stats = router.stats();
    EXPECT_EQ(stats.shardFailures, doomed);
    EXPECT_EQ(stats.retried, 0u);

    router.stop();
    real.stop();
}

}  // namespace
}  // namespace ftsim

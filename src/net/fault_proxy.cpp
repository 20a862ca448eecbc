#include "net/fault_proxy.hpp"

#include <algorithm>
#include <mutex>
#include <random>
#include <sys/socket.h>
#include <vector>

#include "net/event_loop.hpp"
#include "net/socket.hpp"

namespace ftsim {

namespace {

constexpr std::size_t kC2S = 0;  ///< flow index: client -> server
constexpr std::size_t kS2C = 1;  ///< flow index: server -> client

std::size_t
flowIndex(FaultDirection direction)
{
    return direction == FaultDirection::ClientToServer ? kC2S : kS2C;
}

}  // namespace

/** Loop driver; forwarding state is loop-thread-owned, the controls
 *  cross via controlMutex + the loop's wake pipe, stats via atomics. */
struct FaultProxy::Impl : EventLoop::Driver, EventLoop::Handler {
    /** One forwarded direction of a link. */
    struct Flow {
        std::string buf;       ///< Bytes read but not yet written.
        std::size_t off = 0;   ///< Written prefix of buf.
        std::uint64_t forwarded = 0;  ///< Bytes delivered downstream.
        bool srcEof = false;   ///< Source half-closed toward us.
        bool sinkShut = false; ///< We SHUT_WR'd the sink.
        bool discarding = false;  ///< Truncate/HalfClose fired: source
                                  ///< bytes are read and dropped.

        std::size_t pending() const { return buf.size() - off; }
    };

    struct Link;

    /** One socket of a link: the source of flow[d], the sink of the
     *  other flow. */
    struct End : EventLoop::Handler {
        End(Impl& p, Link& l, std::size_t dir) : proxy(p), link(l), d(dir)
        {
        }

        void onReady(short revents) override
        {
            proxy.onEndReady(link, d, revents);
        }

        Impl& proxy;
        Link& link;
        const std::size_t d;
        Connection socket;
    };

    /** One proxied connection pair. */
    struct Link {
        explicit Link(Impl& proxy)
            : end{{proxy, *this, kC2S}, {proxy, *this, kS2C}}
        {
        }

        Connection& source(std::size_t d) { return end[d].socket; }
        Connection& sink(std::size_t d) { return end[1 - d].socket; }

        End end[2];  ///< [kC2S] the client side, [kS2C] the upstream.
        bool connecting = true;  ///< Upstream handshake in flight.
        bool dead = false;
        bool faultFired = false;
        Flow flow[2];
        std::mt19937_64 rng;
    };

    explicit Impl(FaultProxyConfig cfg) : config(std::move(cfg)) {}

    void fireFault(Link& link)
    {
        if (!link.faultFired) {
            link.faultFired = true;
            faultsInjected.fetch_add(1);
        }
    }

    void killLink(Link& link, bool counted)
    {
        if (link.dead)
            return;
        link.dead = true;
        // Count BEFORE closing: the peer observes the death the moment
        // the fds close, and may read stats() right away.
        if (counted)
            killed.fetch_add(1);
        link.end[kC2S].socket.close();
        link.end[kS2C].socket.close();
    }

    void shutSink(Link& link, std::size_t d)
    {
        Flow& flow = link.flow[d];
        Connection& sink = link.sink(d);
        if (!flow.sinkShut && sink.valid()) {
            ::shutdown(sink.fd(), SHUT_WR);
            flow.sinkShut = true;
        }
    }

    /** Reads from direction @p d's source into its bounded buffer
     *  (or the void, once the direction is discarding). */
    void pumpRead(Link& link, std::size_t d)
    {
        Flow& flow = link.flow[d];
        Connection& src = link.source(d);
        while (!link.dead && !flow.srcEof) {
            char tmp[16384];
            std::size_t cap = sizeof(tmp);
            if (!flow.discarding) {
                if (flow.pending() >= config.maxBufferBytes)
                    return;  // Backpressure: stop reading, stay bounded.
                cap = std::min(
                    cap, config.maxBufferBytes - flow.pending());
            }
            const IoResult io = src.readSome(tmp, cap);
            if (io.status == IoStatus::Ok) {
                if (flow.discarding)
                    continue;  // Truncated direction: bytes vanish.
                flow.buf.append(tmp, io.bytes);
                std::uint64_t peakNow = flow.pending();
                std::uint64_t peak = peakBuffered.load();
                while (peakNow > peak &&
                       !peakBuffered.compare_exchange_weak(peak,
                                                           peakNow)) {
                }
            } else if (io.status == IoStatus::WouldBlock) {
                return;
            } else if (io.status == IoStatus::Eof) {
                flow.srcEof = true;
                if (flow.pending() == 0)
                    shutSink(link, d);
                return;
            } else {
                killLink(link, false);
                return;
            }
        }
    }

    /** True when direction @p d is parked by an armed Stall (so the
     *  loop must not poll POLLOUT for it — buffered bytes wait). */
    bool stalled(const Link& link, std::size_t d) const
    {
        return script.kind == FaultKind::Stall &&
               flowIndex(script.direction) == d &&
               link.flow[d].forwarded >= script.afterBytes;
    }

    /** Writes direction @p d's buffered bytes to its sink, applying
     *  the armed fault at its exact byte offset. */
    void pumpWrite(Link& link, std::size_t d)
    {
        Flow& flow = link.flow[d];
        Connection& sink = link.sink(d);
        const bool scripted = script.kind != FaultKind::None &&
                              flowIndex(script.direction) == d;
        if (scripted && flow.forwarded >= script.afterBytes) {
            switch (script.kind) {
            case FaultKind::Close:
                fireFault(link);
                killLink(link, true);
                return;
            case FaultKind::Stall:
                // Hold the bytes; the link stays open. Observably
                // fired once something is actually being withheld.
                if (flow.pending() > 0)
                    fireFault(link);
                return;
            case FaultKind::HalfClose:
                fireFault(link);
                shutSink(link, d);
                flow.discarding = true;
                flow.buf.clear();
                flow.off = 0;
                return;
            case FaultKind::Truncate:
                fireFault(link);
                flow.discarding = true;
                flow.buf.clear();
                flow.off = 0;
                return;
            case FaultKind::None:
                break;
            }
        }
        while (!link.dead && flow.pending() > 0 && sink.valid() &&
               !flow.sinkShut) {
            std::uint64_t want = flow.pending();
            if (scripted)
                want = std::min(want,
                                script.afterBytes - flow.forwarded);
            if (config.seed != 0 && config.maxChunkBytes > 0)
                want = std::min(
                    want, 1 + link.rng() % config.maxChunkBytes);
            const IoResult io = sink.writeSome(
                flow.buf.data() + flow.off,
                static_cast<std::size_t>(want));
            if (io.status == IoStatus::Ok) {
                flow.off += io.bytes;
                flow.forwarded += io.bytes;
                (d == kC2S ? bytesC2S : bytesS2C)
                    .fetch_add(io.bytes);
                if (scripted && flow.forwarded >= script.afterBytes)
                    return;  // Fault fires on the next sweep.
                if (config.seed != 0 && config.maxChunkBytes > 0)
                    return;  // One chunk per pass: real short writes.
            } else if (io.status == IoStatus::WouldBlock) {
                break;
            } else {
                killLink(link, false);
                return;
            }
        }
        if (flow.pending() == 0) {
            flow.buf.clear();
            flow.off = 0;
            if (flow.srcEof)
                shutSink(link, d);
        }
    }

    /** Readiness on the end of @p link that flow @p d reads from. */
    void onEndReady(Link& link, std::size_t d, short revents)
    {
        if (link.dead)
            return;
        if (d == kS2C && link.connecting) {
            if (!(revents & (POLLOUT | POLLERR | POLLHUP)))
                return;
            if (!link.source(kS2C).finishConnect()) {
                killLink(link, true);
                return;
            }
            link.connecting = false;
        }
        if (revents & (POLLERR | POLLNVAL)) {
            killLink(link, false);
            return;
        }
        if (revents & (POLLIN | POLLHUP))
            pumpRead(link, d);
    }

    /** Whether @p flow may read from its source this round. */
    bool readable(const Flow& flow) const
    {
        return !flow.srcEof &&
               (flow.discarding || flow.pending() < config.maxBufferBytes);
    }

    /** Whether direction @p d has bytes its sink should take now. */
    bool writable(const Link& link, std::size_t d) const
    {
        const Flow& flow = link.flow[d];
        return flow.pending() > 0 && !flow.sinkShut &&
               !stalled(link, d);
    }

    bool prepare() override
    {
        std::uint64_t killGen = 0;
        {
            std::lock_guard<std::mutex> lock(controlMutex);
            script = currentScript;
            host = targetHost;
            port = targetPort;
            killGen = killGeneration;
        }
        if (killGen != killGenSeen) {
            killGenSeen = killGen;
            for (auto& link : links)
                killLink(*link, true);
        }
        if (loop.stopping())
            return false;

        for (auto it = links.begin(); it != links.end();) {
            Link& link = **it;
            const bool done =
                link.dead ||
                (link.flow[kC2S].srcEof && link.flow[kS2C].srcEof &&
                 link.flow[kC2S].pending() == 0 &&
                 link.flow[kS2C].pending() == 0);
            it = done ? links.erase(it) : it + 1;
        }
        linksOpen.store(links.size());

        if (listener.valid())
            loop.watch(listener.fd(), POLLIN, *this);
        for (auto& linkPtr : links) {
            Link& link = *linkPtr;
            short clientEvents = 0;
            short upstreamEvents = 0;
            if (readable(link.flow[kC2S]))
                clientEvents |= POLLIN;
            if (writable(link, kS2C))
                clientEvents |= POLLOUT;
            if (link.connecting) {
                upstreamEvents |= POLLOUT;
            } else {
                if (readable(link.flow[kS2C]))
                    upstreamEvents |= POLLIN;
                if (writable(link, kC2S))
                    upstreamEvents |= POLLOUT;
            }
            loop.watch(link.source(kC2S).fd(), clientEvents,
                       link.end[kC2S]);
            loop.watch(link.source(kS2C).fd(), upstreamEvents,
                       link.end[kS2C]);
        }
        return true;
    }

    void afterEvents() override
    {
        // Progress sweep: new bytes were buffered this round, faults
        // may be due at their exact offset — don't wait a poll round
        // to act on either.
        for (auto& link : links) {
            if (link->dead || link->connecting)
                continue;
            pumpWrite(*link, kC2S);
            if (!link->dead)
                pumpWrite(*link, kS2C);
        }
    }

    void onExit() override
    {
        listener.close();
        for (auto& link : links)
            killLink(*link, false);
        links.clear();
        linksOpen.store(0);
    }

    /** The listener is readable: accept and dial upstream. */
    void onReady(short) override
    {
        while (true) {
            Connection socket = listener.accept();
            if (!socket.valid())
                break;
            accepted.fetch_add(1);
            auto link = std::make_unique<Link>(*this);
            link->source(kC2S) = std::move(socket);
            link->rng.seed(config.seed ^ accepted.load());
            Result<Connection> upstream =
                Connection::connectStart(host, port);
            if (!upstream) {
                killed.fetch_add(1);
                continue;  // Link dies before it exists.
            }
            link->source(kS2C) = std::move(upstream.value());
            links.push_back(std::move(link));
        }
    }

    FaultProxyConfig config;
    EventLoop loop;
    TcpListener listener;

    std::mutex controlMutex;
    FaultScript currentScript;   ///< Guarded by controlMutex.
    std::string targetHost;      ///< Guarded by controlMutex.
    std::uint16_t targetPort = 0;  ///< Guarded by controlMutex.
    std::uint64_t killGeneration = 0;  ///< Guarded by controlMutex.
    // Loop-thread copies of the controls, refreshed every round.
    std::uint64_t killGenSeen = 0;
    FaultScript script;
    std::string host;
    std::uint16_t port = 0;

    std::vector<std::unique_ptr<Link>> links;

    std::atomic<std::uint64_t> accepted{0};
    std::atomic<std::uint64_t> killed{0};
    std::atomic<std::uint64_t> faultsInjected{0};
    std::atomic<std::uint64_t> bytesC2S{0};
    std::atomic<std::uint64_t> bytesS2C{0};
    std::atomic<std::uint64_t> peakBuffered{0};
    std::atomic<std::size_t> linksOpen{0};
};

FaultProxy::FaultProxy(FaultProxyConfig config)
    : impl_(std::make_unique<Impl>(std::move(config)))
{
    impl_->targetHost = impl_->config.targetHost;
    impl_->targetPort = impl_->config.targetPort;
}

FaultProxy::~FaultProxy()
{
    stop();
}

Result<bool>
FaultProxy::start()
{
    Result<TcpListener> listener = TcpListener::bind(
        impl_->config.listenHost, impl_->config.listenPort);
    if (!listener)
        return listener.error();
    impl_->listener = std::move(listener.value());
    impl_->loop.start(*impl_);
    return true;
}

std::uint16_t
FaultProxy::port() const
{
    return impl_->listener.port();
}

void
FaultProxy::stop()
{
    impl_->loop.stop();
}

void
FaultProxy::setFault(const FaultScript& script)
{
    {
        std::lock_guard<std::mutex> lock(impl_->controlMutex);
        impl_->currentScript = script;
    }
    impl_->loop.wake();
}

void
FaultProxy::clearFault()
{
    setFault(FaultScript{});
}

void
FaultProxy::setTarget(const std::string& host, std::uint16_t port)
{
    {
        std::lock_guard<std::mutex> lock(impl_->controlMutex);
        impl_->targetHost = host;
        impl_->targetPort = port;
    }
    impl_->loop.wake();
}

void
FaultProxy::killConnections()
{
    {
        std::lock_guard<std::mutex> lock(impl_->controlMutex);
        ++impl_->killGeneration;
    }
    impl_->loop.wake();
}

FaultProxyStats
FaultProxy::stats() const
{
    FaultProxyStats out;
    out.connectionsAccepted = impl_->accepted.load();
    out.connectionsKilled = impl_->killed.load();
    out.faultsInjected = impl_->faultsInjected.load();
    out.bytesClientToServer = impl_->bytesC2S.load();
    out.bytesServerToClient = impl_->bytesS2C.load();
    out.peakBufferedBytes = impl_->peakBuffered.load();
    out.linksOpen = impl_->linksOpen.load();
    return out;
}

}  // namespace ftsim

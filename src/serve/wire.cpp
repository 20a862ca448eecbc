#include "serve/wire.hpp"

#include <cmath>
#include <cstring>
#include <limits>

#include "common/bytes.hpp"
#include "common/logging.hpp"
#include "serve/schema.hpp"

namespace ftsim {

namespace {

using schema::fail;
using schema::Req;
using schema::Resp;

using bytes::putF64;
using bytes::putStr;
using bytes::putU8;
using bytes::putUint;

// ---- Bounds-checked reader -------------------------------------------

class WireReader {
  public:
    explicit WireReader(std::string_view payload) : s_(payload) {}

    bool done() const { return pos_ >= s_.size(); }

    unsigned char u8(const char* what)
    {
        need(1, what);
        return static_cast<unsigned char>(s_[pos_++]);
    }

    /** A little-endian T of exactly sizeof(T) bytes. */
    template <typename T>
    T uint(const char* what)
    {
        need(sizeof(T), what);
        T v = 0;
        for (std::size_t i = 0; i < sizeof(T); ++i)
            v |= static_cast<T>(static_cast<unsigned char>(s_[pos_ + i]))
                 << (8 * i);
        pos_ += sizeof(T);
        return v;
    }

    double f64(const char* what)
    {
        const std::uint64_t bits = uint<std::uint64_t>(what);
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof v);
        if (!std::isfinite(v))
            fail(strCat("non-finite number in ", what));
        return v;
    }

    bool boolean(const char* what)
    {
        const unsigned char v = u8(what);
        if (v > 1)
            fail(strCat("bad boolean in ", what));
        return v == 1;
    }

    std::string str(const char* what)
    {
        const std::uint32_t len = uint<std::uint32_t>(what);
        need(len, what);
        std::string out(s_.substr(pos_, len));
        pos_ += len;
        return out;
    }

  private:
    void need(std::size_t n, const char* what)
    {
        if (pos_ + n > s_.size())
            fail(strCat("truncated payload in ", what));
    }

    std::string_view s_;
    std::size_t pos_ = 0;
};

// ---- Tagged fields ---------------------------------------------------
// Strictly ascending tags both ways: a duplicate or shuffled tag is a
// typed error, and every message has one encoding.

/** Calls @p read per field row to the payload's end; returns the set
 *  read. @p accept: the fields the message type may carry. */
template <std::size_t N, typename Read>
schema::FieldSet
readFields(WireReader& in, const std::array<std::uint8_t, N>& byTag,
           schema::FieldSet accept, Read&& read)
{
    schema::FieldSet present = 0;
    unsigned lastTag = 0;
    while (!in.done()) {
        const unsigned tag = in.u8("field tag");
        if (tag <= lastTag)
            fail(strCat("duplicate or out-of-order tag ", tag));
        if (tag >= N || !(accept >> byTag[tag] & 1))
            fail(strCat("unknown tag ", tag));
        lastTag = tag;
        read(byTag[tag]);
        present |= schema::FieldSet{1} << byTag[tag];
    }
    return present;
}

QueryKind
readQueryKind(WireReader& in)
{
    // The kind byte is its row in the schema's kind table.
    const unsigned char raw = in.u8("query kind");
    if (raw >= std::size(schema::kKinds))
        fail(strCat("unknown query kind byte ", unsigned{raw}));
    return static_cast<QueryKind>(raw);
}

// ---- Scenario block --------------------------------------------------

void
putScenario(std::string& out, const Scenario& scenario)
{
    // A foreign model has no wire id: 0 keeps the preset default.
    const schema::ModelRow* model = schema::modelOf(scenario.model);
    putU8(out, static_cast<unsigned char>(
                   model != nullptr ? model - schema::kModels + 1 : 0));
    putUint(out, static_cast<std::uint64_t>(scenario.medianSeqLen));
    putF64(out, scenario.lengthSigma);
    putF64(out, scenario.numQueries);
    putF64(out, scenario.epochs);
    putU8(out, scenario.sparse ? 1 : 0);
}

Scenario
readScenario(WireReader& in)
{
    // Like JSON: scalars apply on top of the protocol default (GS/MATH).
    Scenario scenario = Scenario::gsMath();
    const unsigned char id = in.u8("scenario model");
    if (id > std::size(schema::kModels))
        fail(strCat("unknown model id ", unsigned{id}));
    if (id != 0)
        scenario.withModel(schema::kModels[id - 1].make());
    const auto seq = in.uint<std::uint64_t>("scenario median_seq_len");
    scenario.withMedianSeqLen(schema::seqLen(static_cast<double>(seq)));
    scenario.withLengthSigma(in.f64("scenario length_sigma"));
    scenario.withNumQueries(in.f64("scenario num_queries"));
    scenario.withEpochs(in.f64("scenario epochs"));
    scenario.withSparse(in.boolean("scenario sparse"));
    return scenario;
}

// ---- Messages --------------------------------------------------------

PlanRequest
readRequest(WireReader& in)
{
    PlanRequest req;
    const schema::FieldSet present = readFields(
        in, schema::kRequestByTag, ~schema::FieldSet{0},
        [&](std::uint8_t row) {
            switch (static_cast<Req>(row)) {
            case Req::Query: req.query = readQueryKind(in); break;
            case Req::Id: req.id = in.str("id"); break;
            case Req::Tenant: req.tenant = in.str("tenant"); break;
            case Req::Gpu: req.gpu = in.str("gpu"); break;
            case Req::Gpus: {
                const auto count = in.uint<std::uint32_t>("gpus count");
                for (std::uint32_t i = 0; i < count; ++i)
                    req.gpus.push_back(
                        schema::gpusEntry(in.str("gpus entry")));
                break;
            }
            case Req::Scenario: req.scenario = readScenario(in); break;
            case Req::Rates: {
                const auto count = in.uint<std::uint32_t>("rates count");
                for (std::uint32_t i = 0; i < count; ++i) {
                    std::string name = in.str("rate gpu name");
                    const double rate = in.f64("rate value");
                    req.rates.push_back({"user", std::move(name), rate});
                }
                break;
            }
            case Req::Snapshot: req.snapshot = in.str("snapshot"); break;
            }
        });
    schema::validateRequest(req, present);
    return req;
}

/** A response, or a protocol error narrowed by @p accept/@p required. */
PlanResponse
readResponse(WireReader& in, schema::FieldSet accept,
             schema::FieldSet required)
{
    PlanResponse resp;
    const schema::FieldSet present = readFields(
        in, schema::kResponseByTag, accept, [&](std::uint8_t row) {
            switch (static_cast<Resp>(row)) {
            case Resp::Query: resp.query = readQueryKind(in); break;
            case Resp::Id: resp.id = in.str("id"); break;
            case Resp::Ok: resp.ok = in.boolean("ok"); break;
            case Resp::Error: resp.errorCode = in.str("error code"); break;
            case Resp::Message:
                resp.errorMessage = in.str("error message");
                break;
            case Resp::Value: resp.value = in.f64("value"); break;
            case Resp::Rows: {
                const auto count = in.uint<std::uint32_t>("rows count");
                for (std::uint32_t i = 0; i < count; ++i) {
                    CostRow row;
                    row.gpuName = in.str("row gpu");
                    row.memGB = in.f64("row mem_gb");
                    const auto batch = static_cast<std::int64_t>(
                        in.uint<std::uint64_t>("row max_batch"));
                    if (batch < std::numeric_limits<int>::min() ||
                        batch > std::numeric_limits<int>::max())
                        fail("row max_batch out of range");
                    row.maxBatchSize = static_cast<int>(batch);
                    row.throughputQps = in.f64("row qps");
                    row.dollarsPerHour = in.f64("row usd_per_hour");
                    row.totalDollars = in.f64("row total_usd");
                    resp.rows.push_back(std::move(row));
                }
                break;
            }
            case Resp::Report: resp.report = in.str("report"); break;
            case Resp::Snapshot: resp.snapshot = in.str("snapshot"); break;
            case Resp::Stats: resp.statsJson = in.str("stats"); break;
            }
        });
    if ((present & required) != required)
        fail("missing a required field");
    resp.value = schema::answerValue(resp);
    return resp;
}

/** Encodes @p fields of @p response as one @p type frame. */
std::string
encodeResponse(WireMsg type, const PlanResponse& response,
               schema::FieldSet fields)
{
    std::string p;
    putU8(p, static_cast<unsigned char>(type));
    for (unsigned tag = 1; tag < schema::kResponseByTag.size(); ++tag) {
        const auto row = static_cast<Resp>(schema::kResponseByTag[tag]);
        if (!(fields & schema::bit(row)))
            continue;
        putU8(p, static_cast<unsigned char>(tag));
        switch (row) {
        case Resp::Query:
            putU8(p, static_cast<unsigned char>(response.query));
            break;
        case Resp::Id: putStr(p, response.id); break;
        case Resp::Ok: putU8(p, response.ok ? 1 : 0); break;
        case Resp::Error: putStr(p, response.errorCode); break;
        case Resp::Message: putStr(p, response.errorMessage); break;
        case Resp::Value: putF64(p, schema::answerValue(response)); break;
        case Resp::Rows:
            putUint(p, static_cast<std::uint32_t>(response.rows.size()));
            for (const CostRow& row : response.rows) {
                putStr(p, row.gpuName);
                putF64(p, row.memGB);
                putUint(p, static_cast<std::uint64_t>(
                               static_cast<std::int64_t>(row.maxBatchSize)));
                putF64(p, row.throughputQps);
                putF64(p, row.dollarsPerHour);
                putF64(p, row.totalDollars);
            }
            break;
        case Resp::Report: putStr(p, response.report); break;
        case Resp::Snapshot: putStr(p, response.snapshot); break;
        case Resp::Stats: putStr(p, response.statsJson); break;
        }
    }
    return wireFrame(p);
}

}  // namespace

std::string
wireFrame(std::string_view payload)
{
    if (payload.empty())
        fatal("wire: refusing to frame an empty payload");
    if (payload.size() > std::numeric_limits<std::uint32_t>::max())
        fatal("wire: payload exceeds the u32 length prefix");
    std::string out;
    out.reserve(kWireHeaderBytes + payload.size());
    putU8(out, kWireMagic);
    putU8(out, kWireMagic2);
    putU8(out, kWireMagic3);
    putU8(out, kWireVersion);
    putUint(out, static_cast<std::uint32_t>(payload.size()));
    out.append(payload.data(), payload.size());
    return out;
}

Result<std::uint32_t>
parseWireHeader(const unsigned char* header)
{
    if (header[0] != kWireMagic || header[1] != kWireMagic2 ||
        header[2] != kWireMagic3)
        return Error{ErrorCode::InvalidArgument, "bad frame magic"};
    if (header[3] != kWireVersion)
        return Error{ErrorCode::InvalidArgument,
                     strCat("unsupported wire version ",
                            unsigned{header[3]}, " (expected ",
                            unsigned{kWireVersion}, ')')};
    std::uint32_t len = 0;
    for (int i = 0; i < 4; ++i)
        len |= static_cast<std::uint32_t>(header[4 + i]) << (8 * i);
    if (len == 0)
        return Error{ErrorCode::InvalidArgument,
                     "empty frame payload"};
    return len;
}

std::string
encodeRequestFrame(const PlanRequest& request)
{
    const schema::FieldSet fields = schema::requestFields(request);
    std::string p;
    putU8(p, static_cast<unsigned char>(WireMsg::Request));
    for (unsigned tag = 1; tag < schema::kRequestByTag.size(); ++tag) {
        const auto row = static_cast<Req>(schema::kRequestByTag[tag]);
        if (!(fields & schema::bit(row)))
            continue;
        putU8(p, static_cast<unsigned char>(tag));
        switch (row) {
        case Req::Query:
            putU8(p, static_cast<unsigned char>(request.query));
            break;
        case Req::Id: putStr(p, request.id); break;
        case Req::Tenant: putStr(p, request.tenant); break;
        case Req::Gpu: putStr(p, request.gpu); break;
        case Req::Gpus:
            putUint(p, static_cast<std::uint32_t>(request.gpus.size()));
            for (const std::string& gpu : request.gpus)
                putStr(p, gpu);
            break;
        case Req::Scenario: putScenario(p, request.scenario); break;
        case Req::Rates:
            putUint(p, static_cast<std::uint32_t>(request.rates.size()));
            for (const CloudOffering& rate : request.rates) {
                putStr(p, rate.gpuName);
                putF64(p, rate.dollarsPerHour);
            }
            break;
        case Req::Snapshot: putStr(p, request.snapshot); break;
        }
    }
    return wireFrame(p);
}

std::string
encodeResponseFrame(const PlanResponse& response)
{
    return encodeResponse(WireMsg::Response, response,
                          schema::responseFields(response, true));
}

std::string
encodeProtocolErrorFrame(const std::string& id,
                         const std::string& message)
{
    PlanResponse error;
    error.id = id;
    error.errorMessage = message;
    return encodeResponse(WireMsg::ProtocolError, error,
                          schema::protocolErrorFields(!id.empty(), true));
}

Result<WireMessage>
decodeWirePayload(std::string_view payload)
{
    try {
        WireReader in(payload);
        WireMessage msg;
        const unsigned char type = in.u8("message type");
        switch (type) {
        case static_cast<unsigned char>(WireMsg::Request):
            msg.type = WireMsg::Request;
            msg.request = readRequest(in);
            return msg;
        case static_cast<unsigned char>(WireMsg::Response):
            msg.type = WireMsg::Response;
            msg.response = readResponse(
                in, ~schema::FieldSet{0},
                schema::bit(Resp::Query) | schema::bit(Resp::Ok));
            return msg;
        case static_cast<unsigned char>(WireMsg::ProtocolError): {
            msg.type = WireMsg::ProtocolError;
            PlanResponse error =
                readResponse(in, schema::protocolErrorFields(true, true),
                             schema::protocolErrorFields(false, true));
            msg.errorId = std::move(error.id);
            msg.errorMessage = std::move(error.errorMessage);
            return msg;
        }
        default:
            fail(strCat("unknown message type ", unsigned{type}));
        }
    } catch (const schema::CodecError& err) {
        return Error{ErrorCode::InvalidArgument,
                     strCat("bad frame: ", err.msg)};
    }
}

}  // namespace ftsim

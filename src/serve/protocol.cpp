#include "serve/protocol.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>

#include "common/base64.hpp"
#include "common/bytes.hpp"
#include "common/logging.hpp"
#include "serve/schema.hpp"

namespace ftsim {

namespace {

using schema::fail;
using schema::Req;
using schema::Resp;

// ---- Minimal JSON document model -------------------------------------

struct JsonValue {
    enum class Type { Null, Bool, Number, String, Array, Object };
    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    /** Insertion-ordered; duplicate keys are a parse error. */
    std::vector<std::pair<std::string, JsonValue>> object;

    JsonValue* find(std::string_view key)
    {
        for (auto& [k, v] : object)
            if (k == key)
                return &v;
        return nullptr;
    }
};

/** Indexed by JsonValue::Type. */
constexpr const char* kTypeNames[] = {"null",   "bool",  "number",
                                      "string", "array", "object"};

// ---- Recursive-descent parser ----------------------------------------

class JsonParser {
  public:
    explicit JsonParser(const std::string& text) : s_(text) {}

    JsonValue parseDocument()
    {
        JsonValue v = parseValue();
        skipWs();
        if (pos_ != s_.size())
            fail(strCat("trailing characters at offset ", pos_));
        return v;
    }

  private:
    void skipWs()
    {
        while (pos_ < s_.size() &&
               (s_[pos_] == ' ' || s_[pos_] == '\t' || s_[pos_] == '\n' ||
                s_[pos_] == '\r'))
            ++pos_;
    }

    char peek()
    {
        if (pos_ >= s_.size())
            fail("unexpected end of input");
        return s_[pos_];
    }

    void expect(char c)
    {
        if (pos_ >= s_.size() || s_[pos_] != c)
            fail(strCat("expected '", c, "' at offset ", pos_));
        ++pos_;
    }

    bool consumeLiteral(std::string_view lit)
    {
        if (s_.compare(pos_, lit.size(), lit) != 0)
            return false;
        pos_ += lit.size();
        return true;
    }

    JsonValue parseValue()
    {
        skipWs();
        const char c = peek();
        if (c == '{' || c == '[') {
            // Containers recurse; a hostile line of 100k brackets must
            // be a parse error, not a stack overflow (fuzz-pinned).
            if (depth_ >= kMaxDepth)
                fail(strCat("nesting deeper than ", kMaxDepth));
            ++depth_;
            JsonValue v = c == '{' ? parseObject() : parseArray();
            --depth_;
            return v;
        }
        if (c == '"') {
            JsonValue v;
            v.type = JsonValue::Type::String;
            v.string = parseString();
            return v;
        }
        if (consumeLiteral("true")) {
            JsonValue v;
            v.type = JsonValue::Type::Bool;
            v.boolean = true;
            return v;
        }
        if (consumeLiteral("false")) {
            JsonValue v;
            v.type = JsonValue::Type::Bool;
            return v;
        }
        if (consumeLiteral("null"))
            return JsonValue{};
        return parseNumber();
    }

    JsonValue parseObject()
    {
        JsonValue v;
        v.type = JsonValue::Type::Object;
        expect('{');
        skipWs();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        for (;;) {
            skipWs();
            std::string key = parseString();
            if (v.find(key) != nullptr)
                fail(strCat("duplicate key \"", key, '"'));
            skipWs();
            expect(':');
            v.object.emplace_back(std::move(key), parseValue());
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    JsonValue parseArray()
    {
        JsonValue v;
        v.type = JsonValue::Type::Array;
        expect('[');
        skipWs();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        for (;;) {
            v.array.push_back(parseValue());
            skipWs();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    std::string parseString()
    {
        expect('"');
        std::string out;
        for (;;) {
            if (pos_ >= s_.size())
                fail("unterminated string");
            const char c = s_[pos_++];
            if (c == '"')
                return out;
            if (static_cast<unsigned char>(c) < 0x20)
                fail("raw control character in string");
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= s_.size())
                fail("unterminated escape");
            const char e = s_[pos_++];
            switch (e) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'u': out += parseUnicodeEscape(); break;
            default: fail(strCat("bad escape '\\", e, "'"));
            }
        }
    }

    /** Reads exactly four hex digits of a \u escape. */
    unsigned parseHex4()
    {
        if (pos_ + 4 > s_.size())
            fail("truncated \\u escape");
        unsigned code = 0;
        for (int i = 0; i < 4; ++i) {
            const char h = s_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9')
                code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f')
                code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F')
                code |= static_cast<unsigned>(h - 'A' + 10);
            else
                fail("non-hex digit in \\u escape");
        }
        return code;
    }

    /**
     * Decodes \uXXXX to UTF-8. A UTF-16 high surrogate
     * (\uD800-\uDBFF) must be followed by a low surrogate
     * (\uDC00-\uDFFF); the pair combines into one astral-plane code
     * point encoded as four UTF-8 bytes. A lone or unpaired surrogate
     * is a parse error — encoding the surrogate code point itself
     * would produce invalid UTF-8 that escapeJson later re-emits as
     * garbage, violating the valid-request-or-typed-error invariant.
     */
    std::string parseUnicodeEscape()
    {
        unsigned code = parseHex4();
        if (code >= 0xDC00 && code <= 0xDFFF)
            fail("lone low surrogate in \\u escape");
        if (code >= 0xD800 && code <= 0xDBFF) {
            if (pos_ + 2 > s_.size() || s_[pos_] != '\\' ||
                s_[pos_ + 1] != 'u')
                fail("unpaired high surrogate in \\u escape");
            pos_ += 2;
            const unsigned low = parseHex4();
            if (low < 0xDC00 || low > 0xDFFF)
                fail("unpaired high surrogate in \\u escape");
            code = 0x10000 + ((code - 0xD800) << 10) + (low - 0xDC00);
        }
        std::string out;
        if (code < 0x80) {
            out += static_cast<char>(code);
        } else if (code < 0x800) {
            out += static_cast<char>(0xC0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3F));
        } else if (code < 0x10000) {
            out += static_cast<char>(0xE0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
        } else {
            out += static_cast<char>(0xF0 | (code >> 18));
            out += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            out += static_cast<char>(0x80 | (code & 0x3F));
        }
        return out;
    }

    JsonValue parseNumber()
    {
        // Strict JSON number grammar:
        //   -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
        // Enforced here rather than deferred to strtod, which also
        // accepts "+5", ".5", "5.", "01", hex, and "inf"/"nan" —
        // spellings the writer never emits and strict JSON rejects.
        const std::size_t start = pos_;
        const auto isDigit = [this](std::size_t p) {
            return p < s_.size() && s_[p] >= '0' && s_[p] <= '9';
        };
        if (peek() == '-')
            ++pos_;
        if (!isDigit(pos_))
            fail(strCat("unexpected character '",
                       pos_ < s_.size() ? s_[pos_] : s_[start],
                       "' at offset ", start));
        if (s_[pos_] == '0') {
            ++pos_;
            if (isDigit(pos_))
                fail(strCat("leading zero in number at offset ", start));
        } else {
            while (isDigit(pos_))
                ++pos_;
        }
        if (pos_ < s_.size() && s_[pos_] == '.') {
            ++pos_;
            if (!isDigit(pos_))
                fail(strCat("digit required after decimal point at "
                           "offset ",
                           start));
            while (isDigit(pos_))
                ++pos_;
        }
        if (pos_ < s_.size() && (s_[pos_] == 'e' || s_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < s_.size() &&
                (s_[pos_] == '+' || s_[pos_] == '-'))
                ++pos_;
            if (!isDigit(pos_))
                fail(strCat("digit required in exponent at offset ",
                           start));
            while (isDigit(pos_))
                ++pos_;
        }
        const std::string text = s_.substr(start, pos_ - start);
        char* end = nullptr;
        const double num = std::strtod(text.c_str(), &end);
        if (end != text.c_str() + text.size() || !std::isfinite(num))
            fail(strCat("bad number \"", text, '"'));
        JsonValue v;
        v.type = JsonValue::Type::Number;
        v.number = num;
        return v;
    }

    /** No real request nests past ~3 levels; 64 is pure headroom. */
    static constexpr int kMaxDepth = 64;

    const std::string& s_;
    std::size_t pos_ = 0;
    int depth_ = 0;
};

// ---- Field extraction helpers ----------------------------------------

/** @p value, checked to be a @p type (@p key names it in the error). */
JsonValue&
typed(JsonValue& value, JsonValue::Type type, const char* key)
{
    if (value.type != type)
        fail(strCat('"', key, "\" must be a ",
                    kTypeNames[static_cast<int>(type)], ", got ",
                    kTypeNames[static_cast<int>(value.type)]));
    return value;
}

/** The member @p key of @p obj, or nullptr when absent. */
JsonValue*
optional(JsonValue& obj, const char* key, JsonValue::Type type)
{
    JsonValue* v = obj.find(key);
    return v == nullptr ? nullptr : &typed(*v, type, key);
}

/** The scenario's plain number keys, in writing order. */
constexpr std::pair<const char*, double Scenario::*> kScenarioNumbers[] = {
    {"length_sigma", &Scenario::lengthSigma},
    {"num_queries", &Scenario::numQueries},
    {"epochs", &Scenario::epochs},
};

/** JSON syntax only: the value rules live in serve/schema. */
Scenario
parseScenario(JsonValue& obj)
{
    static constexpr std::string_view kKeys[] = {
        "preset",      "model",  "median_seq_len", "length_sigma",
        "num_queries", "epochs", "sparse"};
    for (const auto& [key, value] : obj.object)
        if (std::find(std::begin(kKeys), std::end(kKeys), key) ==
            std::end(kKeys))
            fail(strCat("unknown key \"", key, "\" in scenario"));

    Scenario scenario = Scenario::gsMath();
    if (const JsonValue* preset =
            optional(obj, "preset", JsonValue::Type::String)) {
        if (preset->string == "gs_math")
            scenario = Scenario::gsMath();
        else if (preset->string == "commonsense15k")
            scenario = Scenario::commonsense15k();
        else if (preset->string == "open_orca")
            scenario = Scenario::openOrca();
        else
            fail(strCat("unknown scenario preset \"", preset->string,
                        '"'));
    }
    if (const JsonValue* model =
            optional(obj, "model", JsonValue::Type::String)) {
        const schema::ModelRow* row = schema::modelByName(model->string);
        if (row == nullptr)
            fail(strCat("unknown model \"", model->string, '"'));
        scenario.withModel(row->make());
    }
    if (const JsonValue* seq =
            optional(obj, "median_seq_len", JsonValue::Type::Number))
        scenario.withMedianSeqLen(schema::seqLen(seq->number));
    for (const auto& [key, field] : kScenarioNumbers)
        if (const JsonValue* v = optional(obj, key, JsonValue::Type::Number))
            scenario.*field = v->number;
    if (const JsonValue* sparse =
            optional(obj, "sparse", JsonValue::Type::Bool))
        scenario.withSparse(sparse->boolean);
    return scenario;
}

// ---- Writer helpers --------------------------------------------------
// Doubles on the wire must round-trip exactly — a re-serialized request
// has to keep its canonical (coalescing) identity — so numbers use
// strExact's %.17g, which round-trips every finite double.

/** Appends @p s as a JSON string literal. */
void
putQuoted(std::string& out, std::string_view s)
{
    out += '"';
    for (char c : s) {
        switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c) & 0xFF);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

/** Appends `"key":`, after a comma unless it opens the object. */
void
putKey(std::string& out, const char* key)
{
    if (out.size() > 1)
        out += ',';
    out += '"';
    out += key;
    out += "\":";
}

void
putScenario(std::string& out, const Scenario& scenario)
{
    // Explicit scalars (no preset needed: they fully determine it).
    out += '{';
    if (const schema::ModelRow* model = schema::modelOf(scenario.model)) {
        out += "\"model\":";
        putQuoted(out, model->name);
        out += ',';
    }
    out += strCat("\"median_seq_len\":", scenario.medianSeqLen);
    for (const auto& [key, field] : kScenarioNumbers)
        out += strCat(",\"", key, "\":", strExact(scenario.*field));
    out += scenario.sparse ? ",\"sparse\":true}" : ",\"sparse\":false}";
}

/** One JSON object of @p response's @p fields. */
std::string
writeResponse(const PlanResponse& response, schema::FieldSet fields)
{
    std::string out = "{";
    for (std::size_t i = 0; i < std::size(schema::kResponseFields); ++i) {
        if (!(fields >> i & 1))
            continue;
        putKey(out, schema::kResponseFields[i].json);
        switch (static_cast<Resp>(i)) {
        case Resp::Id: putQuoted(out, response.id); break;
        case Resp::Query:
            putQuoted(out, queryKindName(response.query));
            break;
        case Resp::Ok: out += response.ok ? "true" : "false"; break;
        case Resp::Error: putQuoted(out, response.errorCode); break;
        case Resp::Message: putQuoted(out, response.errorMessage); break;
        case Resp::Value:
            out += strExact(schema::answerValue(response));
            break;
        case Resp::Rows:
            out += '[';
            for (const CostRow& row : response.rows) {
                if (out.back() != '[')
                    out += ',';
                out += "{\"gpu\":";
                putQuoted(out, row.gpuName);
                out += strCat(",\"mem_gb\":", strExact(row.memGB),
                              ",\"max_batch\":", row.maxBatchSize,
                              ",\"qps\":", strExact(row.throughputQps),
                              ",\"usd_per_hour\":",
                              strExact(row.dollarsPerHour),
                              ",\"total_usd\":",
                              strExact(row.totalDollars), '}');
            }
            out += ']';
            break;
        case Resp::Report: putQuoted(out, response.report); break;
        case Resp::Snapshot:
            putQuoted(out, base64Encode(response.snapshot));
            break;
        case Resp::Stats:
            // Pre-serialized JSON, embedded verbatim so shard payloads
            // forward byte-identically.
            out += response.statsJson.empty() ? "{}" : response.statsJson;
            break;
        }
    }
    out += '}';
    return out;
}

/**
 * Packs the @p fields of @p request in row order, from the values, not
 * their spelling. Every field has one fixed shape (names and lists are
 * length-prefixed), so equal bytes mean equal fields: "A40,H100" (one
 * name) never collides with ["A40","H100"] (two).
 */
std::string
packKey(const PlanRequest& request, schema::FieldSet fields)
{
    std::string key;
    key.reserve(320);
    for (std::size_t row = 0; row < std::size(schema::kRequestFields);
         ++row) {
        const auto field = static_cast<Req>(row);
        if (!(fields & schema::bit(field)))
            continue;
        switch (field) {
        case Req::Query:
            bytes::putU8(key, static_cast<std::uint8_t>(request.query));
            break;
        case Req::Gpu: bytes::putStr(key, request.gpu); break;
        case Req::Gpus:
            bytes::putUint(key,
                           static_cast<std::uint32_t>(request.gpus.size()));
            for (const std::string& gpu : request.gpus)
                bytes::putStr(key, gpu);
            break;
        case Req::Scenario: request.scenario.appendKey(key); break;
        case Req::Rates:
            bytes::putUint(key,
                           static_cast<std::uint32_t>(request.rates.size()));
            for (const CloudOffering& rate : request.rates) {
                bytes::putStr(key, rate.gpuName);
                bytes::putF64(key, rate.dollarsPerHour);
            }
            break;
        case Req::Id:
        case Req::Tenant:
        case Req::Snapshot:
            break;  // Never identity (schema::kKeyFields).
        }
    }
    return key;
}

}  // namespace

bool
isLiveKind(QueryKind kind)
{
    return schema::kindSpec(kind).shape == schema::KindClass::Live;
}

const char*
queryKindName(QueryKind kind)
{
    return schema::kindSpec(kind).name;
}

Result<QueryKind>
parseQueryKind(const std::string& name)
{
    for (std::size_t i = 0; i < std::size(schema::kKinds); ++i)
        if (name == schema::kKinds[i].name)
            return static_cast<QueryKind>(i);
    return Error{ErrorCode::InvalidArgument,
                 strCat("unknown query kind \"", name, '"')};
}

std::string
PlanRequest::canonicalKey() const
{
    return packKey(*this, schema::kKeyFields);
}

std::string
PlanRequest::plannerKey() const
{
    return packKey(*this, schema::kPlannerKeyFields);
}

Result<PlanRequest>
parsePlanRequest(const std::string& line)
{
    try {
        JsonParser parser(line);
        JsonValue doc = parser.parseDocument();
        if (doc.type != JsonValue::Type::Object)
            fail("request must be a JSON object");
        PlanRequest req;
        schema::FieldSet present = 0;
        for (auto& [key, value] : doc.object) {
            std::size_t row = 0;
            while (row < std::size(schema::kRequestFields) &&
                   key != schema::kRequestFields[row].json)
                ++row;
            if (row == std::size(schema::kRequestFields))
                fail(strCat("unknown key \"", key, "\" in request"));
            present |= schema::FieldSet{1} << row;
            const char* name = schema::kRequestFields[row].json;
            auto string = [&]() -> std::string {
                return std::move(
                    typed(value, JsonValue::Type::String, name).string);
            };
            switch (static_cast<Req>(row)) {
            case Req::Id: req.id = string(); break;
            case Req::Tenant: req.tenant = string(); break;
            case Req::Query: {
                Result<QueryKind> kind = parseQueryKind(string());
                if (!kind)
                    fail(kind.error().message);
                req.query = kind.value();
                break;
            }
            case Req::Gpu: req.gpu = string(); break;
            case Req::Gpus:
                for (JsonValue& gpu :
                     typed(value, JsonValue::Type::Array, name).array)
                    req.gpus.push_back(schema::gpusEntry(std::move(
                        typed(gpu, JsonValue::Type::String, "gpus[]")
                            .string)));
                break;
            case Req::Scenario:
                req.scenario = parseScenario(
                    typed(value, JsonValue::Type::Object, name));
                break;
            case Req::Rates:
                for (auto& [gpu, rate] :
                     typed(value, JsonValue::Type::Object, name).object)
                    req.rates.push_back(
                        {"user", gpu,
                         typed(rate, JsonValue::Type::Number, "rates{}")
                             .number});
                break;
            case Req::Snapshot: {
                Result<std::string> raw = base64Decode(string());
                if (!raw)
                    fail(raw.error().message);
                req.snapshot = std::move(raw.value());
                break;
            }
            }
        }
        schema::validateRequest(req, present);
        return req;
    } catch (const schema::CodecError& err) {
        return Error{ErrorCode::InvalidArgument,
                     strCat("bad request: ", err.msg)};
    }
}

std::string
writePlanRequest(const PlanRequest& request)
{
    const schema::FieldSet fields = schema::requestFields(request);
    std::string out = "{";
    for (std::size_t i = 0; i < std::size(schema::kRequestFields); ++i) {
        if (!(fields >> i & 1))
            continue;
        putKey(out, schema::kRequestFields[i].json);
        switch (static_cast<Req>(i)) {
        case Req::Id: putQuoted(out, request.id); break;
        case Req::Tenant: putQuoted(out, request.tenant); break;
        case Req::Query: putQuoted(out, queryKindName(request.query)); break;
        case Req::Gpu: putQuoted(out, request.gpu); break;
        case Req::Gpus:
            out += '[';
            for (const std::string& gpu : request.gpus) {
                if (out.back() != '[')
                    out += ',';
                putQuoted(out, gpu);
            }
            out += ']';
            break;
        case Req::Scenario: putScenario(out, request.scenario); break;
        case Req::Rates:
            out += '{';
            for (const CloudOffering& rate : request.rates) {
                if (out.back() != '{')
                    out += ',';
                putQuoted(out, rate.gpuName);
                out += ':';
                out += strExact(rate.dollarsPerHour);
            }
            out += '}';
            break;
        case Req::Snapshot:
            putQuoted(out, base64Encode(request.snapshot));
            break;
        }
    }
    out += '}';
    return out;
}

std::string
writePlanResponse(const PlanResponse& response)
{
    return writeResponse(response, schema::responseFields(response, false));
}

std::string
writeProtocolError(const std::string& id, const std::string& message)
{
    PlanResponse response;
    response.id = id;
    response.errorCode = errorCodeName(ErrorCode::InvalidArgument);
    response.errorMessage = message;
    return writeResponse(response,
                         schema::protocolErrorFields(!id.empty(), false));
}

PlanResponse
errorResponse(const PlanRequest& request, const Error& error)
{
    PlanResponse response;
    response.id = request.id;
    response.query = request.query;
    response.ok = false;
    response.errorCode = errorCodeName(error.code);
    response.errorMessage = error.message;
    return response;
}

}  // namespace ftsim

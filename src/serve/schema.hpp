#ifndef FTSIM_SERVE_SCHEMA_HPP
#define FTSIM_SERVE_SCHEMA_HPP

/**
 * @file
 * The protocol's one schema: fields (JSON key + wire tag), per-kind
 * request policy, value rules, models, and what an encoder writes.
 * serve/protocol.cpp (JSON) and serve/wire.cpp (binary) keep only their
 * syntax, so what one codec accepts the other re-encodes and accepts
 * with the same identity (ProtocolFuzz, WireFuzz). tools/check_docs.py
 * holds docs/PROTOCOL.md's tag tables to the rows below.
 */

#include <array>
#include <cstdint>
#include <string>

#include "serve/protocol.hpp"

namespace ftsim::schema {

/** A decode or rule failure; each codec answers InvalidArgument with
 *  its own prefix ("bad request: " / "bad frame: "). */
struct CodecError {
    std::string msg;
};

[[noreturn]] void fail(std::string msg);

/** Fields as a bitmask (bit i: enum value i), so no rule allocates. */
using FieldSet = std::uint32_t;

template <typename Field>
constexpr FieldSet
bit(Field field)
{
    return FieldSet{1} << static_cast<unsigned>(field);
}

struct FieldSpec {
    const char* json;  ///< JSON key.
    std::uint8_t tag;  ///< Binary wire tag.
    bool key = false;  ///< Request identity: in canonicalKey().
};

/** Request fields; rows in JSON key order, enum value = row. */
enum class Req : std::uint8_t {
    Id, Tenant, Query, Gpu, Gpus, Scenario, Rates, Snapshot,
};
inline constexpr FieldSpec kRequestFields[] = {
    {"id", 2},          {"tenant", 3},         {"query", 1, true},
    {"gpu", 4, true},   {"gpus", 5, true},     {"scenario", 6, true},
    {"rates", 7, true}, {"snapshot", 8},
};

/** Response fields; rows in JSON key order, enum value = row. */
enum class Resp : std::uint8_t {
    Id, Query, Ok, Error, Message, Value, Rows, Report, Snapshot, Stats,
};
inline constexpr FieldSpec kResponseFields[] = {
    {"id", 2},       {"query", 1}, {"ok", 3},   {"error", 4},
    {"message", 5},  {"value", 6}, {"rows", 7}, {"report", 8},
    {"snapshot", 9}, {"stats", 10},
};

/** Entry t is the row of tag t; tags must be 1..N, each once. */
template <std::size_t N>
constexpr std::array<std::uint8_t, N + 1>
rowsByTag(const FieldSpec (&rows)[N])
{
    std::array<std::uint8_t, N + 1> out{};
    FieldSet seen = 0;
    for (std::size_t i = 0; i < N; ++i) {
        const unsigned tag = rows[i].tag;
        if (tag < 1 || tag > N || (seen >> tag & 1))
            throw "field tags must be 1..N, each once";
        seen |= FieldSet{1} << tag;
        out[tag] = static_cast<std::uint8_t>(i);
    }
    return out;
}
inline constexpr auto kRequestByTag = rowsByTag(kRequestFields);
inline constexpr auto kResponseByTag = rowsByTag(kResponseFields);

/** The identity fields: canonicalKey() packs these, in row order. */
template <std::size_t N>
constexpr FieldSet
keyFields(const FieldSpec (&rows)[N])
{
    FieldSet out = 0;
    for (std::size_t i = 0; i < N; ++i)
        if (rows[i].key)
            out |= FieldSet{1} << i;
    return out;
}
inline constexpr FieldSet kKeyFields = keyFields(kRequestFields);
/** plannerKey(): the (scenario, rates) tail of canonicalKey(). */
inline constexpr FieldSet kPlannerKeyFields =
    bit(Req::Scenario) | bit(Req::Rates);
static_assert(!(kKeyFields &
                (bit(Req::Id) | bit(Req::Tenant) | bit(Req::Snapshot))),
              "id and tenant never split a coalesced execution, and "
              "snapshot is only on live kinds, which are never cached");
static_assert((kKeyFields & kPlannerKeyFields) == kPlannerKeyFields,
              "one answer key never needs two planners");

/** Per-GPU, GPU-list, or live (answered from service state). */
enum class KindClass : std::uint8_t { PerGpu, Sweep, Live };

/** One row per QueryKind in declaration order (= its wire byte);
 *  `answer`: the fields of a successful answer. */
struct KindSpec {
    const char* name;
    KindClass shape;
    FieldSet answer;
};
inline constexpr KindSpec kKinds[] = {
    {"max_batch", KindClass::PerGpu, bit(Resp::Value)},
    {"throughput", KindClass::PerGpu, bit(Resp::Value)},
    {"cost_table", KindClass::Sweep, bit(Resp::Rows)},
    {"cheapest_plan", KindClass::Sweep, bit(Resp::Rows)},
    {"report", KindClass::PerGpu, bit(Resp::Report)},
    {"snapshot", KindClass::Live, bit(Resp::Value) | bit(Resp::Snapshot)},
    {"fleet", KindClass::Live, bit(Resp::Value) | bit(Resp::Report)},
    {"load_snapshot", KindClass::Live, bit(Resp::Value) | bit(Resp::Report)},
    {"stats", KindClass::Live, bit(Resp::Value) | bit(Resp::Stats)},
};
static_assert(std::size(kKinds) ==
              static_cast<std::size_t>(QueryKind::Stats) + 1);

constexpr const KindSpec&
kindSpec(QueryKind kind)
{
    return kKinds[static_cast<std::size_t>(kind)];
}

constexpr bool
isPerGpuKind(QueryKind kind)
{
    return kindSpec(kind).shape == KindClass::PerGpu;
}

/** Required request fields: the query; gpu on per-GPU kinds; snapshot
 *  on load_snapshot only. */
constexpr FieldSet
requiredFields(QueryKind kind)
{
    return bit(Req::Query) | (isPerGpuKind(kind) ? bit(Req::Gpu) : 0) |
           (kind == QueryKind::LoadSnapshot ? bit(Req::Snapshot) : 0);
}

/** Accepted request fields: live kinds take no workload field (tenant,
 *  gpu, gpus, scenario, rates); per-GPU kinds reject gpus, the others
 *  reject gpu. */
constexpr FieldSet
allowedFields(QueryKind kind)
{
    const FieldSet fields = bit(Req::Id) | requiredFields(kind);
    if (kindSpec(kind).shape == KindClass::Live)
        return fields;
    return fields | bit(Req::Tenant) | bit(Req::Scenario) |
           bit(Req::Rates) | (isPerGpuKind(kind) ? 0 : bit(Req::Gpus));
}

/** Preset models by JSON name; a model's wire id is its row + 1 (0 on
 *  the wire means absent: the preset default). */
struct ModelRow {
    const char* name;
    ModelSpec (*make)();
};
inline constexpr ModelRow kModels[] = {
    {"mixtral8x7b", &ModelSpec::mixtral8x7b},
    {"blackmamba2p8b", &ModelSpec::blackMamba2p8b},
};

/** nullptr when unknown. A foreign spec has no row: neither codec
 *  spells it, and decoding keeps the preset default. */
const ModelRow* modelByName(const std::string& name);
const ModelRow* modelOf(const ModelSpec& model);

/** The largest median_seq_len: 2^53 - 1. The JSON text 2^53 + 1 parses
 *  to the double 2^53, so no larger bound reads every spelling alike. */
inline constexpr std::uint64_t kMaxSeqLen = (std::uint64_t{1} << 53) - 1;

/** median_seq_len, checked before the cast: an integer in
 *  [1, kMaxSeqLen]. A u64 converts exactly up to the bound. */
std::size_t seqLen(double value);

/** One "gpus" entry, checked as each codec reads it: non-empty. Per
 *  entry, so a hostile list holds no memory for entries it refuses. */
std::string gpusEntry(std::string entry);

/** The kind policy, then the value rules: tenant and gpu non-empty;
 *  rates > 0, names unique; Scenario::validated(). @p present: the
 *  fields the input carried. */
void validateRequest(const PlanRequest& request, FieldSet present);

/** Encoded: each field the kind accepts, less empty optional ones. */
FieldSet requestFields(const PlanRequest& request);

/** Encoded: id if set, query, ok, then error + message or the kind's
 *  answer. Binary omits a snapshot answer's value: decode derives it. */
FieldSet responseFields(const PlanResponse& response, bool binary);

/** A protocol error's fields: no query (it never parsed). Binary's
 *  message type implies JSON's ok:false and error code. */
FieldSet protocolErrorFields(bool withId, bool binary);

/** A snapshot answer's value is its payload's byte count. */
double answerValue(const PlanResponse& response);

}  // namespace ftsim::schema

#endif  // FTSIM_SERVE_SCHEMA_HPP

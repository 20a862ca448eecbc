#include "serve/schema.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/logging.hpp"

namespace ftsim::schema {

void
fail(std::string msg)
{
    throw CodecError{std::move(msg)};
}

const ModelRow*
modelByName(const std::string& name)
{
    for (const ModelRow& row : kModels)
        if (name == row.name)
            return &row;
    return nullptr;
}

const ModelRow*
modelOf(const ModelSpec& model)
{
    const std::string fingerprint = model.fingerprint();
    for (const ModelRow& row : kModels)
        if (fingerprint == row.make().fingerprint())
            return &row;
    return nullptr;
}

std::size_t
seqLen(double value)
{
    if (!(value >= 1.0 && value <= static_cast<double>(kMaxSeqLen) &&
          value == std::floor(value)))
        fail(strCat("\"median_seq_len\" must be a positive integer of at "
                    "most ", kMaxSeqLen));
    return static_cast<std::size_t>(value);
}

std::string
gpusEntry(std::string entry)
{
    if (entry.empty())
        fail("\"gpus\" entries must be non-empty strings");
    return entry;
}

void
validateRequest(const PlanRequest& request, FieldSet present)
{
    if (!(present & bit(Req::Query)))
        fail("missing required field \"query\"");
    const char* kind = queryKindName(request.query);
    const FieldSet allowed = allowedFields(request.query);
    const FieldSet required = requiredFields(request.query);
    for (std::size_t i = 0; i < std::size(kRequestFields); ++i) {
        const FieldSet field = FieldSet{1} << i;
        if ((present & field) && !(allowed & field))
            fail(strCat('"', kRequestFields[i].json,
                        "\" is not valid for query \"", kind, '"'));
        if ((required & field) && !(present & field))
            fail(strCat("query \"", kind, "\" requires \"",
                        kRequestFields[i].json, '"'));
    }
    // An empty tenant would silently mean "untenanted" (quota-exempt):
    // make the caller say what they meant.
    if ((present & bit(Req::Tenant)) && request.tenant.empty())
        fail("\"tenant\" must not be empty (omit it instead)");
    if ((present & bit(Req::Gpu)) && request.gpu.empty())
        fail("\"gpu\" must not be empty");
    for (const CloudOffering& rate : request.rates)
        if (!(rate.dollarsPerHour > 0.0))
            fail(strCat("rate for \"", rate.gpuName,
                        "\" must be a positive number"));
    if (request.rates.size() > 1) {
        // Sorted, not pairwise: a hostile frame may carry many rates.
        std::vector<std::string_view> names;
        names.reserve(request.rates.size());
        for (const CloudOffering& rate : request.rates)
            names.push_back(rate.gpuName);
        std::sort(names.begin(), names.end());
        const auto dup = std::adjacent_find(names.begin(), names.end());
        if (dup != names.end())
            fail(strCat("duplicate rate for \"", *dup, '"'));
    }
    if (present & bit(Req::Scenario)) {
        Result<Scenario> valid = request.scenario.validated();
        if (!valid)
            fail(valid.error().message);
    }
}

FieldSet
requestFields(const PlanRequest& request)
{
    const FieldSet fields =
        bit(Req::Query) | bit(Req::Scenario) | bit(Req::Snapshot) |
        (request.id.empty() ? 0 : bit(Req::Id)) |
        (request.tenant.empty() ? 0 : bit(Req::Tenant)) |
        (request.gpu.empty() ? 0 : bit(Req::Gpu)) |
        (request.gpus.empty() ? 0 : bit(Req::Gpus)) |
        (request.rates.empty() ? 0 : bit(Req::Rates));
    return fields & allowedFields(request.query);
}

FieldSet
responseFields(const PlanResponse& response, bool binary)
{
    FieldSet fields = bit(Resp::Query) | bit(Resp::Ok) |
                      (response.id.empty() ? 0 : bit(Resp::Id));
    if (!response.ok)
        return fields | bit(Resp::Error) | bit(Resp::Message);
    fields |= kindSpec(response.query).answer;
    if (binary && response.query == QueryKind::Snapshot)
        fields &= ~bit(Resp::Value);
    return fields;
}

FieldSet
protocolErrorFields(bool withId, bool binary)
{
    const FieldSet fields =
        (withId ? bit(Resp::Id) : 0) | bit(Resp::Message);
    return binary ? fields : fields | bit(Resp::Ok) | bit(Resp::Error);
}

double
answerValue(const PlanResponse& response)
{
    return response.query == QueryKind::Snapshot
               ? static_cast<double>(response.snapshot.size())
               : response.value;
}

}  // namespace ftsim::schema

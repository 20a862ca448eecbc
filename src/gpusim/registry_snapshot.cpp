#include "gpusim/registry_snapshot.hpp"

#include <cstring>
#include <utility>
#include <vector>

#include "common/bytes.hpp"
#include "common/logging.hpp"

namespace ftsim {

namespace {

constexpr char kMagic[6] = {'F', 'T', 'S', 'N', 'A', 'P'};
constexpr std::uint32_t kVersion = 1;
/** magic + version + payload length + checksum. */
constexpr std::size_t kHeaderBytes = 6 + 4 + 8 + 8;

/** Upper bounds of the serialized enums (inclusive). */
constexpr std::uint8_t kMaxKernelKind =
    static_cast<std::uint8_t>(KernelKind::Optimizer);
constexpr std::uint8_t kMaxLayerClass =
    static_cast<std::uint8_t>(LayerClass::OptimizerState);
constexpr std::uint8_t kMaxStage =
    static_cast<std::uint8_t>(Stage::Optimizer);
constexpr std::uint8_t kMaxEvalKind =
    static_cast<std::uint8_t>(EvalKind::Lora);
constexpr std::uint8_t kMaxRowsKind =
    static_cast<std::uint8_t>(RowsKind::TokensPerExpert);

std::uint64_t
fnv1a(std::string_view bytes)
{
    std::uint64_t hash = 14695981039346656037ull;
    for (char c : bytes) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 1099511628211ull;
    }
    return hash;
}

// ---- Writer ----------------------------------------------------------

using bytes::putF64;
using bytes::putStr;
using bytes::putU8;
using bytes::putUint;

// ---- Bounds-checked reader -------------------------------------------

class Reader {
  public:
    explicit Reader(std::string_view bytes) : bytes_(bytes) {}

    bool failed() const { return failed_; }

    const std::string& problem() const { return problem_; }

    std::size_t remaining() const { return bytes_.size() - pos_; }

    std::uint8_t u8()
    {
        if (!need(1))
            return 0;
        return static_cast<unsigned char>(bytes_[pos_++]);
    }

    std::uint32_t u32()
    {
        if (!need(4))
            return 0;
        std::uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<std::uint32_t>(
                     static_cast<unsigned char>(bytes_[pos_ + i]))
                 << (8 * i);
        pos_ += 4;
        return v;
    }

    std::uint64_t u64()
    {
        if (!need(8))
            return 0;
        std::uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<std::uint64_t>(
                     static_cast<unsigned char>(bytes_[pos_ + i]))
                 << (8 * i);
        pos_ += 8;
        return v;
    }

    double f64()
    {
        const std::uint64_t bits = u64();
        double v = 0.0;
        std::memcpy(&v, &bits, sizeof(v));
        return v;
    }

    std::string str()
    {
        const std::uint32_t n = u32();
        if (!need(n))
            return std::string();
        std::string s(bytes_.substr(pos_, n));
        pos_ += n;
        return s;
    }

    void fail(std::string why)
    {
        if (!failed_) {
            failed_ = true;
            problem_ = std::move(why);
        }
    }

  private:
    bool need(std::size_t n)
    {
        if (failed_)
            return false;
        if (remaining() < n) {
            fail(strCat("truncated: wanted ", n, " bytes, ",
                        remaining(), " left"));
            return false;
        }
        return true;
    }

    std::string_view bytes_;
    std::size_t pos_ = 0;
    bool failed_ = false;
    std::string problem_;
};

/** One parsed plan, staged before insertion (all-or-nothing load). */
struct ParsedPlan {
    std::string key;
    double activeExperts = 0.0;
    double nExperts = 0.0;
    /** Names by spelling; interned into the target at insert time. */
    std::vector<std::string> names;
    std::vector<KernelKind> kinds;
    std::vector<LayerClass> layers;
    std::vector<Stage> stages;
    std::vector<double> counts;
    std::vector<double> efficiencies;
    std::vector<KernelFormula> formulas;
};

std::uint8_t
checkedEnum(Reader& in, std::uint8_t max, const char* what)
{
    const std::uint8_t v = in.u8();
    if (!in.failed() && v > max)
        in.fail(strCat("out-of-range ", what, " value ",
                       static_cast<unsigned>(v)));
    return v;
}

}  // namespace

std::string
saveRegistrySnapshot(const PlanRegistry& registry)
{
    std::string payload;
    std::uint32_t plan_count = 0;
    std::string plans;
    const StringInterner& names = registry.names();
    registry.forEachReadyPlan([&](const std::string& key,
                                  const std::shared_ptr<const StepPlan>&
                                      plan) {
        ++plan_count;
        putStr(plans, key);
        putF64(plans, plan->activeExperts);
        putF64(plans, plan->nExperts);
        putUint(plans, static_cast<std::uint32_t>(plan->size()));
        for (std::size_t i = 0; i < plan->size(); ++i) {
            // Name ids are interner-local; the spelling is the portable
            // identity (the loader re-interns into its own registry).
            putStr(plans, names.name(plan->nameIds[i]));
            putU8(plans, static_cast<std::uint8_t>(plan->kinds[i]));
            putU8(plans, static_cast<std::uint8_t>(plan->layers[i]));
            putU8(plans, static_cast<std::uint8_t>(plan->stages[i]));
            putF64(plans, plan->counts[i]);
            putF64(plans, plan->efficiencies[i]);
            const KernelFormula& f = plan->formulas[i];
            putU8(plans, static_cast<std::uint8_t>(f.eval));
            putU8(plans, static_cast<std::uint8_t>(f.rows));
            putF64(plans, f.a);
            putF64(plans, f.b);
            putF64(plans, f.c);
            putF64(plans, f.d);
            putF64(plans, f.e);
        }
    });
    putUint(payload, plan_count);
    payload += plans;

    std::string out;
    out.reserve(kHeaderBytes + payload.size());
    out.append(kMagic, sizeof(kMagic));
    putUint(out, kVersion);
    putUint(out, static_cast<std::uint64_t>(payload.size()));
    putUint(out, fnv1a(payload));
    out += payload;
    return out;
}

Result<SnapshotLoadInfo>
loadRegistrySnapshot(PlanRegistry& registry, std::string_view snapshot)
{
    auto reject = [](std::string why) {
        return Error{ErrorCode::InvalidArgument,
                     strCat("bad registry snapshot: ", std::move(why))};
    };

    if (snapshot.size() < kHeaderBytes)
        return reject(strCat("only ", snapshot.size(),
                             " bytes, header needs ", kHeaderBytes));
    if (snapshot.compare(0, sizeof(kMagic),
                         std::string_view(kMagic, sizeof(kMagic))) != 0)
        return reject("magic mismatch (not a snapshot)");

    Reader header(snapshot.substr(sizeof(kMagic)));
    const std::uint32_t version = header.u32();
    if (version != kVersion)
        return reject(strCat("version ", version, ", expected ",
                             kVersion));
    const std::uint64_t payload_bytes = header.u64();
    const std::uint64_t checksum = header.u64();
    const std::string_view payload = snapshot.substr(kHeaderBytes);
    if (payload.size() != payload_bytes)
        return reject(strCat("payload length ", payload.size(),
                             " does not match declared ",
                             payload_bytes));
    if (fnv1a(payload) != checksum)
        return reject("checksum mismatch (corrupted bytes)");

    // Parse everything before touching the registry: a snapshot that
    // fails halfway must not leave a half-adopted fleet state.
    Reader in(payload);
    const std::uint32_t plan_count = in.u32();
    std::vector<ParsedPlan> parsed;
    for (std::uint32_t p = 0; p < plan_count && !in.failed(); ++p) {
        ParsedPlan plan;
        plan.key = in.str();
        if (!in.failed() && plan.key.empty())
            in.fail("empty plan key");
        plan.activeExperts = in.f64();
        plan.nExperts = in.f64();
        const std::uint32_t kernels = in.u32();
        // Each kernel serializes to >= 58 bytes; a declared count that
        // cannot fit the remaining payload is hostile, not huge.
        if (!in.failed() &&
            static_cast<std::uint64_t>(kernels) * 58 > in.remaining())
            in.fail(strCat("kernel count ", kernels,
                           " exceeds remaining payload"));
        for (std::uint32_t k = 0; k < kernels && !in.failed(); ++k) {
            plan.names.push_back(in.str());
            plan.kinds.push_back(static_cast<KernelKind>(
                checkedEnum(in, kMaxKernelKind, "KernelKind")));
            plan.layers.push_back(static_cast<LayerClass>(
                checkedEnum(in, kMaxLayerClass, "LayerClass")));
            plan.stages.push_back(static_cast<Stage>(
                checkedEnum(in, kMaxStage, "Stage")));
            plan.counts.push_back(in.f64());
            plan.efficiencies.push_back(in.f64());
            KernelFormula f;
            f.eval = static_cast<EvalKind>(
                checkedEnum(in, kMaxEvalKind, "EvalKind"));
            f.rows = static_cast<RowsKind>(
                checkedEnum(in, kMaxRowsKind, "RowsKind"));
            f.a = in.f64();
            f.b = in.f64();
            f.c = in.f64();
            f.d = in.f64();
            f.e = in.f64();
            plan.formulas.push_back(f);
        }
        parsed.push_back(std::move(plan));
    }
    if (!in.failed() && in.remaining() > 0)
        in.fail(strCat(in.remaining(), " trailing payload bytes"));
    if (in.failed())
        return reject(in.problem());

    SnapshotLoadInfo info;
    for (ParsedPlan& plan : parsed) {
        StepPlan built;
        built.activeExperts = plan.activeExperts;
        built.nExperts = plan.nExperts;
        for (std::size_t i = 0; i < plan.names.size(); ++i)
            built.push(registry.names().intern(plan.names[i]),
                       plan.kinds[i], plan.layers[i], plan.stages[i],
                       plan.counts[i], plan.formulas[i],
                       plan.efficiencies[i]);
        // The aggregation tables (moeSlot / layersPresent) derive from
        // the arrays deterministically; recomputing them here keeps the
        // wire format minimal and cannot disagree with the donor.
        built.finalize(registry.names());
        if (registry.insertLoaded(
                plan.key,
                std::make_shared<const StepPlan>(std::move(built))))
            ++info.plansLoaded;
        else
            ++info.plansSkipped;
    }
    return info;
}

}  // namespace ftsim

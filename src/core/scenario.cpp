#include "core/scenario.hpp"

#include "common/bytes.hpp"

namespace ftsim {

Scenario
Scenario::gsMath()
{
    return Scenario{};  // The defaults *are* the GS/MATH run.
}

Scenario
Scenario::commonsense15k()
{
    Scenario s;
    s.medianSeqLen = 79;   // CS median (paper Table II).
    s.lengthSigma = 0.45;  // CS lengths spread wider than GS/MATH.
    s.numQueries = 15000.0;
    return s;
}

Scenario
Scenario::openOrca()
{
    Scenario s;
    s.numQueries = 2e6;
    return s;
}

Result<Scenario>
Scenario::validated() const
{
    if (medianSeqLen < 1)
        return Error{ErrorCode::InvalidArgument,
                     "Scenario: medianSeqLen must be >= 1"};
    if (lengthSigma < 0.0)
        return Error{ErrorCode::InvalidArgument,
                     "Scenario: lengthSigma must be >= 0"};
    if (numQueries <= 0.0)
        return Error{ErrorCode::InvalidArgument,
                     "Scenario: numQueries must be > 0"};
    if (epochs <= 0.0)
        return Error{ErrorCode::InvalidArgument,
                     "Scenario: epochs must be > 0"};
    return *this;
}

std::string
Scenario::describe() const
{
    return strCat(model.name, sparse ? " (sparse)" : " (dense)", ", ",
                  numQueries, " queries, median ", medianSeqLen,
                  " tokens (sigma ", lengthSigma, "), ", epochs,
                  " epochs");
}

std::string
Scenario::canonicalKey() const
{
    std::string key;
    appendKey(key);
    return key;
}

void
Scenario::appendKey(std::string& out) const
{
    // The fields ModelSpec::fingerprint() spells, packed directly: a
    // field added there belongs here too.
    bytes::putStr(out, model.name);
    bytes::putU8(out, static_cast<std::uint8_t>(model.backbone));
    bytes::putU8(out, static_cast<std::uint8_t>(model.expertKind));
    for (std::size_t n : {model.nLayers, model.dModel, model.nHeads,
                          model.nKvHeads, model.dFf, model.nExperts,
                          model.topKSparse, model.vocab, model.dInner,
                          model.dState, model.convK})
        bytes::putUint(out, static_cast<std::uint64_t>(n));
    bytes::putU8(out, static_cast<std::uint8_t>(model.strategy));
    bytes::putUint(out, static_cast<std::uint64_t>(model.loraRank));
    bytes::putF64(out, model.bytesPerParam);

    bytes::putUint(out, static_cast<std::uint64_t>(medianSeqLen));
    bytes::putF64(out, lengthSigma);
    bytes::putF64(out, numQueries);
    bytes::putF64(out, epochs);
    bytes::putU8(out, sparse ? 1 : 0);
    for (double knob :
         {calibration.hostOverheadUs, calibration.matmulEfficiency,
          calibration.vectorEfficiency, calibration.dequantEfficiency,
          calibration.memoryEfficiency, calibration.blocksPerSm,
          calibration.minOccupancy, calibration.stepOverheadMs,
          calibration.optimizerPasses})
        bytes::putF64(out, knob);
}

}  // namespace ftsim

#ifndef FTSIM_COMMON_BYTES_HPP
#define FTSIM_COMMON_BYTES_HPP

/**
 * @file
 * Little-endian byte writers: the one spelling of integers, doubles and
 * length-prefixed strings shared by the binary wire codec
 * (serve/wire.cpp), PlanRegistry snapshots (gpusim/registry_snapshot)
 * and the packed request keys (core/scenario, serve/protocol).
 */

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>

#include "common/logging.hpp"

namespace ftsim::bytes {

inline void
putU8(std::string& out, std::uint8_t v)
{
    out.push_back(static_cast<char>(v));
}

/** Appends @p v little-endian, in exactly sizeof(T) bytes. */
template <typename T>
void
putUint(std::string& out, T v)
{
    static_assert(std::is_unsigned_v<T>);
    char buf[sizeof v];
    for (std::size_t i = 0; i < sizeof v; ++i)
        buf[i] = static_cast<char>((v >> (8 * i)) & 0xFF);
    out.append(buf, sizeof v);
}

/** The IEEE-754 bit pattern, not a decimal spelling: every double
 *  round-trips exactly, and two finite doubles write equal bytes iff
 *  `%.17g` spells them alike (−0.0 and 0.0 differ). */
inline void
putF64(std::string& out, double v)
{
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof v);
    std::memcpy(&bits, &v, sizeof bits);
    putUint(out, bits);
}

/** A u32 length, then the bytes. */
inline void
putStr(std::string& out, std::string_view s)
{
    if (s.size() > std::numeric_limits<std::uint32_t>::max())
        fatal("bytes: string exceeds the u32 length prefix");
    putUint(out, static_cast<std::uint32_t>(s.size()));
    out.append(s.data(), s.size());
}

}  // namespace ftsim::bytes

#endif  // FTSIM_COMMON_BYTES_HPP

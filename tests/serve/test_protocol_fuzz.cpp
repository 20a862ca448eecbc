/**
 * @file
 * Deterministic protocol fuzzing (ISSUE-4): a seeded generator mutates
 * valid request lines — truncation, byte flips, insertions, duplicated
 * spans, bracket nesting, huge numbers, duplicate keys, concatenation —
 * and the parser must hold its contract for every single input:
 * return a valid request or a typed `InvalidArgument`, never crash,
 * never throw anything else, never hang. Accepted mutants must also
 * survive a write -> reparse round-trip with their coalescing identity
 * intact (a mutated line the service would cache under one key must
 * re-serialize to the same key), and a re-encode into the binary codec
 * with the same id, tenant and key.
 *
 * The iteration count (>= 10k) and the fixed seed make this a
 * regression corpus, not a flaky search: every run explores the same
 * inputs, so a failure reproduces by seed + iteration index alone.
 * ci.sh also runs this suite under ASan+UBSan, where "never crash"
 * hardens into "no UB at all".
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <random>
#include <string>
#include <vector>

#include "serve/protocol.hpp"
#include "serve/wire.hpp"
#include "support/seed_corpus.hpp"

namespace ftsim {
namespace {

/** One seeded mutation of @p line. */
std::string
mutate(std::string line, std::mt19937& rng)
{
    auto pick = [&rng](std::size_t n) {
        return std::uniform_int_distribution<std::size_t>(0, n - 1)(rng);
    };
    switch (pick(9)) {
    case 0:  // Truncate at a random byte.
        return line.substr(0, pick(line.size() + 1));
    case 1: {  // Flip one byte to an arbitrary value.
        if (line.empty())
            return line;
        line[pick(line.size())] =
            static_cast<char>(static_cast<unsigned char>(pick(256)));
        return line;
    }
    case 2: {  // Insert an arbitrary byte.
        line.insert(line.begin() + static_cast<std::ptrdiff_t>(
                                       pick(line.size() + 1)),
                    static_cast<char>(static_cast<unsigned char>(
                        pick(256))));
        return line;
    }
    case 3: {  // Duplicate a random span in place.
        if (line.empty())
            return line;
        const std::size_t start = pick(line.size());
        const std::size_t len = pick(line.size() - start) + 1;
        return line.insert(start, line.substr(start, len));
    }
    case 4: {  // Wrap in nesting (sometimes deep enough to bomb).
        const std::size_t depth = pick(2) == 0 ? pick(8) : 200;
        std::string out;
        for (std::size_t i = 0; i < depth; ++i)
            out += '[';
        out += line;
        for (std::size_t i = 0; i < depth; ++i)
            out += ']';
        return out;
    }
    case 5: {  // Replace a span with a huge / degenerate number.
        static const char* numbers[] = {
            "1e309",  "-1e309", "1e-400", "9999999999999999999999",
            "-0.0",   "1e99999", "0x10",  "1..2",
            "--5",    "1e+",     "NaN",   "Infinity",
            "+5",     ".5",      "5.",    "01",
        };
        const std::string number = numbers[pick(16)];
        if (line.empty())
            return number;
        const std::size_t start = pick(line.size());
        return line.replace(start,
                            pick(line.size() - start) + 1, number);
    }
    case 6: {  // Inject a duplicate of an existing key.
        const std::size_t brace = line.find('{');
        if (brace == std::string::npos || brace + 1 >= line.size())
            return line + line;
        static const char* keys[] = {
            R"("query":"max_batch",)", R"("id":"dup",)",
            R"("gpu":"A40",)",         R"("tenant":"dup",)",
        };
        return line.insert(brace + 1, keys[pick(4)]);
    }
    case 7: {  // Inject a \u escape (pairs, lone surrogates, junk).
        static const char* escapes[] = {
            "\\uD83D\\uDE00", "\\uD800",  "\\uDC00", "\\uDBFF\\uDFFF",
            "\\u0041",       "\\u00e9",  "\\uFFFF", "\\uD83D\\u0041",
            "\\uEFFF",       "\\uD8ZZ",
        };
        line.insert(pick(line.size() + 1), escapes[pick(10)]);
        return line;
    }
    default:  // Concatenate with itself (trailing-garbage shape).
        return line + " " + line;
    }
}

TEST(ProtocolFuzz, ParserNeverCrashesAndErrorsAreTyped)
{
    const std::vector<std::string> corpus = protocolSeedLines();
    std::mt19937 rng(20260730);  // Fixed seed: a corpus, not a dice roll.

    constexpr int kIterations = 12000;
    int accepted = 0, rejected = 0;
    for (int i = 0; i < kIterations; ++i) {
        std::string line = corpus[static_cast<std::size_t>(i) %
                                  corpus.size()];
        // Stack 1-3 mutations for compound damage.
        const int rounds = 1 + static_cast<int>(rng() % 3);
        for (int r = 0; r < rounds; ++r)
            line = mutate(std::move(line), rng);

        Result<PlanRequest> parsed = parsePlanRequest(line);
        if (!parsed.ok()) {
            // The whole contract for bad input: one typed error.
            ASSERT_EQ(parsed.code(), ErrorCode::InvalidArgument)
                << "iteration " << i << ": " << line;
            ++rejected;
            continue;
        }
        ++accepted;
        // Accepted mutants must round-trip with identity intact.
        const std::string rewritten =
            writePlanRequest(parsed.value());
        Result<PlanRequest> reparsed = parsePlanRequest(rewritten);
        ASSERT_TRUE(reparsed.ok())
            << "iteration " << i << ": accepted \"" << line
            << "\" but rejected its own rewrite \"" << rewritten
            << "\": " << reparsed.error().describe();
        ASSERT_EQ(reparsed.value().canonicalKey(),
                  parsed.value().canonicalKey())
            << "iteration " << i << ": " << line;
        // ...and the binary codec must accept them with the same
        // identity: the two encodings share one schema.
        Result<WireMessage> crossed = decodeWirePayload(
            encodeRequestFrame(parsed.value()).substr(kWireHeaderBytes));
        ASSERT_TRUE(crossed.ok())
            << "iteration " << i << ": binary rejected \"" << line
            << "\": " << crossed.error().describe();
        ASSERT_EQ(crossed.value().request.id, parsed.value().id)
            << "iteration " << i << ": " << line;
        ASSERT_EQ(crossed.value().request.tenant, parsed.value().tenant)
            << "iteration " << i << ": " << line;
        ASSERT_EQ(crossed.value().request.canonicalKey(),
                  parsed.value().canonicalKey())
            << "iteration " << i << ": " << line;
    }

    // The generator must actually exercise both sides of the contract;
    // if either count collapses to ~zero the fuzz has gone blind.
    EXPECT_GT(rejected, kIterations / 2);
    EXPECT_GT(accepted, 100);
}

TEST(ProtocolFuzz, PathologicalShapesAreRejectedQuickly)
{
    // Hand-picked nasties that a random walk might miss.
    const std::string bombs[] = {
        std::string(1 << 20, '['),
        std::string(1 << 20, '{'),
        "{" + std::string(1 << 20, '"'),
        std::string(1 << 20, '-'),
        "{\"query\":\"max_batch\",\"gpu\":\"" +
            std::string(1 << 20, 'A') + "\"}",
        "{\"query\":\"max_batch\",\"gpu\":\"A40\",\"scenario\":" +
            std::string(200, '{') + std::string(200, '}') + "}",
    };
    for (const std::string& bomb : bombs) {
        Result<PlanRequest> parsed = parsePlanRequest(bomb);
        if (!parsed.ok())
            EXPECT_EQ(parsed.code(), ErrorCode::InvalidArgument);
    }
    // A megabyte-long *valid* gpu name parses fine (strictness is
    // about shape, not size) — it would just answer UnknownGpu later.
    Result<PlanRequest> huge = parsePlanRequest(
        "{\"query\":\"max_batch\",\"gpu\":\"" +
        std::string(1 << 20, 'A') + "\"}");
    EXPECT_TRUE(huge.ok());
}

}  // namespace
}  // namespace ftsim

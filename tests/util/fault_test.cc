/**
 * @file
 * Unit tests for the deterministic fault-injection harness.
 */

#include <gtest/gtest.h>

#include <string>

#include "util/fault.h"

namespace logseek
{
namespace
{

std::string
samplePayload()
{
    std::string bytes;
    for (int i = 0; i < 256; ++i)
        bytes.push_back(static_cast<char>(i));
    return bytes;
}

TEST(Fault, KindNamesAreStable)
{
    EXPECT_STREQ(toString(FaultKind::Truncate), "truncate");
    EXPECT_STREQ(toString(FaultKind::BitFlip), "bit-flip");
    EXPECT_STREQ(toString(FaultKind::ShortRead), "short-read");
}

TEST(Fault, TruncateAtClampsToInput)
{
    EXPECT_EQ(truncateAt("abcdef", 3), "abc");
    EXPECT_EQ(truncateAt("abcdef", 0), "");
    EXPECT_EQ(truncateAt("abcdef", 100), "abcdef");
}

TEST(Fault, TruncationIsDeterministicProperPrefix)
{
    const std::string bytes = samplePayload();
    for (std::uint64_t seed = 0; seed < 64; ++seed) {
        const std::string a = injectTruncation(bytes, seed);
        const std::string b = injectTruncation(bytes, seed);
        EXPECT_EQ(a, b) << "seed " << seed;
        EXPECT_LT(a.size(), bytes.size()) << "seed " << seed;
        EXPECT_EQ(bytes.compare(0, a.size(), a), 0)
            << "seed " << seed;
    }
    EXPECT_EQ(injectTruncation("", 1), "");
}

TEST(Fault, BitFlipChangesExactlyOneBit)
{
    const std::string bytes = samplePayload();
    for (std::uint64_t seed = 0; seed < 64; ++seed) {
        const std::string flipped = injectBitFlip(bytes, seed);
        ASSERT_EQ(flipped.size(), bytes.size());
        int bits_changed = 0;
        for (std::size_t i = 0; i < bytes.size(); ++i) {
            unsigned char diff = static_cast<unsigned char>(
                bytes[i] ^ flipped[i]);
            while (diff != 0) {
                bits_changed += diff & 1;
                diff >>= 1;
            }
        }
        EXPECT_EQ(bits_changed, 1) << "seed " << seed;
        EXPECT_EQ(flipped, injectBitFlip(bytes, seed))
            << "seed " << seed;
    }
    EXPECT_EQ(injectBitFlip("", 1), "");
}

TEST(Fault, ShortReadStreamDeliversAllBytes)
{
    const std::string bytes = samplePayload();
    for (std::uint64_t seed = 0; seed < 16; ++seed) {
        ShortReadStream in(bytes, seed, 5);
        std::string out(bytes.size(), '\0');
        in.read(out.data(),
                static_cast<std::streamsize>(out.size()));
        EXPECT_EQ(static_cast<std::size_t>(in.gcount()),
                  bytes.size())
            << "seed " << seed;
        EXPECT_EQ(out, bytes) << "seed " << seed;
        // Nothing left after the payload.
        char extra;
        EXPECT_FALSE(in.read(&extra, 1));
    }
}

TEST(Fault, ShortReadStreamSurvivesByteAtATimeReads)
{
    const std::string bytes = samplePayload();
    ShortReadStream in(bytes, 42, 3);
    std::string out;
    char c;
    while (in.get(c))
        out.push_back(c);
    EXPECT_EQ(out, bytes);
}

TEST(Fault, ShortReadStreamHandlesEmptyInput)
{
    ShortReadStream in(std::string(), 1);
    char c;
    EXPECT_FALSE(in.get(c));
}

} // namespace
} // namespace logseek

/**
 * @file
 * Unit tests for the CRC-guarded LCKP record framing: the CRC-32
 * implementation, frame round-trips, torn-tail and bit-flip damage
 * recovery, and resync after mid-image corruption.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "util/checkpoint.h"
#include "util/fault.h"

namespace logseek
{
namespace
{

std::string
imageOf(const std::vector<std::string> &payloads)
{
    std::string image;
    for (const std::string &payload : payloads)
        appendCheckpointFrame(image, payload);
    return image;
}

TEST(Crc32, MatchesTheIeeeCheckValue)
{
    // The canonical CRC-32 check value.
    EXPECT_EQ(crc32("123456789"), 0xCBF43926u);
    EXPECT_EQ(crc32(""), 0u);
    EXPECT_NE(crc32("a"), crc32("b"));
}

TEST(Checkpoint, EmptyImageParsesClean)
{
    const CheckpointLoad load = parseCheckpoint("");
    EXPECT_TRUE(load.clean());
    EXPECT_TRUE(load.records.empty());
}

TEST(Checkpoint, FramesRoundTrip)
{
    const std::vector<std::string> payloads = {
        "alpha", std::string(1, '\0') + "binary\xffpayload", "",
        std::string(5000, 'z')};
    const CheckpointLoad load = parseCheckpoint(imageOf(payloads));
    EXPECT_TRUE(load.clean());
    EXPECT_EQ(load.records, payloads);
    EXPECT_EQ(load.bytesDropped, 0u);
}

TEST(Checkpoint, TornTailTruncatesToLastWholeRecord)
{
    const std::string image = imageOf({"one", "two", "three"});
    // Cut anywhere strictly inside the final frame (its 12-byte
    // header plus "three"): the record is lost, the first two
    // survive, and the damage is flagged as a torn tail — never as
    // corruption.
    const std::size_t last_frame = 12 + 5;
    for (std::size_t cut = image.size() - last_frame + 1;
         cut < image.size(); ++cut) {
        const CheckpointLoad load =
            parseCheckpoint(image.substr(0, cut));
        EXPECT_TRUE(load.tornTail) << "cut " << cut;
        EXPECT_EQ(load.damagedFrames, 0u) << "cut " << cut;
        ASSERT_EQ(load.records.size(), 2u) << "cut " << cut;
        EXPECT_EQ(load.records[0], "one");
        EXPECT_EQ(load.records[1], "two");
    }
}

TEST(Checkpoint, BitFlipLosesOnlyTheDamagedFrame)
{
    const std::vector<std::string> payloads = {"first", "second",
                                               "third"};
    const std::string image = imageOf(payloads);

    // Flip one bit in the middle frame's payload: the CRC catches
    // it, the reader resyncs on the next magic, and the other two
    // records survive.
    std::string damaged = image;
    const std::size_t frame = image.size() / payloads.size();
    damaged[frame + 14] =
        static_cast<char>(damaged[frame + 14] ^ 0x10);

    const CheckpointLoad load = parseCheckpoint(damaged);
    EXPECT_FALSE(load.clean());
    EXPECT_EQ(load.damagedFrames, 1u);
    EXPECT_FALSE(load.tornTail);
    ASSERT_EQ(load.records.size(), 2u);
    EXPECT_EQ(load.records[0], "first");
    EXPECT_EQ(load.records[1], "third");
    EXPECT_GT(load.bytesDropped, 0u);
}

TEST(Checkpoint, EveryPossibleBitFlipKeepsTheOtherRecords)
{
    const std::string image = imageOf({"aaaa", "bbbb", "cccc"});
    const std::size_t frame = image.size() / 3;
    // Damage anywhere in the middle frame; the outer records must
    // always survive.
    for (std::size_t at = frame; at < 2 * frame; ++at) {
        std::string damaged = image;
        damaged[at] = static_cast<char>(damaged[at] ^ 0x01);
        const CheckpointLoad load = parseCheckpoint(damaged);
        ASSERT_GE(load.records.size(), 2u) << "flip at " << at;
        EXPECT_EQ(load.records.front(), "aaaa") << "flip at " << at;
        EXPECT_EQ(load.records.back(), "cccc") << "flip at " << at;
    }
}

TEST(Checkpoint, GarbageBetweenFramesIsSkipped)
{
    std::string image = imageOf({"head"});
    image += "garbage bytes that are not a frame";
    appendCheckpointFrame(image, "tail");

    const CheckpointLoad load = parseCheckpoint(image);
    EXPECT_FALSE(load.clean());
    ASSERT_EQ(load.records.size(), 2u);
    EXPECT_EQ(load.records[0], "head");
    EXPECT_EQ(load.records[1], "tail");
}

TEST(Checkpoint, SeededTruncationsNeverCrashTheParser)
{
    const std::string image =
        imageOf({"one", "two", "three", "four"});
    for (std::uint64_t seed = 0; seed < 64; ++seed) {
        const std::string cut = injectTruncation(image, seed);
        const CheckpointLoad load = parseCheckpoint(cut);
        // Recovered records are always a prefix-consistent subset.
        EXPECT_LE(load.records.size(), 4u) << "seed " << seed;
    }
}

TEST(Checkpoint, SeededBitFlipsNeverCrashTheParser)
{
    const std::string image =
        imageOf({"one", "two", "three", "four"});
    for (std::uint64_t seed = 0; seed < 64; ++seed) {
        const CheckpointLoad load =
            parseCheckpoint(injectBitFlip(image, seed));
        EXPECT_LE(load.records.size(), 4u) << "seed " << seed;
    }
}

} // namespace
} // namespace logseek

/**
 * @file
 * Tests for stage checkpoints (dnasim.checkpoint.v1): manifest
 * round-trip and mutation fuzzing, the manifest-written-last commit
 * contract, and the little-endian u32 sidecar files.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>

#include "base/logging.hh"
#include "base/rng.hh"
#include "pipeline/checkpoint.hh"

namespace dnasim
{
namespace
{

namespace fs = std::filesystem;

std::string
tempDir(const std::string &name)
{
    const std::string dir =
        ::testing::TempDir() + "/dnasim_ckpt_" + name;
    fs::remove_all(dir);
    fs::create_directories(dir);
    return dir;
}

TEST(Checkpoint, ManifestRoundTrips)
{
    CheckpointDir ckpt(tempDir("roundtrip"));
    EXPECT_FALSE(ckpt.hasManifest());

    CheckpointManifest manifest;
    manifest.stage = "cluster";
    manifest.seed = 0x51a70;
    manifest.num_refs = 300;
    manifest.num_reads = 8254;
    manifest.num_clusters = 4315;
    manifest.config = {{"index", "sketch"}, {"shards", "4"}};
    std::string error;
    ASSERT_TRUE(ckpt.writeManifest(manifest, &error)) << error;
    EXPECT_TRUE(ckpt.hasManifest());

    CheckpointManifest back;
    ASSERT_TRUE(ckpt.readManifest(back, &error)) << error;
    EXPECT_EQ(back.stage, "cluster");
    EXPECT_EQ(back.seed, 0x51a70u);
    EXPECT_EQ(back.num_refs, 300u);
    EXPECT_EQ(back.num_reads, 8254u);
    EXPECT_EQ(back.num_clusters, 4315u);
    EXPECT_EQ(back.config, manifest.config);
    fs::remove_all(ckpt.dir());
}

TEST(Checkpoint, MissingManifestReadFails)
{
    CheckpointDir ckpt(tempDir("missing"));
    CheckpointManifest manifest;
    std::string error;
    EXPECT_FALSE(ckpt.readManifest(manifest, &error));
    EXPECT_FALSE(error.empty());
    fs::remove_all(ckpt.dir());
}

TEST(Checkpoint, MalformedManifestReadFails)
{
    CheckpointDir ckpt(tempDir("malformed"));
    {
        std::ofstream os(ckpt.manifestPath());
        os << "{\"schema\": \"something.else.v1\"}\n";
    }
    CheckpointManifest manifest;
    std::string error;
    EXPECT_FALSE(ckpt.readManifest(manifest, &error));
    EXPECT_FALSE(error.empty());
    fs::remove_all(ckpt.dir());
}

// Every mutant of a written manifest must parse or be refused
// cleanly (false with a message, or FatalError); it must never abort
// or throw anything else. The ASan/UBSan lane runs this through
// ctest.
TEST(ManifestFuzz, MutantsParseOrAreRefusedWithAMessage)
{
    CheckpointDir ckpt(tempDir("fuzz"));
    CheckpointManifest manifest;
    manifest.stage = "cluster";
    manifest.seed = 0x51a70;
    manifest.num_refs = 300;
    manifest.num_reads = 8254;
    manifest.num_clusters = 4315;
    manifest.config = {{"index", "sketch"}, {"shards", "4"}};
    ASSERT_TRUE(ckpt.writeManifest(manifest));
    std::string text;
    {
        std::ifstream in(ckpt.manifestPath(), std::ios::binary);
        std::ostringstream buf;
        buf << in.rdbuf();
        text = buf.str();
    }
    ASSERT_FALSE(text.empty());

    // Bytes that matter to a JSON parser, and values of every kind
    // and range to put where a value was.
    static const char kJsonBytes[] = "{}[]\":,\\0123456789eE.-+ \n\t";
    static const char *const kValues[] = {
        "-1", "0.5", "1e300", "-1e300", "18446744073709551616",
        "1e19", "null", "true", "[]", "{}", "\"\"", "\"\\u0000\"",
        "[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[[",
    };
    Rng rng(0x3a1f);
    auto anyByte = [&rng] {
        return rng.bernoulli(0.5)
                   ? kJsonBytes[rng.index(sizeof(kJsonBytes) - 1)]
                   : static_cast<char>(rng.index(256));
    };
    size_t parsed = 0, refused = 0;
    for (int trial = 0; trial < 2000; ++trial) {
        std::string m = text;
        switch (trial % 6) {
          case 0: // byte substitutions
            for (size_t n = 1 + rng.index(3); n-- > 0;)
                m[rng.index(m.size())] = anyByte();
            break;
          case 1: // byte insertions
            for (size_t n = 1 + rng.index(3); n-- > 0;)
                m.insert(m.begin() + static_cast<ptrdiff_t>(
                                         rng.index(m.size() + 1)),
                         anyByte());
            break;
          case 2: // byte deletions
            for (size_t n = 1 + rng.index(3); n-- > 0 && !m.empty();)
                m.erase(m.begin() +
                        static_cast<ptrdiff_t>(rng.index(m.size())));
            break;
          case 3: // truncation
            m.resize(rng.index(m.size() + 1));
            break;
          case 4: { // a value replaced by one of another kind or range
            const size_t colon = m.find(':', rng.index(m.size()));
            if (colon == std::string::npos)
                break;
            const size_t end = m.find_first_of(",}\n", colon);
            m.replace(colon + 1,
                      (end == std::string::npos ? m.size() : end) -
                          colon - 1,
                      kValues[rng.index(std::size(kValues))]);
            break;
          }
          default: { // a duplicated line (a repeated key)
            const size_t at = m.find('\n', rng.index(m.size()));
            if (at == std::string::npos)
                break;
            const size_t next = m.find('\n', at + 1);
            if (next != std::string::npos)
                m.insert(at + 1, m.substr(at + 1, next - at));
          }
        }
        {
            std::ofstream os(ckpt.manifestPath(),
                             std::ios::binary | std::ios::trunc);
            os << m;
        }
        CheckpointManifest back;
        std::string error;
        try {
            if (ckpt.readManifest(back, &error)) {
                ++parsed;
            } else {
                ++refused;
                EXPECT_FALSE(error.empty()) << "trial " << trial;
            }
        } catch (const FatalError &) {
            ++refused;
        }
    }
    EXPECT_GT(parsed, 0u);
    EXPECT_GT(refused, 0u);

    // Counts past 2^64 (whose conversion would be undefined) and
    // negative ones read as 0.
    {
        std::ofstream os(ckpt.manifestPath(), std::ios::trunc);
        os << "{\"schema\": \"dnasim.checkpoint.v1\", \"seed\": 1e300, "
              "\"num_refs\": 18446744073709551616, \"num_reads\": -1}\n";
    }
    CheckpointManifest back;
    ASSERT_TRUE(ckpt.readManifest(back));
    EXPECT_EQ(back.seed, 0u);
    EXPECT_EQ(back.num_refs, 0u);
    EXPECT_EQ(back.num_reads, 0u);
    fs::remove_all(ckpt.dir());
}

TEST(Checkpoint, ManifestWriteIsAtomic)
{
    CheckpointDir ckpt(tempDir("atomic"));
    CheckpointManifest manifest;
    manifest.stage = "simulate";
    ASSERT_TRUE(ckpt.writeManifest(manifest));
    // No temp debris next to the committed file.
    size_t entries = 0;
    for (const auto &e : fs::directory_iterator(ckpt.dir())) {
        (void)e;
        ++entries;
    }
    EXPECT_EQ(entries, 1u);
    fs::remove_all(ckpt.dir());
}

TEST(Checkpoint, PathLayoutIsStable)
{
    CheckpointDir ckpt("ck");
    EXPECT_EQ(ckpt.refsPath(), "ck/refs.dnapool");
    EXPECT_EQ(ckpt.readsPath(), "ck/reads.dnapool");
    EXPECT_EQ(ckpt.originsPath(), "ck/origins.u32");
    EXPECT_EQ(ckpt.assignmentsPath(), "ck/assignments.u32");
    EXPECT_EQ(ckpt.representativesPath(),
              "ck/representatives.dnapool");
    EXPECT_EQ(ckpt.manifestPath(), "ck/manifest.json");
}

TEST(U32File, RoundTripsLittleEndian)
{
    const std::string path =
        ::testing::TempDir() + "/dnasim_ckpt_u32.bin";
    const std::vector<uint32_t> values = {0, 1, 0x01020304,
                                          0xffffffffu};
    std::string error;
    ASSERT_TRUE(writeU32File(path, values, &error)) << error;

    // On-disk bytes are little-endian regardless of host order.
    std::ifstream is(path, std::ios::binary);
    std::vector<unsigned char> bytes(16);
    is.read(reinterpret_cast<char *>(bytes.data()), 16);
    ASSERT_TRUE(is.good());
    EXPECT_EQ(bytes[8], 0x04);
    EXPECT_EQ(bytes[9], 0x03);
    EXPECT_EQ(bytes[10], 0x02);
    EXPECT_EQ(bytes[11], 0x01);

    std::vector<uint32_t> back;
    ASSERT_TRUE(readU32File(path, back, &error)) << error;
    EXPECT_EQ(back, values);
    fs::remove(path);
}

TEST(U32File, EmptyVectorRoundTrips)
{
    const std::string path =
        ::testing::TempDir() + "/dnasim_ckpt_u32_empty.bin";
    std::vector<uint32_t> back = {7};
    ASSERT_TRUE(writeU32File(path, {}));
    ASSERT_TRUE(readU32File(path, back));
    EXPECT_TRUE(back.empty());
    fs::remove(path);
}

TEST(U32File, MissingFileReadFails)
{
    std::vector<uint32_t> out;
    std::string error;
    EXPECT_FALSE(readU32File(::testing::TempDir() +
                                 "/dnasim_ckpt_nope.bin",
                             out, &error));
    EXPECT_FALSE(error.empty());
}

} // anonymous namespace
} // namespace dnasim

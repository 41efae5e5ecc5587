/**
 * @file
 * Tests for the mmap-backed strand pool: the dnapool v1 builder /
 * reader pair, corrupted-file rejection, the StrandPoolView facade
 * over both backings, and the bounded-memory text ingester with its
 * format sniffer.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "base/strand_pool.hh"
#include "data/dataset.hh"
#include "data/ingest.hh"
#include "data/io.hh"
#include "data/strand_factory.hh"

namespace dnasim
{
namespace
{

namespace fs = std::filesystem;

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "/dnasim_pool_" + name;
}

void
writeText(const std::string &path, const std::string &text)
{
    std::ofstream os(path);
    os << text;
}

/** Build a pool file from @p strands, asserting success. */
std::string
buildPool(const std::string &name,
          const std::vector<Strand> &strands)
{
    const std::string path = tempPath(name);
    PackedStrandPoolBuilder builder;
    std::string error;
    EXPECT_TRUE(builder.open(path, &error)) << error;
    for (const auto &s : strands)
        EXPECT_TRUE(builder.append(s)) << s;
    EXPECT_TRUE(builder.finish(&error)) << error;
    return path;
}

TEST(PackedStrandPool, RoundTripIsByteIdentical)
{
    // Lengths straddling every packing edge case: empty, sub-word,
    // exactly one word (32 bases), word + 1, multi-word.
    std::vector<Strand> strands = {
        "", "A", "ACGT", Strand(31, 'C'), Strand(32, 'G'),
        Strand(33, 'T'), Strand(64, 'A') + Strand(10, 'C'),
    };
    StrandFactory factory;
    Rng rng(0x9001);
    for (size_t i = 0; i < 20; ++i)
        strands.push_back(factory.make(90 + i, rng));

    const std::string path = buildPool("roundtrip.dnapool", strands);
    PackedStrandPool pool;
    std::string error;
    ASSERT_TRUE(pool.open(path, &error)) << error;
    ASSERT_EQ(pool.size(), strands.size());
    uint64_t bases = 0;
    Strand scratch;
    for (size_t i = 0; i < strands.size(); ++i) {
        EXPECT_EQ(pool.length(i), strands[i].size());
        EXPECT_EQ(pool.strand(i), strands[i]);
        pool.unpackInto(i, scratch);
        EXPECT_EQ(scratch, strands[i]);
        bases += strands[i].size();
    }
    EXPECT_EQ(pool.totalBases(), bases);
    fs::remove(path);
}

TEST(PackedStrandPool, EmptyPoolRoundTrips)
{
    const std::string path = buildPool("empty.dnapool", {});
    PackedStrandPool pool;
    std::string error;
    ASSERT_TRUE(pool.open(path, &error)) << error;
    EXPECT_EQ(pool.size(), 0u);
    EXPECT_TRUE(pool.empty());
    EXPECT_EQ(pool.totalBases(), 0u);
    fs::remove(path);
}

TEST(PackedStrandPool, BuilderRejectsNonAcgt)
{
    PackedStrandPoolBuilder builder;
    const std::string path = tempPath("reject.dnapool");
    ASSERT_TRUE(builder.open(path));
    EXPECT_TRUE(builder.append("ACGT"));
    EXPECT_FALSE(builder.append("ACGN"));
    EXPECT_FALSE(builder.append("acgt"));
    EXPECT_EQ(builder.count(), 1u);
    ASSERT_TRUE(builder.finish());
    PackedStrandPool pool;
    ASSERT_TRUE(pool.open(path));
    EXPECT_EQ(pool.size(), 1u);
    EXPECT_EQ(pool.strand(0), "ACGT");
    fs::remove(path);
}

TEST(PackedStrandPool, TruncatedFileFailsOpenCleanly)
{
    std::vector<Strand> strands(50, Strand(110, 'A'));
    const std::string path = buildPool("truncated.dnapool", strands);
    const auto full = fs::file_size(path);
    // Cut the file mid-arena: the header still promises the full
    // index + arena, so open must fail before touching a strand.
    fs::resize_file(path, full / 2);
    PackedStrandPool pool;
    std::string error;
    EXPECT_FALSE(pool.open(path, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(pool.isOpen());

    // Cutting into the header itself must fail too.
    fs::resize_file(path, 10);
    EXPECT_FALSE(pool.open(path, &error));
    fs::remove(path);
}

TEST(PackedStrandPool, WrongMagicFailsOpen)
{
    const std::string path =
        buildPool("magic.dnapool", {Strand("ACGT")});
    {
        std::fstream f(path, std::ios::in | std::ios::out |
                                 std::ios::binary);
        f.put('X');
    }
    PackedStrandPool pool;
    std::string error;
    EXPECT_FALSE(pool.open(path, &error));
    EXPECT_FALSE(error.empty());
    fs::remove(path);
}

/** Overwrite the u64 at byte @p offset of the file at @p path. */
void
pokeU64(const std::string &path, uint64_t offset, uint64_t value)
{
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(static_cast<std::streamoff>(offset));
    f.write(reinterpret_cast<const char *>(&value), sizeof(value));
}

TEST(PackedStrandPool, HostileIndexEntryFailsOpenCleanly)
{
    // Index entry 0 is {word_offset, length} at file bytes 64..79.
    // Each hostile entry points outside the arena; open must refuse
    // it up front instead of faulting or panicking on first access.
    struct Hostile
    {
        const char *what;
        uint64_t offset; ///< byte offset of the overwritten word
        uint64_t value;
    };
    const Hostile cases[] = {
        {"length 10^9", 72, 1'000'000'000ull},
        {"word offset 10^12", 64, 1'000'000'000'000ull},
        // numWords(2^64 - 1) wraps to 0 words; it must not pass.
        {"length 2^64 - 1", 72, ~0ull},
    };
    StrandFactory factory;
    Rng rng(0x9003);
    const std::vector<Strand> strands = factory.makeMany(20, 110, rng);
    for (const Hostile &c : cases) {
        const std::string path = buildPool("hostile.dnapool", strands);
        pokeU64(path, c.offset, c.value);
        PackedStrandPool pool;
        std::string error;
        EXPECT_FALSE(pool.open(path, &error)) << c.what;
        EXPECT_NE(error.find("truncated or corrupt dnapool file"),
                  std::string::npos)
            << c.what << ": " << error;
        EXPECT_NE(error.find("entry 0"), std::string::npos)
            << c.what << ": " << error;
        EXPECT_FALSE(pool.isOpen()) << c.what;
        fs::remove(path);
    }
}

TEST(PackedStrandPool, MutatedHeaderAndIndexNeverReadOutOfBounds)
{
    // Deterministic mutation fuzzing: overwrite random header and
    // index words of a small pool with hostile values. Every mutant
    // must either fail open cleanly or open with every strand inside
    // the arena, and read back without faulting.
    StrandFactory factory;
    Rng make(0x9004);
    std::vector<Strand> strands = factory.makeMany(12, 40, make);
    strands.push_back("");
    strands.push_back(Strand(32, 'G'));
    strands.push_back(Strand(33, 'T'));
    const std::string clean_path = buildPool("fuzz_clean.dnapool", strands);
    std::string clean;
    {
        std::ifstream in(clean_path, std::ios::binary);
        clean.assign(std::istreambuf_iterator<char>(in),
                     std::istreambuf_iterator<char>());
    }
    fs::remove(clean_path);
    const size_t num_words = clean.size() / 8;
    const size_t index_words = 8 + 2 * strands.size();
    ASSERT_GT(num_words, index_words);
    uint64_t arena_words = 0;
    std::memcpy(&arena_words, clean.data() + 24, 8);

    const uint64_t hostile[] = {0,
                                1,
                                arena_words - 1,
                                arena_words,
                                arena_words + 1,
                                1ull << 32,
                                1ull << 63,
                                ~0ull};
    const std::string path = tempPath("fuzz_mutant.dnapool");
    Rng rng(0xf022);
    size_t opened = 0, rejected = 0;
    Strand scratch;
    for (int iter = 0; iter < 2000; ++iter) {
        std::string mutant = clean;
        const size_t edits = 1 + rng.index(3);
        for (size_t e = 0; e < edits; ++e) {
            // Words 1..7 are the header after the magic; the index
            // follows. The magic itself is covered elsewhere.
            const size_t word = 1 + rng.index(index_words - 1);
            const uint64_t value = rng.index(4) == 0
                                       ? rng.engine()()
                                       : hostile[rng.index(8)];
            std::memcpy(mutant.data() + 8 * word, &value, 8);
        }
        {
            std::ofstream out(path, std::ios::binary | std::ios::trunc);
            out.write(mutant.data(),
                      static_cast<std::streamsize>(mutant.size()));
        }
        PackedStrandPool pool;
        std::string error;
        if (!pool.open(path, &error)) {
            EXPECT_FALSE(error.empty()) << "iteration " << iter;
            ++rejected;
            continue;
        }
        ++opened;
        // Re-derive the bounds from the mutant bytes themselves, so
        // the check does not trust the reader under test.
        uint64_t header[8];
        std::memcpy(header, mutant.data(), sizeof(header));
        const uint64_t file_words = mutant.size() / 8;
        ASSERT_LE(header[3], file_words) << "iteration " << iter;
        ASSERT_LE(header[5] / 8, file_words - header[3])
            << "iteration " << iter;
        for (size_t i = 0; i < pool.size(); ++i) {
            uint64_t entry[2];
            std::memcpy(entry, mutant.data() + header[4] + 16 * i,
                        sizeof(entry));
            const uint64_t words = entry[1] / 32 + (entry[1] % 32 != 0);
            ASSERT_LE(entry[0], header[3]) << "iteration " << iter;
            ASSERT_LE(words, header[3] - entry[0])
                << "iteration " << iter;
            ASSERT_EQ(pool.words(i).size(), words);
            pool.unpackInto(i, scratch);
            ASSERT_EQ(scratch.size(), entry[1]);
        }
    }
    fs::remove(path);
    // Both outcomes must actually occur, or the mutations are
    // missing the index (or never touching it harmlessly).
    EXPECT_GT(opened, 100u);
    EXPECT_GT(rejected, 100u);
}

TEST(PackedStrandPool, MissingFileFailsOpen)
{
    PackedStrandPool pool;
    std::string error;
    EXPECT_FALSE(pool.open(tempPath("does_not_exist.dnapool"),
                           &error));
    EXPECT_FALSE(error.empty());
}

TEST(StrandPoolView, PoolAndVectorBackingsAgree)
{
    StrandFactory factory;
    Rng rng(0x9002);
    std::vector<Strand> strands = factory.makeMany(40, 110, rng);
    const std::string path = buildPool("view.dnapool", strands);
    PackedStrandPool pool;
    ASSERT_TRUE(pool.open(path));

    StrandPoolView vec_view(strands);
    StrandPoolView pool_view(pool);
    ASSERT_EQ(vec_view.size(), pool_view.size());
    EXPECT_FALSE(vec_view.poolBacked());
    EXPECT_TRUE(pool_view.poolBacked());

    Strand scratch, out_a, out_b;
    std::vector<uint64_t> pack_scratch;
    for (size_t i = 0; i < strands.size(); ++i) {
        EXPECT_EQ(vec_view.length(i), pool_view.length(i));
        EXPECT_EQ(vec_view.chars(i, scratch),
                  std::string_view(strands[i]));
        EXPECT_EQ(pool_view.chars(i, scratch),
                  std::string_view(strands[i]));
        vec_view.materialize(i, out_a);
        pool_view.materialize(i, out_b);
        EXPECT_EQ(out_a, out_b);

        std::span<const uint64_t> words_a, words_b;
        size_t len_a = 0, len_b = 0;
        ASSERT_TRUE(vec_view.packed(i, pack_scratch, words_a, len_a));
        ASSERT_TRUE(pool_view.packed(i, pack_scratch, words_b,
                                     len_b));
        ASSERT_EQ(len_a, len_b);
        ASSERT_EQ(words_a.size(), words_b.size());
        for (size_t w = 0; w < words_a.size(); ++w)
            EXPECT_EQ(words_a[w], words_b[w]);
    }
    fs::remove(path);
}

TEST(StrandPoolView, TruncateLimitsSize)
{
    std::vector<Strand> strands(10, Strand("ACGT"));
    StrandPoolView view(strands);
    EXPECT_EQ(view.size(), 10u);
    view.truncate(3);
    EXPECT_EQ(view.size(), 3u);
    view.truncate(100); // beyond the backing: no-op cap
    EXPECT_EQ(view.size(), 10u);
    view.truncate(0); // 0 = unlimited
    EXPECT_EQ(view.size(), 10u);
}

TEST(IngestToPool, LinesSkipsBlankAndNonAcgt)
{
    const std::string input = tempPath("lines.txt");
    writeText(input, "ACGTACGT\n\nACGTNNNN\nTTTT\n\n");
    const std::string out = tempPath("lines.dnapool");
    IngestOptions options;
    IngestResult result;
    std::string error;
    ASSERT_TRUE(
        ingestToPool(input, out, options, result, &error))
        << error;
    EXPECT_EQ(result.reads, 2u);
    EXPECT_EQ(result.skipped, 1u);
    PackedStrandPool pool;
    ASSERT_TRUE(pool.open(out));
    ASSERT_EQ(pool.size(), 2u);
    EXPECT_EQ(pool.strand(0), "ACGTACGT");
    EXPECT_EQ(pool.strand(1), "TTTT");
    fs::remove(input);
    fs::remove(out);
}

TEST(IngestToPool, FastaConcatenatesRecordLines)
{
    const std::string input = tempPath("reads.fasta");
    writeText(input, ">r1 desc\nACGT\nACGT\n>r2\nTTTT\n");
    const std::string out = tempPath("fasta.dnapool");
    IngestOptions options;
    options.format = sniffIngestFormat(input); // must sniff Fasta
    IngestResult result;
    std::string error;
    ASSERT_TRUE(
        ingestToPool(input, out, options, result, &error))
        << error;
    EXPECT_EQ(result.reads, 2u);
    PackedStrandPool pool;
    ASSERT_TRUE(pool.open(out));
    EXPECT_EQ(pool.strand(0), "ACGTACGT");
    EXPECT_EQ(pool.strand(1), "TTTT");
    fs::remove(input);
    fs::remove(out);
}

TEST(IngestToPool, EvyatWithOriginsAndMaxReads)
{
    Dataset data;
    data.add({Strand(40, 'A'),
              {Strand(40, 'A'), Strand(40, 'A')}});
    data.add({Strand(40, 'C'), {Strand(40, 'C')}});
    data.add({Strand(40, 'G'),
              {Strand(40, 'G'), Strand(40, 'G')}});
    const std::string input = tempPath("clusters.evyat");
    writeEvyatFile(data, input);

    const std::string out = tempPath("evyat.dnapool");
    IngestOptions options;
    options.format = sniffIngestFormat(input);
    IngestResult result;
    std::string error;
    ASSERT_TRUE(
        ingestToPool(input, out, options, result, &error))
        << error;
    EXPECT_EQ(result.reads, 5u);
    EXPECT_EQ(result.clusters, 3u);
    EXPECT_EQ(result.origins, (std::vector<uint32_t>{0, 0, 1, 2, 2}));

    // max_reads stops mid-dataset.
    IngestOptions capped = options;
    capped.max_reads = 3;
    ASSERT_TRUE(
        ingestToPool(input, out, capped, result, &error))
        << error;
    EXPECT_EQ(result.reads, 3u);
    PackedStrandPool pool;
    ASSERT_TRUE(pool.open(out));
    EXPECT_EQ(pool.size(), 3u);
    EXPECT_EQ(result.origins, (std::vector<uint32_t>{0, 0, 1}));
    fs::remove(input);
    fs::remove(out);
}

TEST(IngestToPool, SniffRecognizesAllFormats)
{
    const std::string fasta = tempPath("sniff.fasta");
    writeText(fasta, ">r\nACGT\n");
    const std::string lines = tempPath("sniff.txt");
    writeText(lines, "ACGT\nTTTT\n");
    const std::string evyat = tempPath("sniff.evyat");
    Dataset data;
    data.add({Strand("ACGT"), {Strand("ACGT")}});
    writeEvyatFile(data, evyat);

    EXPECT_EQ(sniffIngestFormat(fasta), IngestFormat::Fasta);
    EXPECT_EQ(sniffIngestFormat(lines), IngestFormat::Lines);
    EXPECT_EQ(sniffIngestFormat(evyat), IngestFormat::Evyat);
    EXPECT_STREQ(ingestFormatName(IngestFormat::Fasta), "fasta");
    EXPECT_STREQ(ingestFormatName(IngestFormat::Evyat), "evyat");
    fs::remove(fasta);
    fs::remove(lines);
    fs::remove(evyat);
}

TEST(IngestToPool, MissingInputFails)
{
    IngestOptions options;
    IngestResult result;
    std::string error;
    EXPECT_FALSE(ingestToPool(tempPath("nope.txt"),
                              tempPath("nope.dnapool"), options,
                              result, &error));
    EXPECT_FALSE(error.empty());
    EXPECT_FALSE(fs::exists(tempPath("nope.dnapool")));
}

} // anonymous namespace
} // namespace dnasim

/**
 * @file
 * Unit tests for the data library: dataset containers and the
 * fixed-coverage protocol, the strand factory, and evyat-format I/O,
 * whose one parser readEvyat() and ingest share.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <set>
#include <sstream>

#include "base/logging.hh"
#include "base/rng.hh"
#include "base/strand_pool.hh"
#include "data/dataset.hh"
#include "data/ingest.hh"
#include "data/io.hh"
#include "data/strand_factory.hh"

namespace dnasim
{
namespace
{

Dataset
sampleDataset()
{
    Dataset data;
    Cluster a;
    a.reference = "ACGTACGTAC";
    a.copies = {"ACGTACGTAC", "ACGTAGGTAC", "ACGTACGTA"};
    data.add(a);
    Cluster b;
    b.reference = "TTTTGGGGCC";
    b.copies = {"TTTTGGGGCC"};
    data.add(b);
    Cluster erasure;
    erasure.reference = "GGGGCCCCAA";
    data.add(erasure);
    return data;
}

TEST(Dataset, BasicShape)
{
    Dataset data = sampleDataset();
    EXPECT_EQ(data.size(), 3u);
    EXPECT_EQ(data.totalCopies(), 4u);
    EXPECT_TRUE(data[2].isErasure());
    EXPECT_EQ(data.coverages(), (std::vector<size_t>{3, 1, 0}));
}

TEST(Dataset, StatsBasics)
{
    Dataset data = sampleDataset();
    auto stats = data.stats();
    EXPECT_EQ(stats.num_clusters, 3u);
    EXPECT_EQ(stats.num_copies, 4u);
    EXPECT_EQ(stats.num_erasures, 1u);
    EXPECT_EQ(stats.min_coverage, 0u);
    EXPECT_EQ(stats.max_coverage, 3u);
    EXPECT_NEAR(stats.mean_coverage, 4.0 / 3.0, 1e-12);
    EXPECT_GT(stats.aggregate_error_rate, 0.0);
}

TEST(Dataset, StatsWithoutErrorRate)
{
    Dataset data = sampleDataset();
    auto stats = data.stats(false);
    EXPECT_DOUBLE_EQ(stats.aggregate_error_rate, 0.0);
    EXPECT_EQ(stats.num_copies, 4u);
}

TEST(Dataset, FixedCoverageDropsSmallClusters)
{
    Dataset data = sampleDataset();
    Dataset at2 = data.fixedCoverage(2);
    ASSERT_EQ(at2.size(), 1u);
    EXPECT_EQ(at2[0].coverage(), 2u);
    EXPECT_EQ(at2[0].copies[0], data[0].copies[0]);
    EXPECT_EQ(at2[0].copies[1], data[0].copies[1]);
}

TEST(Dataset, FixedCoverageMinFilter)
{
    Dataset data = sampleDataset();
    // Coverage 1 but require at least 3 copies.
    Dataset filtered = data.fixedCoverage(1, 3);
    ASSERT_EQ(filtered.size(), 1u);
    EXPECT_EQ(filtered[0].coverage(), 1u);
    EXPECT_EQ(filtered[0].reference, "ACGTACGTAC");
}

TEST(Dataset, FixedCoveragePrefixProperty)
{
    // The paper's protocol: coverage n's copies are a prefix of
    // coverage n+1's.
    Dataset data = sampleDataset();
    Dataset at1 = data.fixedCoverage(1, 3);
    Dataset at2 = data.fixedCoverage(2, 3);
    ASSERT_EQ(at1.size(), at2.size());
    for (size_t i = 0; i < at1.size(); ++i)
        EXPECT_EQ(at2[i].copies[0], at1[i].copies[0]);
}

TEST(Dataset, ShuffleWithinClustersDeterministic)
{
    Dataset a = sampleDataset();
    Dataset b = sampleDataset();
    Rng r1(5), r2(5);
    a.shuffleWithinClusters(r1);
    b.shuffleWithinClusters(r2);
    for (size_t i = 0; i < a.size(); ++i)
        EXPECT_EQ(a[i].copies, b[i].copies);
}

TEST(Dataset, ShuffleKeepsMultiset)
{
    Dataset data = sampleDataset();
    auto before = data[0].copies;
    Rng rng(6);
    data.shuffleWithinClusters(rng);
    auto after = data[0].copies;
    std::sort(before.begin(), before.end());
    std::sort(after.begin(), after.end());
    EXPECT_EQ(before, after);
}

TEST(Dataset, PooledReads)
{
    Dataset data = sampleDataset();
    auto pool = data.pooledReads();
    EXPECT_EQ(pool.size(), 4u);
    EXPECT_EQ(pool[0], data[0].copies[0]);
    EXPECT_EQ(pool[3], data[1].copies[0]);
}

TEST(StrandFactory, RespectsConstraints)
{
    StrandConstraints constraints;
    constraints.min_gc = 0.40;
    constraints.max_gc = 0.60;
    constraints.max_homopolymer = 3;
    StrandFactory factory(constraints);
    Rng rng(7);
    for (int i = 0; i < 50; ++i) {
        Strand s = factory.make(110, rng);
        EXPECT_EQ(s.size(), 110u);
        EXPECT_TRUE(isValidStrand(s));
        EXPECT_GE(gcRatio(s), 0.40);
        EXPECT_LE(gcRatio(s), 0.60);
        EXPECT_LE(maxHomopolymerRun(s), 3u);
    }
}

TEST(StrandFactory, DisabledConstraints)
{
    StrandConstraints loose;
    loose.min_gc = 1.0;
    loose.max_gc = 0.0; // disabled
    loose.max_homopolymer = 0; // disabled
    StrandFactory factory(loose);
    Rng rng(8);
    Strand s = factory.make(200, rng);
    EXPECT_EQ(s.size(), 200u);
}

TEST(StrandFactory, MakeManyCountAndVariety)
{
    StrandFactory factory;
    Rng rng(9);
    auto strands = factory.makeMany(20, 60, rng);
    ASSERT_EQ(strands.size(), 20u);
    std::set<Strand> unique(strands.begin(), strands.end());
    EXPECT_EQ(unique.size(), 20u);
}

TEST(StrandFactory, Deterministic)
{
    StrandFactory factory;
    Rng a(10), b(10);
    EXPECT_EQ(factory.make(110, a), factory.make(110, b));
}

TEST(StrandFactory, SatisfiesAgreesWithMake)
{
    StrandFactory factory;
    Rng rng(11);
    for (int i = 0; i < 20; ++i)
        EXPECT_TRUE(factory.satisfies(factory.make(80, rng)));
    EXPECT_FALSE(factory.satisfies(Strand(80, 'A')));
}

TEST(EvyatIo, RoundTrip)
{
    Dataset data = sampleDataset();
    std::ostringstream out;
    writeEvyat(data, out);
    std::istringstream in(out.str());
    Dataset parsed = readEvyat(in);
    ASSERT_EQ(parsed.size(), data.size());
    for (size_t i = 0; i < data.size(); ++i) {
        EXPECT_EQ(parsed[i].reference, data[i].reference);
        EXPECT_EQ(parsed[i].copies, data[i].copies);
    }
}

TEST(EvyatIo, ErasureClustersSurvive)
{
    Dataset data = sampleDataset();
    std::ostringstream out;
    writeEvyat(data, out);
    std::istringstream in(out.str());
    Dataset parsed = readEvyat(in);
    EXPECT_TRUE(parsed[2].isErasure());
}

TEST(EvyatIo, EmptyStream)
{
    std::istringstream in("");
    Dataset parsed = readEvyat(in);
    EXPECT_TRUE(parsed.empty());
}

TEST(EvyatIo, ToleratesCrlf)
{
    std::string text = "ACGT\r\n*****\r\nACGA\r\n\r\n\r\n";
    std::istringstream in(text);
    Dataset parsed = readEvyat(in);
    ASSERT_EQ(parsed.size(), 1u);
    EXPECT_EQ(parsed[0].reference, "ACGT");
    ASSERT_EQ(parsed[0].coverage(), 1u);
    EXPECT_EQ(parsed[0].copies[0], "ACGA");
}

TEST(EvyatIo, RejectsInvalidReference)
{
    std::istringstream in("ACGX\n*****\nACGT\n\n");
    EXPECT_THROW(readEvyat(in), FatalError);
}

TEST(EvyatIo, RejectsMissingSeparator)
{
    std::istringstream in("ACGT\nACGA\n\n");
    EXPECT_THROW(readEvyat(in), FatalError);
}

TEST(EvyatIo, RejectsInvalidCopy)
{
    std::istringstream in("ACGT\n*****\nAC-T\n\n");
    EXPECT_THROW(readEvyat(in), FatalError);
}

TEST(EvyatIo, RejectsTruncatedFile)
{
    std::istringstream in("ACGT\n");
    EXPECT_THROW(readEvyat(in), FatalError);
}

TEST(EvyatIo, FileRoundTrip)
{
    Dataset data = sampleDataset();
    std::string path = ::testing::TempDir() + "/dnasim_io_test.evyat";
    writeEvyatFile(data, path);
    Dataset parsed = readEvyatFile(path);
    EXPECT_EQ(parsed.size(), data.size());
    EXPECT_EQ(parsed[0].copies, data[0].copies);
}

TEST(EvyatIo, MissingFileIsFatal)
{
    EXPECT_THROW(readEvyatFile("/nonexistent/nope.evyat"),
                 FatalError);
}

/** Replace the content of 1-based line @p line_no of @p text. */
void
replaceLine(std::string &text, size_t line_no, const std::string &with)
{
    size_t begin = 0;
    for (size_t n = 1; n < line_no; ++n)
        begin = text.find('\n', begin) + 1;
    const size_t end = text.find('\n', begin);
    text.replace(begin,
                 (end == std::string::npos ? text.size() : end) - begin,
                 with);
}

/**
 * ingestToPool() on the evyat text @p m must agree with readEvyat():
 * the same reads in the same order with the same origins, or the
 * same refusal. The differences allowed are ingest's alphabet
 * policy: it skips a non-ACGT copy and never reads references. To
 * predict them, each strand readEvyat refuses is replaced — a copy
 * by a sentinel no mutant can produce, which ingest must have
 * skipped; a reference by "A" — until readEvyat parses the text or
 * refuses it for its structure.
 */
void
expectIngestAgrees(const std::string &m, int trial)
{
    const std::string sentinel(100, 'T');
    std::string repaired = m;
    Dataset expected;
    std::string structural;
    for (bool done = false; !done;) {
        std::istringstream in(repaired);
        try {
            expected = readEvyat(in);
            done = true;
        } catch (const FatalError &e) {
            const std::string msg = e.what();
            const size_t colon = msg.find(':');
            const std::string what =
                colon == std::string::npos ? "" : msg.substr(colon);
            if (what.starts_with(": copy is not a DNA strand")) {
                replaceLine(repaired, std::stoul(msg.substr(5)), sentinel);
            } else if (what.starts_with(": reference is not a DNA strand")) {
                replaceLine(repaired, std::stoul(msg.substr(5)), "A");
            } else {
                structural = msg;
                done = true;
            }
        }
    }

    const std::string input =
        ::testing::TempDir() + "/dnasim_evyat_fuzz.evyat";
    const std::string pool_path =
        ::testing::TempDir() + "/dnasim_evyat_fuzz.dnapool";
    {
        std::ofstream os(input, std::ios::binary | std::ios::trunc);
        os << m;
    }
    IngestOptions options;
    options.format = IngestFormat::Evyat;
    IngestResult result;
    std::string error;
    if (!structural.empty()) {
        try {
            ingestToPool(input, pool_path, options, result, &error);
            ADD_FAILURE() << "trial " << trial << ": ingest accepted a file "
                          << "readEvyat refuses: " << structural;
        } catch (const FatalError &e) {
            EXPECT_EQ(std::string(e.what()), structural) << "trial " << trial;
        }
        return;
    }
    ASSERT_TRUE(ingestToPool(input, pool_path, options, result, &error))
        << "trial " << trial << ": " << error;
    std::vector<Strand> reads;
    std::vector<uint32_t> origins;
    size_t skipped = 0;
    for (size_t c = 0; c < expected.size(); ++c) {
        for (const Strand &copy : expected[c].copies) {
            if (copy == sentinel) {
                ++skipped;
                continue;
            }
            reads.push_back(copy);
            origins.push_back(static_cast<uint32_t>(c));
        }
    }
    PackedStrandPool pool;
    ASSERT_TRUE(pool.open(pool_path, &error)) << error;
    std::vector<Strand> ingested;
    for (size_t i = 0; i < pool.size(); ++i)
        ingested.push_back(pool.strand(i));
    EXPECT_EQ(ingested, reads) << "trial " << trial;
    EXPECT_EQ(result.origins, origins) << "trial " << trial;
    EXPECT_EQ(result.skipped, skipped) << "trial " << trial;
    EXPECT_EQ(result.clusters, expected.size()) << "trial " << trial;
}

// Mutation fuzzing of the evyat reader: every mutant of a written
// file must parse into A/C/G/T strands or be refused with FatalError,
// never abort or throw anything else (the ASan/UBSan lane runs this
// through ctest). Each mutant also goes through ingestToPool(), which
// must agree with readEvyat().
TEST(EvyatFuzz, MutantsParseToAcgtStrandsOrAreRefused)
{
    StrandFactory factory;
    Rng make(0xe7a);
    Dataset data;
    for (size_t i = 0; i < 16; ++i) {
        Cluster cluster;
        cluster.reference = factory.make(30, make);
        for (size_t k = make.index(5); k-- > 0;)
            cluster.copies.push_back(factory.make(28 + make.index(5), make));
        data.add(std::move(cluster));
    }
    std::ostringstream out;
    writeEvyat(data, out);
    const std::string text = out.str();

    // Offsets of the separator lines, for the line-level mutations.
    std::vector<size_t> separators;
    for (size_t at = text.find("\n*"); at != std::string::npos;
         at = text.find("\n*", at + 1))
        separators.push_back(at + 1);
    const std::string separator = "*****************************\n";
    ASSERT_EQ(separators.size(), data.size());

    Rng rng(0xe7b);
    auto anyByte = [&rng] { return static_cast<char>(rng.index(256)); };
    size_t parsed = 0, refused = 0;
    for (int trial = 0; trial < 4000; ++trial) {
        std::string m = text;
        const size_t sep = separators[rng.index(separators.size())];
        switch (trial % 8) {
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
          case 4: // a duplicated separator line
            m.insert(sep, separator);
            break;
          case 5: // a dropped separator line
            m.erase(sep, separator.size());
            break;
          case 6: { // a non-ACGT character in a strand
            static const char kForeign[] = "NnacgtUX-* \t\0";
            size_t at = rng.index(m.size());
            while (at < m.size() && !isBaseChar(m[at]))
                ++at;
            if (at < m.size())
                m[at] = kForeign[rng.index(sizeof(kForeign) - 1)];
            break;
          }
          default: // stray CR / LF, or every line ending as CRLF
            if (rng.bernoulli(0.5)) {
                m.insert(m.begin() + static_cast<ptrdiff_t>(
                                         rng.index(m.size() + 1)),
                         rng.bernoulli(0.5) ? '\r' : '\n');
            } else {
                std::string crlf;
                for (char c : m) {
                    if (c == '\n')
                        crlf += '\r';
                    crlf += c;
                }
                m = std::move(crlf);
            }
        }
        std::istringstream in(m);
        try {
            const Dataset back = readEvyat(in);
            ++parsed;
            for (const Cluster &cluster : back.clusters()) {
                ASSERT_TRUE(isValidStrand(cluster.reference))
                    << "trial " << trial;
                for (const Strand &copy : cluster.copies)
                    ASSERT_TRUE(isValidStrand(copy)) << "trial " << trial;
            }
        } catch (const FatalError &) {
            ++refused;
        }
        expectIngestAgrees(m, trial);
    }
    EXPECT_GT(parsed, 0u);
    EXPECT_GT(refused, 0u);
}

} // namespace
} // namespace dnasim

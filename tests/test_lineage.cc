/**
 * @file
 * Tests for the ground-truth error-lineage subsystem: observational
 * recording in the channel (core/lineage_log.hh), per-read
 * assignment provenance in the clusterer, the consensus vote
 * profile, the failure-attribution engine, and the
 * dnasim.lineage.v1 JSONL stream — plus the JSON string-escaping
 * round-trips the stream depends on.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "analysis/accuracy.hh"
#include "analysis/lineage.hh"
#include "cluster/greedy_cluster.hh"
#include "core/channel_simulator.hh"
#include "core/coverage.hh"
#include "core/ids_model.hh"
#include "data/strand_factory.hh"
#include "obs/json.hh"
#include "reconstruct/consensus.hh"
#include "reconstruct/iterative.hh"

namespace dnasim
{
namespace
{

/**
 * Re-derive the read a transmit produced from its recorded lineage
 * events alone. Events arrive in left-to-right reference order and
 * never overlap, so a single cursor walk suffices; an insertion's
 * ref_pos is the reference index *before which* the extra base
 * appears.
 */
Strand
replayEvents(const Strand &ref,
             std::span<const LineageEvent> events)
{
    Strand out;
    size_t cursor = 0;
    for (const LineageEvent &e : events) {
        while (cursor < e.ref_pos)
            out.push_back(ref[cursor++]);
        switch (e.type) {
          case LineageErrorType::Substitution:
            out.push_back(e.obs_base);
            ++cursor;
            break;
          case LineageErrorType::Insertion:
            out.push_back(e.obs_base);
            break;
          case LineageErrorType::Deletion:
            ++cursor;
            break;
          case LineageErrorType::LongDeletion:
            cursor += e.run_length;
            break;
        }
    }
    while (cursor < ref.size())
        out.push_back(ref[cursor++]);
    return out;
}

/** Append one read's events to a cluster arena. */
void
appendRead(ClusterLineage &arena,
           std::vector<LineageEvent> events)
{
    for (const LineageEvent &e : events)
        arena.events.push_back(e);
    arena.read_event_end.push_back(
        static_cast<uint32_t>(arena.events.size()));
}

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "/dnasim_lineage_" + name;
}

// ---------------------------------------------------------------
// Channel recording
// ---------------------------------------------------------------

TEST(LineageRecording, TransmitByteIdenticalWithRecorder)
{
    StrandFactory factory;
    Rng make(11);
    const auto refs = factory.makeMany(20, 120, make);
    ErrorProfile profile = ErrorProfile::uniform(0.08, 120);

    const IdsChannelModel models[] = {
        IdsChannelModel::naive(profile),
        IdsChannelModel::secondOrder(profile),
    };
    for (const auto &model : models) {
        for (const Strand &ref : refs) {
            Rng a(987), b(987);
            std::vector<LineageEvent> events;
            LineageRecorder rec(&events);
            const Strand plain = model.transmit(ref, a);
            const Strand recorded = model.transmit(ref, b, rec);
            EXPECT_EQ(plain, recorded)
                << "recording must never alter the channel";
        }
    }
}

TEST(LineageRecording, NullRecorderIsDisabled)
{
    LineageRecorder null_rec;
    EXPECT_FALSE(null_rec.enabled());
    // Hooks on a disabled recorder are harmless no-ops.
    null_rec.substitution(3, 'A', 'C');
    null_rec.insertion(1, 'G');
    null_rec.deletion(0, 'T');
    null_rec.longDeletion(2, 4, 'A');

    std::vector<LineageEvent> events;
    LineageRecorder rec(&events);
    EXPECT_TRUE(rec.enabled());
    rec.substitution(3, 'A', 'C');
    rec.longDeletion(2, 4, 'A');
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].type, LineageErrorType::Substitution);
    EXPECT_EQ(events[0].refEnd(), 4u);
    EXPECT_EQ(events[1].type, LineageErrorType::LongDeletion);
    EXPECT_EQ(events[1].run_length, 4u);
    EXPECT_EQ(events[1].refEnd(), 6u);
}

TEST(LineageRecording, EventsReplayToTheRead)
{
    StrandFactory factory;
    Rng make(23);
    const auto refs = factory.makeMany(10, 150, make);
    // High rates + second-order features exercise every event kind,
    // including long deletions.
    ErrorProfile profile = ErrorProfile::uniform(0.12, 150);
    IdsChannelModel model = IdsChannelModel::secondOrder(profile);

    Rng rng(4242);
    size_t total_events = 0;
    for (const Strand &ref : refs) {
        for (int k = 0; k < 20; ++k) {
            std::vector<LineageEvent> events;
            LineageRecorder rec(&events);
            const Strand read = model.transmit(ref, rng, rec);
            total_events += events.size();
            EXPECT_EQ(replayEvents(ref, events), read)
                << "recorded events must reproduce the read";
        }
    }
    // The profile is noisy enough that a silent run means the
    // recorder hooks were never reached.
    EXPECT_GT(total_events, 100u);
}

TEST(LineageRecording, SimulatorFillsTheLogAndStaysByteIdentical)
{
    StrandFactory factory;
    Rng make(31);
    const auto refs = factory.makeMany(8, 100, make);
    ErrorProfile profile = ErrorProfile::uniform(0.06, 100);
    IdsChannelModel model = IdsChannelModel::conditional(profile);
    ChannelSimulator sim(model);
    FixedCoverage coverage(5);

    Rng a(777), b(777);
    const Dataset plain = sim.simulate(refs, coverage, a);
    LineageLog log;
    const Dataset logged = sim.simulate(refs, coverage, b, &log);

    ASSERT_EQ(plain.size(), logged.size());
    for (size_t i = 0; i < plain.size(); ++i) {
        EXPECT_EQ(plain[i].reference, logged[i].reference);
        EXPECT_EQ(plain[i].copies, logged[i].copies);
    }

    ASSERT_EQ(log.numClusters(), refs.size());
    for (size_t i = 0; i < log.numClusters(); ++i) {
        ASSERT_EQ(log.cluster(i).numReads(), logged[i].copies.size());
        for (size_t k = 0; k < logged[i].copies.size(); ++k) {
            EXPECT_EQ(replayEvents(refs[i], log.readEvents(i, k)),
                      logged[i].copies[k]);
        }
    }
    EXPECT_EQ(log.counts().total(), log.totalEvents());
    EXPECT_GT(log.totalEvents(), 0u);
}

// ---------------------------------------------------------------
// Cluster assignment provenance
// ---------------------------------------------------------------

TEST(AssignmentProvenance, CapturingNeverChangesTheClustering)
{
    StrandFactory factory;
    Rng rng(5);
    const auto refs = factory.makeMany(12, 110, rng);
    ErrorProfile profile = ErrorProfile::uniform(0.04, 110);
    IdsChannelModel model = IdsChannelModel::naive(profile);
    std::vector<Strand> pool;
    for (const Strand &ref : refs)
        for (int k = 0; k < 6; ++k)
            pool.push_back(model.transmit(ref, rng));

    const auto without = clusterReads(pool);
    std::vector<ReadAssignment> assignments;
    const auto with = clusterReads(pool, {}, &assignments);

    ASSERT_EQ(without.size(), with.size());
    for (size_t i = 0; i < with.size(); ++i)
        EXPECT_EQ(without[i].members, with[i].members);

    ASSERT_EQ(assignments.size(), pool.size());
    std::vector<size_t> per_cluster(with.size(), 0);
    for (size_t r = 0; r < assignments.size(); ++r) {
        const ReadAssignment &a = assignments[r];
        ASSERT_LT(a.cluster, with.size());
        ++per_cluster[a.cluster];
        if (a.tier == AssignmentTier::Fresh) {
            EXPECT_EQ(a.verified_distance, 0u);
            // The fresh read is its cluster's first member.
            EXPECT_EQ(with[a.cluster].members.front(), r);
        }
    }
    // The provenance partition is exactly the cluster partition.
    for (size_t i = 0; i < with.size(); ++i)
        EXPECT_EQ(per_cluster[i], with[i].members.size());
}

// ---------------------------------------------------------------
// Consensus vote profile
// ---------------------------------------------------------------

TEST(VoteProfile, CountsVotesPerPosition)
{
    const Strand estimate = "ACGT";
    const std::vector<Strand> copies = {"ACGT", "ACGT", "ACGA",
                                        "ACG"};
    std::vector<std::string> per_copy;
    const auto profile =
        consensusVoteProfile(estimate, copies, &per_copy);

    ASSERT_EQ(profile.size(), estimate.size());
    // Position 0: unanimous A.
    EXPECT_EQ(profile[0].votes('A'), 4u);
    EXPECT_EQ(profile[0].totalBaseVotes(), 4u);
    EXPECT_EQ(profile[0].margin(), 4u);
    // Position 3: two T, one substitution to A, one deletion.
    EXPECT_EQ(profile[3].votes('T'), 2u);
    EXPECT_EQ(profile[3].votes('A'), 1u);
    EXPECT_EQ(profile[3].deletion_votes, 1u);

    ASSERT_EQ(per_copy.size(), copies.size());
    EXPECT_EQ(per_copy[0], "ACGT");
    EXPECT_EQ(per_copy[2], "ACGA");
    EXPECT_EQ(per_copy[3], std::string("ACG-"));
}

// ---------------------------------------------------------------
// Attribution engine
// ---------------------------------------------------------------

/** Pseudo-clustered truth with one cluster. */
Dataset
oneCluster(Strand ref, std::vector<Strand> copies)
{
    Dataset data;
    data.add({std::move(ref), std::move(copies)});
    return data;
}

TEST(Attribution, ExactReconstructionHasNoFailures)
{
    const Strand ref = "ACGTACGTACGTACGTACGT";
    Dataset truth = oneCluster(ref, {ref, ref, ref});
    std::vector<Strand> estimates = {ref};

    LineageInputs in;
    in.truth = &truth;
    in.estimates = &estimates;
    const LineageReport report = attributeLineage(in);
    EXPECT_EQ(report.num_units, 1u);
    EXPECT_EQ(report.exact_units, 1u);
    EXPECT_EQ(report.failed_units, 0u);
    EXPECT_TRUE(report.failures.empty());
    EXPECT_EQ(report.residualTotal(), 0u);
}

TEST(Attribution, AlgorithmicWhenCopiesOutvoteTheEstimate)
{
    const Strand ref = "ACGTACGTACGTACGTACGT";
    Strand wrong = ref;
    wrong[5] = 'A'; // copies' plurality at 5 is the truth ('C')
    Dataset truth = oneCluster(ref, {ref, ref, ref});
    std::vector<Strand> estimates = {wrong};

    LineageInputs in;
    in.truth = &truth;
    in.estimates = &estimates;
    const LineageReport report = attributeLineage(in);
    ASSERT_EQ(report.failures.size(), 1u);
    const FailureRecord &f = report.failures[0];
    EXPECT_EQ(f.ref_pos, 5u);
    EXPECT_EQ(f.expected, 'C');
    EXPECT_EQ(f.got, 'A');
    EXPECT_EQ(f.cause, FailureCause::Algorithmic);
    EXPECT_EQ(f.correct_votes, 3u);
    EXPECT_EQ(f.wrong_votes, 0u);
    EXPECT_EQ(report.cause_counts[static_cast<size_t>(
                  FailureCause::Algorithmic)],
              1u);
    EXPECT_EQ(report.residual_substitutions, 1u);
}

TEST(Attribution, ChannelNoiseWhenInjectedErrorsCarryTheVote)
{
    const Strand ref(20, 'A');
    Strand noisy = ref;
    noisy[5] = 'C';
    Dataset truth = oneCluster(ref, {noisy, noisy, noisy});
    std::vector<Strand> estimates = {noisy};

    LineageLog log;
    log.beginRun(1);
    for (int k = 0; k < 3; ++k) {
        appendRead(log.cluster(0),
                   {{5, 1, LineageErrorType::Substitution, 'A',
                     'C'}});
    }

    LineageInputs in;
    in.truth = &truth;
    in.lineage = &log;
    in.estimates = &estimates;
    const LineageReport report = attributeLineage(in);
    ASSERT_EQ(report.failures.size(), 1u);
    const FailureRecord &f = report.failures[0];
    EXPECT_EQ(f.cause, FailureCause::ChannelNoise);
    EXPECT_EQ(f.wrong_votes, 3u);
    EXPECT_EQ(f.injected_votes, 3u);
    EXPECT_EQ(f.clean_votes, 0u);
    EXPECT_EQ(f.foreign_votes, 0u);
    EXPECT_EQ(report.injected.substitutions, 3u);
}

TEST(Attribution, TieBreakWhenTheWinnerTiedTheTruth)
{
    const Strand ref(20, 'A');
    Strand noisy = ref;
    noisy[5] = 'C';
    Dataset truth = oneCluster(ref, {ref, noisy});
    std::vector<Strand> estimates = {noisy};

    LineageLog log;
    log.beginRun(1);
    appendRead(log.cluster(0), {});
    appendRead(log.cluster(0),
               {{5, 1, LineageErrorType::Substitution, 'A', 'C'}});

    LineageInputs in;
    in.truth = &truth;
    in.lineage = &log;
    in.estimates = &estimates;
    const LineageReport report = attributeLineage(in);
    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_EQ(report.failures[0].cause, FailureCause::TieBreak);
    EXPECT_EQ(report.failures[0].correct_votes, 1u);
    EXPECT_EQ(report.failures[0].wrong_votes, 1u);
}

TEST(Attribution, CoverageGapWhenNoCopyVotes)
{
    const Strand ref = "ACGTACGT";
    Strand wrong = ref;
    wrong[2] = 'A';
    Dataset truth = oneCluster(ref, {});
    std::vector<Strand> estimates = {wrong};

    LineageInputs in;
    in.truth = &truth;
    in.estimates = &estimates;
    const LineageReport report = attributeLineage(in);
    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_EQ(report.failures[0].cause, FailureCause::CoverageGap);
}

TEST(Attribution, AlignmentArtifactWhenCleanAlignmentsShiftVotes)
{
    // A homopolymer deletion the channel injected at reference
    // position 3 gets charged to position 1 by the deterministic
    // leftmost edit script — the wrong votes at position 1 come
    // from reads whose injected events do not touch it.
    const Strand ref = "CAAAT";
    const Strand dropped = "CAAT"; // ref minus one run 'A'
    Dataset truth = oneCluster(ref, {dropped, dropped, ref});
    std::vector<Strand> estimates = {dropped};

    LineageLog log;
    log.beginRun(1);
    appendRead(log.cluster(0),
               {{3, 1, LineageErrorType::Deletion, 'A', '\0'}});
    appendRead(log.cluster(0),
               {{3, 1, LineageErrorType::Deletion, 'A', '\0'}});
    appendRead(log.cluster(0), {});

    LineageInputs in;
    in.truth = &truth;
    in.lineage = &log;
    in.estimates = &estimates;
    const LineageReport report = attributeLineage(in);
    ASSERT_EQ(report.failures.size(), 1u);
    const FailureRecord &f = report.failures[0];
    EXPECT_EQ(f.got, '\0');
    EXPECT_EQ(f.expected, 'A');
    EXPECT_EQ(f.cause, FailureCause::AlignmentArtifact);
    EXPECT_EQ(f.clean_votes, 2u);
    EXPECT_EQ(f.injected_votes, 0u);
    EXPECT_EQ(report.residual_deletions, 1u);
}

TEST(Attribution, ContaminationWhenForeignReadsCarryTheVote)
{
    // One recovered cluster holding 3 reads of reference 0 and 4
    // foreign reads (from references 1 and 2) that all carry a 'C'
    // at position 5; the foreign plurality flips the consensus.
    const Strand ref0(20, 'A');
    Strand ref_c = ref0;
    ref_c[5] = 'C';

    Dataset truth;
    truth.add({ref0, {}});
    truth.add({ref_c, {}});
    truth.add({ref_c, {}});

    std::vector<Strand> pool = {ref0, ref0, ref0, ref_c,
                                ref_c, ref_c, ref_c};
    std::vector<ReadIdentity> identity = {
        {0, 0}, {0, 1}, {0, 2}, {1, 0}, {1, 1}, {2, 0}, {2, 1}};
    std::vector<ReadCluster> clusters(1);
    clusters[0].members = {0, 1, 2, 3, 4, 5, 6};
    clusters[0].representative = ref0;
    std::vector<Strand> estimates = {ref_c};

    LineageInputs in;
    in.truth = &truth;
    in.estimates = &estimates;
    in.clusters = &clusters;
    in.pool = &pool;
    in.identity = &identity;
    const LineageReport report = attributeLineage(in);

    EXPECT_TRUE(report.reclustered);
    ASSERT_EQ(report.failures.size(), 1u);
    const FailureRecord &f = report.failures[0];
    EXPECT_EQ(f.origin, 0u); // majority origin of the unit
    EXPECT_EQ(f.cause, FailureCause::Contamination);
    EXPECT_EQ(f.foreign_votes, 4u);
    EXPECT_EQ(f.correct_votes, 3u);
    EXPECT_EQ(f.wrong_votes, 4u);
    // Clustering forensics: the 4 foreign reads are misclustered.
    EXPECT_EQ(report.misclustered.size(), 4u);
    EXPECT_NEAR(report.purity, 1.0 - 4.0 / 7.0, 1e-12);
}

TEST(Attribution, InjectedStatsComeFromTheLog)
{
    const Strand ref(20, 'A');
    Dataset truth = oneCluster(ref, {ref});

    LineageLog log;
    log.beginRun(1);
    appendRead(log.cluster(0),
               {{2, 1, LineageErrorType::Substitution, 'A', 'C'},
                {5, 1, LineageErrorType::Insertion, '\0', 'G'},
                {7, 1, LineageErrorType::Deletion, 'A', '\0'},
                {9, 3, LineageErrorType::LongDeletion, 'A', '\0'}});

    LineageInputs in;
    in.truth = &truth;
    in.lineage = &log;
    const LineageReport report = attributeLineage(in);
    EXPECT_TRUE(report.has_lineage);
    EXPECT_FALSE(report.has_estimates);
    EXPECT_EQ(report.injected.substitutions, 1u);
    EXPECT_EQ(report.injected.insertions, 1u);
    EXPECT_EQ(report.injected.deletions, 1u);
    EXPECT_EQ(report.injected.long_deletions, 1u);
    EXPECT_EQ(report.injected.total(), 4u);
    EXPECT_EQ(
        report.injected_confusion[baseIndex('A')][baseIndex('C')],
        1u);
    EXPECT_EQ(report.residualTotal(), 0u);
}

// ---------------------------------------------------------------
// JSON escaping round-trips
// ---------------------------------------------------------------

TEST(JsonEscaping, RoundTripsThroughTheParser)
{
    const std::string cases[] = {
        "plain",
        "with \"quotes\" inside",
        "back\\slash and forward/slash",
        std::string("ctrl \x01\x02 bytes"),
        "newline\nreturn\rtab\t end",
        "µDNA → storage", // UTF-8 passes through
        "",
    };
    for (const std::string &s : cases) {
        const std::string doc =
            "{\"k\":\"" + obs::jsonEscape(s) + "\"}";
        obs::JsonValue parsed;
        std::string error;
        ASSERT_TRUE(obs::parseJson(doc, parsed, &error))
            << doc << ": " << error;
        const obs::JsonValue *k = parsed.find("k");
        ASSERT_NE(k, nullptr);
        EXPECT_EQ(k->asString(), s);
    }
}

TEST(JsonEscaping, TelemetryEventLineSurvivesHostileStrings)
{
    // The same hostile strings as keys and values of a nested
    // JsonWriter document, compact (one JSONL line) and indented.
    const std::string name = "bad \"path\"\n\twith control \x01 bytes";
    const std::string detail = "a\\b \"c\"";
    for (int indent : {0, 2}) {
        std::ostringstream os;
        obs::JsonWriter w(os, indent);
        w.beginObject();
        w.value("name", name);
        w.value(name, detail);
        w.beginObject(detail);
        w.value("detail", detail);
        w.endObject();
        w.endObject();
        if (indent == 0) {
            EXPECT_EQ(os.str().find('\n'), std::string::npos);
        }

        obs::JsonValue parsed;
        std::string error;
        ASSERT_TRUE(obs::parseJson(os.str(), parsed, &error))
            << os.str() << ": " << error;
        EXPECT_EQ(parsed.find("name")->asString(), name);
        ASSERT_NE(parsed.find(name), nullptr);
        EXPECT_EQ(parsed.find(name)->asString(), detail);
        const obs::JsonValue *nested = parsed.find(detail);
        ASSERT_NE(nested, nullptr);
        EXPECT_EQ(nested->find("detail")->asString(), detail);
    }
}

// ---------------------------------------------------------------
// dnasim.lineage.v1 stream
// ---------------------------------------------------------------

TEST(LineageJsonl, StreamParsesBackLineByLine)
{
    StrandFactory factory;
    Rng make(77);
    const auto refs = factory.makeMany(6, 100, make);
    ErrorProfile profile = ErrorProfile::uniform(0.08, 100);
    IdsChannelModel model = IdsChannelModel::secondOrder(profile);
    ChannelSimulator sim(model);
    FixedCoverage coverage(5);

    Rng rng(2024);
    LineageLog log;
    const Dataset truth = sim.simulate(refs, coverage, rng, &log);
    Iterative algo;
    const std::vector<Strand> estimates =
        reconstructAll(truth, algo, rng);

    LineageInputs in;
    in.truth = &truth;
    in.lineage = &log;
    in.estimates = &estimates;
    const LineageReport report = attributeLineage(in);

    const std::string path = tempPath("stream.jsonl");
    std::string error;
    ASSERT_TRUE(writeLineageJsonl(path, in, report, &error))
        << error;

    std::ifstream is(path);
    ASSERT_TRUE(is.good());
    size_t meta = 0, reads = 0, failures = 0, summaries = 0;
    std::string line;
    while (std::getline(is, line)) {
        obs::JsonValue doc;
        ASSERT_TRUE(obs::parseJson(line, doc, &error))
            << line << ": " << error;
        ASSERT_NE(doc.find("schema"), nullptr);
        EXPECT_EQ(doc.find("schema")->asString(),
                  "dnasim.lineage.v1");
        const std::string kind = doc.find("kind")->asString();
        if (kind == "meta") {
            ++meta;
            const obs::JsonValue *prov = doc.find("provenance");
            ASSERT_NE(prov, nullptr);
            EXPECT_NE(prov->find("git_rev"), nullptr);
            EXPECT_NE(prov->find("compiler"), nullptr);
            EXPECT_NE(prov->find("simd_tier"), nullptr);
            EXPECT_NE(prov->find("threads"), nullptr);
        } else if (kind == "read") {
            ++reads;
            EXPECT_NE(doc.find("events"), nullptr);
        } else if (kind == "failure") {
            ++failures;
            const std::string cause =
                doc.find("cause")->asString();
            EXPECT_NE(cause, "unknown");
            EXPECT_FALSE(cause.empty());
        } else if (kind == "summary") {
            ++summaries;
            EXPECT_EQ(doc.find("injected")
                          ->find("total")
                          ->asUint(),
                      report.injected.total());
        } else {
            FAIL() << "unexpected line kind: " << kind;
        }
    }
    EXPECT_EQ(meta, 1u);
    EXPECT_EQ(reads, truth.totalCopies());
    EXPECT_EQ(failures, report.failures.size());
    EXPECT_EQ(summaries, 1u);

    uint64_t cause_sum = 0;
    for (uint64_t c : report.cause_counts)
        cause_sum += c;
    EXPECT_EQ(cause_sum, report.failures.size());

    std::remove(path.c_str());
}

TEST(LineageJsonl, ReportsWriteFailures)
{
    // The parent "directory" is a plain file, so the write fails
    // and the error string names the path.
    const std::string blocker = tempPath("blocker");
    {
        std::ofstream os(blocker);
        os << "not a directory\n";
    }
    Dataset truth = oneCluster("ACGT", {"ACGT"});
    LineageInputs in;
    in.truth = &truth;
    const LineageReport report = attributeLineage(in);
    std::string error;
    EXPECT_FALSE(writeLineageJsonl(blocker + "/x/y.jsonl", in,
                                   report, &error));
    EXPECT_FALSE(error.empty());
    std::remove(blocker.c_str());
}

} // anonymous namespace
} // namespace dnasim

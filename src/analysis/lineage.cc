#include "analysis/lineage.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "align/edit_distance.hh"
#include "base/logging.hh"
#include "base/table.hh"
#include "obs/json.hh"
#include "obs/outfile.hh"
#include "obs/provenance.hh"
#include "reconstruct/consensus.hh"

namespace dnasim
{

namespace
{

/** Does injected event @p e affect reference position @p p? */
bool
eventTouches(const LineageEvent &e, uint32_t p)
{
    if (e.type == LineageErrorType::Insertion) {
        // The inserted base sits between reference positions
        // ref_pos - 1 and ref_pos; it perturbs alignments on both
        // sides.
        return e.ref_pos == p || e.ref_pos == p + 1;
    }
    return e.ref_pos <= p && p < e.refEnd();
}

bool
anyEventTouches(std::span<const LineageEvent> events, uint32_t p)
{
    for (const auto &e : events)
        if (eventTouches(e, p))
            return true;
    return false;
}

/** One attribution unit resolved from either input mode. */
struct Unit
{
    uint32_t label = 0; ///< true reference index
    std::vector<uint32_t> origins;            ///< per copy
    std::vector<std::span<const LineageEvent>> events; ///< per copy
    /// Pseudo mode borrows the dataset's copies; recluster mode
    /// gathers pool members here.
    std::vector<Strand> gathered;
    const std::vector<Strand> *copies = nullptr;

    std::span<const Strand>
    reads() const
    {
        return std::span<const Strand>(copies->data(),
                                       copies->size());
    }
};

/** Majority true origin of a member list (ties to the smallest). */
uint32_t
majorityOrigin(const std::vector<size_t> &members,
               const std::vector<ReadIdentity> &identity)
{
    std::vector<size_t> origins;
    origins.reserve(members.size());
    for (size_t m : members)
        origins.push_back(identity[m].origin_cluster);
    return static_cast<uint32_t>(dnasim::majorityOrigin(origins));
}

void
resolveUnit(const LineageInputs &in, size_t u, Unit &unit)
{
    unit.gathered.clear();
    unit.origins.clear();
    unit.events.clear();
    if (in.clusters != nullptr) {
        const ReadCluster &rc = (*in.clusters)[u];
        unit.label = majorityOrigin(rc.members, *in.identity);
        unit.gathered.reserve(rc.members.size());
        for (size_t m : rc.members) {
            const ReadIdentity &id = (*in.identity)[m];
            unit.gathered.push_back((*in.pool)[m]);
            unit.origins.push_back(id.origin_cluster);
            unit.events.push_back(
                in.lineage != nullptr &&
                        id.origin_cluster < in.lineage->numClusters()
                    ? in.lineage->readEvents(id.origin_cluster,
                                             id.origin_copy)
                    : std::span<const LineageEvent>());
        }
        unit.copies = &unit.gathered;
    } else {
        const Cluster &c = (*in.truth)[u];
        unit.label = static_cast<uint32_t>(u);
        unit.copies = &c.copies;
        unit.origins.assign(c.copies.size(),
                            static_cast<uint32_t>(u));
        for (size_t k = 0; k < c.copies.size(); ++k) {
            unit.events.push_back(
                in.lineage != nullptr
                    ? in.lineage->readEvents(u, k)
                    : std::span<const LineageEvent>());
        }
    }
}

/**
 * Partition the supporters of vote @p want at reference position
 * @p p into foreign / injected / clean and return the cause the
 * partition implies.
 */
FailureCause
partitionSupporters(const Unit &unit,
                    const std::vector<std::string> &per_copy,
                    uint32_t p, char want, FailureRecord &rec)
{
    for (size_t k = 0; k < per_copy.size(); ++k) {
        if (per_copy[k][p] != want)
            continue;
        if (unit.origins[k] != unit.label)
            ++rec.foreign_votes;
        else if (anyEventTouches(unit.events[k], p))
            ++rec.injected_votes;
        else
            ++rec.clean_votes;
    }
    if (rec.foreign_votes >= rec.injected_votes + rec.clean_votes &&
        rec.foreign_votes > 0) {
        return FailureCause::Contamination;
    }
    if (rec.injected_votes >= rec.clean_votes)
        return FailureCause::ChannelNoise;
    return FailureCause::AlignmentArtifact;
}

/** Classify one substitution or deletion residual. */
FailureCause
classifyVoted(const Unit &unit, const PositionVote &v,
              const std::vector<std::string> &per_copy, uint32_t p,
              char want, FailureRecord &rec)
{
    if (v.totalBaseVotes() + v.deletion_votes == 0)
        return FailureCause::CoverageGap;
    if (rec.wrong_votes < rec.correct_votes)
        return FailureCause::Algorithmic;
    // Partition even for ties, so the record shows who fed the tie.
    FailureCause majority =
        partitionSupporters(unit, per_copy, p, want, rec);
    if (rec.wrong_votes == rec.correct_votes)
        return FailureCause::TieBreak;
    return majority;
}

/**
 * Classify an insertion residual (extra base in the estimate before
 * reference position @p r). The reference-anchored vote profile has
 * no insertion channel, so this partitions whole reads instead of
 * per-position votes.
 */
FailureCause
classifyInsertion(const Unit &unit, uint32_t anchor,
                  FailureRecord &rec)
{
    if (unit.copies->empty())
        return FailureCause::CoverageGap;
    for (size_t k = 0; k < unit.origins.size(); ++k) {
        if (unit.origins[k] != unit.label)
            ++rec.foreign_votes;
        else if (anyEventTouches(unit.events[k], anchor))
            ++rec.injected_votes;
        else
            ++rec.clean_votes;
    }
    if (rec.foreign_votes > 0 &&
        rec.foreign_votes >= rec.injected_votes) {
        return FailureCause::Contamination;
    }
    if (rec.injected_votes > 0)
        return FailureCause::ChannelNoise;
    return FailureCause::AlignmentArtifact;
}

std::string
baseStr(char c)
{
    return c == '\0' ? std::string() : std::string(1, c);
}

const char *const kBaseRow[] = {"A", "C", "G", "T"};

void
writeConfusion(obs::JsonWriter &w, const std::string &key,
               const SubConfusion &m)
{
    w.beginObject(key);
    for (size_t r = 0; r < kNumBases; ++r) {
        w.beginArray(kBaseRow[r]);
        for (size_t c = 0; c < kNumBases; ++c)
            w.value("", m[r][c]);
        w.endArray();
    }
    w.endObject();
}

void
writeBuckets(obs::JsonWriter &w, const std::string &key,
             const std::vector<ProfileBucket> &buckets)
{
    w.beginArray(key);
    for (const auto &b : buckets) {
        w.beginObject();
        w.value("lo", static_cast<uint64_t>(b.lo));
        w.value("hi", static_cast<uint64_t>(b.hi));
        w.value("errors", b.errors);
        w.value("share", b.share);
        w.endObject();
    }
    w.endArray();
}

void
writeCauseCounts(obs::JsonWriter &w, const LineageReport &report)
{
    w.beginObject("causes");
    for (size_t i = 0; i < kNumFailureCauses; ++i) {
        w.value(failureCauseName(static_cast<FailureCause>(i)),
                report.cause_counts[i]);
    }
    w.endObject();
}

void
writeSummaryBody(obs::JsonWriter &w, const LineageReport &report)
{
    w.value("reclustered", report.reclustered);
    w.value("units", static_cast<uint64_t>(report.num_units));
    w.value("reads", static_cast<uint64_t>(report.num_reads));
    w.value("erasures", static_cast<uint64_t>(report.erasures));
    w.value("failed_units",
            static_cast<uint64_t>(report.failed_units));
    w.value("exact_units",
            static_cast<uint64_t>(report.exact_units));

    w.beginObject("injected");
    w.value("substitutions", report.injected.substitutions);
    w.value("insertions", report.injected.insertions);
    w.value("deletions", report.injected.deletions);
    w.value("long_deletions", report.injected.long_deletions);
    w.value("total", report.injected.total());
    w.endObject();

    w.beginObject("residual");
    w.value("substitutions", report.residual_substitutions);
    w.value("insertions", report.residual_insertions);
    w.value("deletions", report.residual_deletions);
    w.value("total", report.residualTotal());
    w.endObject();

    writeCauseCounts(w, report);
    writeConfusion(w, "injected_confusion",
                   report.injected_confusion);
    writeConfusion(w, "residual_confusion",
                   report.residual_confusion);
    writeBuckets(w, "injected_heatmap", report.injected_buckets);
    writeBuckets(w, "residual_heatmap", report.residual_buckets);

    w.beginObject("misclustered");
    w.value("total",
            static_cast<uint64_t>(report.misclustered.size()));
    w.beginObject("by_tier");
    for (size_t t = 0; t < report.misclustered_by_tier.size(); ++t) {
        w.value(assignmentTierName(static_cast<AssignmentTier>(t)),
                report.misclustered_by_tier[t]);
    }
    w.endObject();
    w.value("purity", report.purity);
    w.endObject();
}

} // anonymous namespace

const char *
failureCauseName(FailureCause cause)
{
    switch (cause) {
      case FailureCause::CoverageGap: return "coverage-gap";
      case FailureCause::TieBreak: return "tie-break";
      case FailureCause::Contamination: return "contamination";
      case FailureCause::ChannelNoise: return "channel-noise";
      case FailureCause::AlignmentArtifact:
        return "alignment-artifact";
      case FailureCause::Algorithmic: return "algorithmic";
    }
    return "?";
}

LineageReport
attributeLineage(const LineageInputs &in)
{
    DNASIM_ASSERT(in.truth != nullptr,
                  "lineage attribution needs ground truth");
    const bool recluster = in.clusters != nullptr;
    if (recluster) {
        DNASIM_ASSERT(in.pool != nullptr && in.identity != nullptr,
                      "recluster attribution needs the pool and "
                      "per-read identities");
        DNASIM_ASSERT(in.identity->size() == in.pool->size(),
                      "identity/pool size mismatch");
    }

    LineageReport report;
    report.reclustered = recluster;
    report.has_lineage = in.lineage != nullptr;
    report.has_estimates = in.estimates != nullptr;
    report.num_units =
        recluster ? in.clusters->size() : in.truth->size();
    report.num_reads =
        recluster ? in.pool->size() : in.truth->totalCopies();
    for (const Cluster &c : *in.truth) {
        report.ref_length =
            std::max(report.ref_length, c.reference.size());
    }
    if (in.estimates != nullptr) {
        DNASIM_ASSERT(in.estimates->size() == report.num_units,
                      "estimate count (", in.estimates->size(),
                      ") != attribution units (", report.num_units,
                      ")");
    }

    Histogram injected_hist(report.ref_length);
    Histogram residual_hist(report.ref_length);
    const auto clampPos = [&](size_t p) {
        return report.ref_length == 0
                   ? size_t{0}
                   : std::min(p, report.ref_length - 1);
    };

    // Injected ground truth is a property of the simulation run,
    // independent of how the reads were later clustered.
    if (in.lineage != nullptr) {
        report.injected = in.lineage->counts();
        for (size_t c = 0; c < in.lineage->numClusters(); ++c) {
            for (const LineageEvent &e :
                 in.lineage->cluster(c).events) {
                switch (e.type) {
                  case LineageErrorType::Substitution:
                    ++report.injected_confusion[baseIndex(
                        e.ref_base)][baseIndex(e.obs_base)];
                    injected_hist.add(clampPos(e.ref_pos));
                    break;
                  case LineageErrorType::Insertion:
                    injected_hist.add(clampPos(e.ref_pos));
                    break;
                  case LineageErrorType::Deletion:
                    injected_hist.add(clampPos(e.ref_pos));
                    break;
                  case LineageErrorType::LongDeletion:
                    for (uint32_t p = e.ref_pos; p < e.refEnd(); ++p)
                        injected_hist.add(clampPos(p));
                    break;
                }
            }
        }
    }

    // Attribution proper: serial in unit order, so the report is
    // identical at every thread count.
    Unit unit;
    std::vector<EditOp> ops;
    std::vector<std::string> per_copy;
    for (size_t u = 0; u < report.num_units; ++u) {
        resolveUnit(in, u, unit);
        const Strand &ref = (*in.truth)[unit.label].reference;

        if (recluster) {
            const ReadCluster &rc = (*in.clusters)[u];
            for (size_t k = 0; k < rc.members.size(); ++k) {
                if (unit.origins[k] == unit.label)
                    continue;
                MisclusteredRead mis;
                mis.pool_index =
                    static_cast<uint32_t>(rc.members[k]);
                mis.cluster = static_cast<uint32_t>(u);
                mis.cluster_origin = unit.label;
                mis.read_origin = unit.origins[k];
                if (in.assignments != nullptr) {
                    const ReadAssignment &a =
                        (*in.assignments)[rc.members[k]];
                    mis.tier = a.tier;
                    mis.verified_distance = a.verified_distance;
                }
                ++report
                      .misclustered_by_tier[static_cast<size_t>(
                          mis.tier)];
                report.misclustered.push_back(mis);
            }
        }

        if (in.estimates == nullptr)
            continue;
        const Strand &est = (*in.estimates)[u];
        if (est.empty()) {
            ++report.erasures;
            continue;
        }
        editOpsInto(ref, est, nullptr, ops);
        if (numErrors(ops) == 0) {
            ++report.exact_units;
            continue;
        }
        ++report.failed_units;

        // The vote profile is reference-anchored: what the copies
        // actually said at every true position.
        std::vector<PositionVote> votes =
            consensusVoteProfile(ref, unit.reads(), &per_copy);

        for (const EditOp &op : ops) {
            if (op.type == EditOpType::Equal)
                continue;
            FailureRecord rec;
            rec.cluster = static_cast<uint32_t>(u);
            rec.origin = unit.label;
            if (op.type == EditOpType::Substitute) {
                ++report.residual_substitutions;
                ++report.residual_confusion[baseIndex(
                    op.ref_base)][baseIndex(op.copy_base)];
                rec.ref_pos = static_cast<uint32_t>(op.ref_pos);
                rec.expected = op.ref_base;
                rec.got = op.copy_base;
                const PositionVote &v = votes[op.ref_pos];
                rec.correct_votes = v.votes(rec.expected);
                rec.wrong_votes = v.votes(rec.got);
                rec.cause = classifyVoted(unit, v, per_copy,
                                          rec.ref_pos, rec.got, rec);
            } else if (op.type == EditOpType::Delete) {
                ++report.residual_deletions;
                rec.ref_pos = static_cast<uint32_t>(op.ref_pos);
                rec.expected = op.ref_base;
                const PositionVote &v = votes[op.ref_pos];
                rec.correct_votes = v.votes(rec.expected);
                rec.wrong_votes = v.deletion_votes;
                rec.cause = classifyVoted(unit, v, per_copy,
                                          rec.ref_pos, '-', rec);
            } else { // Insert
                ++report.residual_insertions;
                rec.ref_pos = static_cast<uint32_t>(
                    clampPos(op.ref_pos));
                rec.got = op.copy_base;
                rec.cause =
                    classifyInsertion(unit, rec.ref_pos, rec);
            }
            residual_hist.add(clampPos(rec.ref_pos));
            ++report.cause_counts[static_cast<size_t>(rec.cause)];
            report.failures.push_back(rec);
        }
    }

    if (report.num_reads > 0) {
        report.purity =
            1.0 - static_cast<double>(report.misclustered.size()) /
                      static_cast<double>(report.num_reads);
    }
    if (report.ref_length > 0) {
        const size_t buckets =
            std::min(in.heatmap_buckets, report.ref_length);
        report.injected_buckets = bucketProfile(
            injected_hist, report.ref_length, buckets);
        report.residual_buckets = bucketProfile(
            residual_hist, report.ref_length, buckets);
    }
    return report;
}

std::string
lineageReportText(const LineageReport &report)
{
    std::ostringstream os;
    os << "lineage forensics ("
       << (report.reclustered ? "reclustered pool"
                              : "pseudo-clustered")
       << ", " << report.num_units << " clusters, "
       << report.num_reads << " reads)\n";
    if (report.has_estimates) {
        os << "  reconstructions: " << report.exact_units
           << " exact, " << report.failed_units << " with errors, "
           << report.erasures << " erasures\n";
    }
    os << "\n";

    if (report.has_lineage) {
        TextTable inj("injected channel errors");
        inj.setHeader({"type", "count", "share"});
        const auto row = [&](const char *name, uint64_t n) {
            const uint64_t total = report.injected.total();
            inj.addRow({name, std::to_string(n),
                        fmtPercent(total == 0
                                       ? 0.0
                                       : static_cast<double>(n) /
                                             static_cast<double>(
                                                 total))});
        };
        row("sub", report.injected.substitutions);
        row("ins", report.injected.insertions);
        row("del", report.injected.deletions);
        row("long_del", report.injected.long_deletions);
        row("total", report.injected.total());
        inj.print(os);
    }

    if (report.has_estimates) {
        TextTable res("residual errors (reference vs estimate)");
        res.setHeader({"type", "count", "share"});
        const uint64_t total = report.residualTotal();
        const auto row = [&](const char *name, uint64_t n) {
            res.addRow({name, std::to_string(n),
                        fmtPercent(total == 0
                                       ? 0.0
                                       : static_cast<double>(n) /
                                             static_cast<double>(
                                                 total))});
        };
        row("sub", report.residual_substitutions);
        row("ins", report.residual_insertions);
        row("del", report.residual_deletions);
        row("total", total);
        res.print(os);

        TextTable causes("failure causes");
        causes.setHeader({"cause", "count", "share"});
        uint64_t failures = report.failures.size();
        for (size_t i = 0; i < kNumFailureCauses; ++i) {
            causes.addRow(
                {failureCauseName(static_cast<FailureCause>(i)),
                 std::to_string(report.cause_counts[i]),
                 fmtPercent(failures == 0
                                ? 0.0
                                : static_cast<double>(
                                      report.cause_counts[i]) /
                                      static_cast<double>(
                                          failures))});
        }
        causes.print(os);
    }

    if (report.has_lineage) {
        TextTable conf("injected substitution confusion (ref -> read)");
        conf.setHeader({"ref\\read", "A", "C", "G", "T"});
        for (size_t r = 0; r < kNumBases; ++r) {
            std::vector<std::string> row{kBaseRow[r]};
            for (size_t c = 0; c < kNumBases; ++c) {
                row.push_back(std::to_string(
                    report.injected_confusion[r][c]));
            }
            conf.addRow(std::move(row));
        }
        conf.print(os);
    }

    if (report.has_estimates && report.residual_substitutions > 0) {
        TextTable conf(
            "residual substitution confusion (ref -> estimate)");
        conf.setHeader({"ref\\est", "A", "C", "G", "T"});
        for (size_t r = 0; r < kNumBases; ++r) {
            std::vector<std::string> row{kBaseRow[r]};
            for (size_t c = 0; c < kNumBases; ++c) {
                row.push_back(std::to_string(
                    report.residual_confusion[r][c]));
            }
            conf.addRow(std::move(row));
        }
        conf.print(os);
    }

    if (!report.injected_buckets.empty() ||
        !report.residual_buckets.empty()) {
        TextTable heat("positional error heatmap");
        heat.setHeader({"positions", "injected", "inj-share",
                        "residual", "res-share"});
        const size_t rows = std::max(report.injected_buckets.size(),
                                     report.residual_buckets.size());
        for (size_t i = 0; i < rows; ++i) {
            ProfileBucket inj = i < report.injected_buckets.size()
                                    ? report.injected_buckets[i]
                                    : ProfileBucket{};
            ProfileBucket res = i < report.residual_buckets.size()
                                    ? report.residual_buckets[i]
                                    : ProfileBucket{};
            const ProfileBucket &span =
                i < report.injected_buckets.size() ? inj : res;
            heat.addRow({"[" + std::to_string(span.lo) + "," +
                             std::to_string(span.hi) + ")",
                         std::to_string(inj.errors),
                         fmtPercent(inj.share),
                         std::to_string(res.errors),
                         fmtPercent(res.share)});
        }
        heat.print(os);
    }

    if (report.reclustered) {
        os << "clustering: " << report.misclustered.size()
           << " misclustered reads, purity "
           << fmtPercent(report.purity) << "\n";
        if (!report.misclustered.empty()) {
            TextTable mis("misclustered reads (first 20)");
            mis.setHeader({"pool-read", "cluster", "cluster-origin",
                           "read-origin", "tier", "distance"});
            const size_t n =
                std::min<size_t>(20, report.misclustered.size());
            for (size_t i = 0; i < n; ++i) {
                const MisclusteredRead &m = report.misclustered[i];
                mis.addRow({std::to_string(m.pool_index),
                            std::to_string(m.cluster),
                            std::to_string(m.cluster_origin),
                            std::to_string(m.read_origin),
                            assignmentTierName(m.tier),
                            std::to_string(m.verified_distance)});
            }
            mis.print(os);
        }
    }
    return os.str();
}

std::string
lineageReportJson(const LineageReport &report)
{
    std::ostringstream os;
    obs::JsonWriter w(os, 2);
    w.beginObject();
    w.value("schema", "dnasim.lineage.report.v1");
    obs::writeProvenance(w);
    writeSummaryBody(w, report);
    w.beginArray("failures");
    for (const FailureRecord &f : report.failures) {
        w.beginObject();
        w.value("cluster", static_cast<uint64_t>(f.cluster));
        w.value("origin", static_cast<uint64_t>(f.origin));
        w.value("ref_pos", static_cast<uint64_t>(f.ref_pos));
        w.value("expected", baseStr(f.expected));
        w.value("got", baseStr(f.got));
        w.value("cause", failureCauseName(f.cause));
        w.value("correct_votes",
                static_cast<uint64_t>(f.correct_votes));
        w.value("wrong_votes",
                static_cast<uint64_t>(f.wrong_votes));
        w.value("foreign", static_cast<uint64_t>(f.foreign_votes));
        w.value("injected",
                static_cast<uint64_t>(f.injected_votes));
        w.value("clean", static_cast<uint64_t>(f.clean_votes));
        w.endObject();
    }
    w.endArray();
    w.endObject();
    os << '\n';
    return os.str();
}

bool
writeLineageJsonl(const std::string &path, const LineageInputs &in,
                  const LineageReport &report, std::string *error)
{
    DNASIM_ASSERT(in.truth != nullptr,
                  "lineage stream needs ground truth");
    // Atomic temp-and-rename: a killed run leaves either the previous
    // stream intact or nothing, never a truncated JSONL tail.
    obs::AtomicFile file;
    if (!file.open(path, error))
        return false;
    std::ostream &os = file.stream();

    {
        obs::JsonWriter w(os, 0);
        w.beginObject();
        w.value("schema", "dnasim.lineage.v1");
        w.value("kind", "meta");
        obs::writeProvenance(w);
        w.value("reclustered", report.reclustered);
        w.value("clusters",
                static_cast<uint64_t>(report.num_units));
        w.value("reads", static_cast<uint64_t>(report.num_reads));
        w.endObject();
        os << '\n';
    }

    const auto writeEvents =
        [&](obs::JsonWriter &w,
            std::span<const LineageEvent> events) {
            w.beginArray("events");
            for (const LineageEvent &e : events) {
                w.beginObject();
                w.value("type", lineageErrorTypeName(e.type));
                w.value("ref_pos",
                        static_cast<uint64_t>(e.ref_pos));
                if (e.run_length != 1) {
                    w.value("run",
                            static_cast<uint64_t>(e.run_length));
                }
                w.value("ref", baseStr(e.ref_base));
                w.value("obs", baseStr(e.obs_base));
                w.endObject();
            }
            w.endArray();
        };

    const auto writeRead =
        [&](size_t cluster, size_t copy, size_t origin,
            std::span<const LineageEvent> events,
            const ReadAssignment *assignment) {
            obs::JsonWriter w(os, 0);
            w.beginObject();
            w.value("schema", "dnasim.lineage.v1");
            w.value("kind", "read");
            w.value("cluster", static_cast<uint64_t>(cluster));
            w.value("copy", static_cast<uint64_t>(copy));
            w.value("origin", static_cast<uint64_t>(origin));
            writeEvents(w, events);
            if (assignment != nullptr) {
                w.value("tier",
                        assignmentTierName(assignment->tier));
                w.value("distance",
                        static_cast<uint64_t>(
                            assignment->verified_distance));
                w.value("probed",
                        static_cast<uint64_t>(
                            assignment->candidates_probed));
            }
            w.endObject();
            os << '\n';
        };

    if (report.reclustered) {
        for (size_t i = 0; i < in.pool->size(); ++i) {
            const ReadIdentity &id = (*in.identity)[i];
            std::span<const LineageEvent> events;
            if (in.lineage != nullptr &&
                id.origin_cluster < in.lineage->numClusters()) {
                events = in.lineage->readEvents(id.origin_cluster,
                                                id.origin_copy);
            }
            const ReadAssignment *a =
                in.assignments != nullptr ? &(*in.assignments)[i]
                                          : nullptr;
            writeRead(a != nullptr ? a->cluster : 0,
                      id.origin_copy, id.origin_cluster, events, a);
        }
    } else {
        for (size_t u = 0; u < in.truth->size(); ++u) {
            const Cluster &c = (*in.truth)[u];
            for (size_t k = 0; k < c.copies.size(); ++k) {
                std::span<const LineageEvent> events;
                if (in.lineage != nullptr &&
                    u < in.lineage->numClusters()) {
                    events = in.lineage->readEvents(u, k);
                }
                writeRead(u, k, u, events, nullptr);
            }
        }
    }

    for (const FailureRecord &f : report.failures) {
        obs::JsonWriter w(os, 0);
        w.beginObject();
        w.value("schema", "dnasim.lineage.v1");
        w.value("kind", "failure");
        w.value("cluster", static_cast<uint64_t>(f.cluster));
        w.value("origin", static_cast<uint64_t>(f.origin));
        w.value("ref_pos", static_cast<uint64_t>(f.ref_pos));
        w.value("expected", baseStr(f.expected));
        w.value("got", baseStr(f.got));
        w.value("cause", failureCauseName(f.cause));
        w.value("correct_votes",
                static_cast<uint64_t>(f.correct_votes));
        w.value("wrong_votes",
                static_cast<uint64_t>(f.wrong_votes));
        w.value("foreign", static_cast<uint64_t>(f.foreign_votes));
        w.value("injected",
                static_cast<uint64_t>(f.injected_votes));
        w.value("clean", static_cast<uint64_t>(f.clean_votes));
        w.endObject();
        os << '\n';
    }

    {
        obs::JsonWriter w(os, 0);
        w.beginObject();
        w.value("schema", "dnasim.lineage.v1");
        w.value("kind", "summary");
        writeSummaryBody(w, report);
        w.endObject();
        os << '\n';
    }

    return file.commit(error);
}

} // namespace dnasim

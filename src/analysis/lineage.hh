/**
 * @file
 * Ground-truth failure forensics: joins the channel's injected-error
 * lineage (core/lineage_log.hh), the clusterer's per-read assignment
 * provenance (cluster/greedy_cluster.hh) and the reconstructors'
 * per-position vote profiles (reconstruct/consensus.hh) against the
 * true references, and classifies every residual error into a
 * concrete cause.
 *
 * The taxonomy is exhaustive by construction — every wrong consensus
 * position receives exactly one FailureCause, never "unknown":
 *
 *   coverage-gap        no copy cast any vote at the position
 *   tie-break           the correct base tied the winner and the
 *                       tie resolved the wrong way
 *   contamination       the wrong plurality is carried by reads that
 *                       belong to a different reference (imperfect
 *                       clustering let them in)
 *   channel-noise       the wrong plurality is carried by native
 *                       reads whose own injected errors touch the
 *                       position — the channel simply out-voted the
 *                       truth at this coverage
 *   alignment-artifact  the wrong plurality is carried by clean
 *                       native reads: their minimum-edit alignments
 *                       shifted votes onto the position
 *   algorithmic         the copies' plurality at the position is the
 *                       correct base, yet the reconstructor emitted
 *                       another — its heuristics (iteration order,
 *                       length enforcement, earlier random
 *                       tie-breaks) diverged from the recomputed
 *                       vote
 *
 * Attribution runs serially in cluster order, so the report is
 * byte-identical at any thread count.
 */

#ifndef DNASIM_ANALYSIS_LINEAGE_HH
#define DNASIM_ANALYSIS_LINEAGE_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "analysis/error_positions.hh"
#include "cluster/recluster.hh"
#include "core/lineage_log.hh"
#include "data/dataset.hh"

namespace dnasim
{

/** Why a reconstructed position came out wrong. */
enum class FailureCause : uint8_t
{
    CoverageGap,
    TieBreak,
    Contamination,
    ChannelNoise,
    AlignmentArtifact,
    Algorithmic,
};

inline constexpr size_t kNumFailureCauses = 6;

/** Stable kebab-case name ("coverage-gap", "channel-noise", ...). */
const char *failureCauseName(FailureCause cause);


/** One classified wrong position in one cluster's reconstruction. */
struct FailureRecord
{
    uint32_t cluster = 0; ///< attribution unit (recovered cluster
                          ///< index, or truth cluster index)
    uint32_t origin = 0;  ///< true reference the unit reconstructs
    uint32_t ref_pos = 0; ///< reference position of the error
    char expected = '\0'; ///< reference base (0 for insertions)
    char got = '\0';      ///< estimate base (0 for deletions)
    FailureCause cause = FailureCause::Algorithmic;
    uint32_t correct_votes = 0; ///< aligned votes for the truth
    uint32_t wrong_votes = 0;   ///< aligned votes for the error
    /// Partition of the wrong votes by supporter kind.
    uint32_t foreign_votes = 0;  ///< from reads of another reference
    uint32_t injected_votes = 0; ///< from native reads whose injected
                                 ///< events touch the position
    uint32_t clean_votes = 0;    ///< from native reads with no
                                 ///< injected event at the position
};

/** One read that landed in a cluster of the wrong reference. */
struct MisclusteredRead
{
    uint32_t pool_index = 0;
    uint32_t cluster = 0;        ///< recovered cluster it joined
    uint32_t cluster_origin = 0; ///< that cluster's majority origin
    uint32_t read_origin = 0;    ///< the read's true origin
    AssignmentTier tier = AssignmentTier::Fresh;
    uint32_t verified_distance = 0;
};

/** 4x4 base-confusion counts, indexed [baseIndex(ref)][baseIndex(obs)]. */
using SubConfusion =
    std::array<std::array<uint64_t, kNumBases>, kNumBases>;

/** Everything the attribution engine produces. */
struct LineageReport
{
    bool reclustered = false;
    bool has_lineage = false;
    bool has_estimates = false;
    size_t num_units = 0; ///< clusters attributed (recovered or truth)
    size_t num_reads = 0;
    size_t ref_length = 0; ///< longest reference (heatmap domain)
    size_t erasures = 0;   ///< units skipped for an empty estimate
    size_t failed_units = 0;
    size_t exact_units = 0;

    /// Injected channel ground truth (when a LineageLog was given).
    LineageCounts injected;
    SubConfusion injected_confusion{}; ///< silent subs count on the
                                       ///< diagonal
    /// Residual reference-vs-estimate errors.
    uint64_t residual_substitutions = 0;
    uint64_t residual_deletions = 0;
    uint64_t residual_insertions = 0;
    SubConfusion residual_confusion{}; ///< substitutions only

    /// Positional heatmaps, bucketed over [0, ref_length).
    std::vector<ProfileBucket> injected_buckets;
    std::vector<ProfileBucket> residual_buckets;

    /// Every wrong consensus position, classified.
    std::vector<FailureRecord> failures;
    std::array<uint64_t, kNumFailureCauses> cause_counts{};

    /// Clustering forensics (recluster mode only).
    std::vector<MisclusteredRead> misclustered;
    /// Indexed by AssignmentTier.
    std::array<uint64_t, kNumAssignmentTiers> misclustered_by_tier{};
    double purity = 1.0;

    uint64_t
    residualTotal() const
    {
        return residual_substitutions + residual_deletions +
               residual_insertions;
    }
};

/**
 * Inputs to the attribution engine. Only @p truth is mandatory;
 * every other piece degrades the report gracefully when absent
 * (no lineage → injected stats empty and channel-noise
 * classification falls back on foreign/clean partitioning; no
 * estimates → no failure records; no recovered clustering → the
 * simulator's pseudo-clusters are attributed 1:1).
 */
struct LineageInputs
{
    /// Ground truth: references, and (in pseudo-clustered mode) the
    /// per-reference copies.
    const Dataset *truth = nullptr;
    /// Injected-error record of the simulation run, or nullptr.
    const LineageLog *lineage = nullptr;
    /// Per-unit reconstructions (empty strand = erasure), indexed
    /// like the recovered clusters (recluster mode) or like @p truth.
    const std::vector<Strand> *estimates = nullptr;

    /// Recovered clustering of a shuffled read pool. All three of
    /// clusters/pool/identity must be present together; nullptr
    /// selects pseudo-clustered mode.
    const std::vector<ReadCluster> *clusters = nullptr;
    const std::vector<Strand> *pool = nullptr;
    const std::vector<ReadIdentity> *identity = nullptr;
    /// Optional per-pool-read placement provenance from clusterReads.
    const std::vector<ReadAssignment> *assignments = nullptr;

    /// Rows in the positional heatmaps.
    size_t heatmap_buckets = 11;
};

/** Run the attribution engine over @p in. */
LineageReport attributeLineage(const LineageInputs &in);

/** Human-readable forensics report (TextTable sections). */
std::string lineageReportText(const LineageReport &report);

/** Single-document JSON report (schema dnasim.lineage.report.v1). */
std::string lineageReportJson(const LineageReport &report);

/**
 * Write the dnasim.lineage.v1 JSONL stream: a "meta" line (schema +
 * build provenance + run shape), one "read" line per read (injected
 * events, true origin, and — when assignments were given — placement
 * provenance), one "failure" line per classified wrong position, and
 * a closing "summary" line mirroring the report aggregates. Returns
 * false (and sets @p error when non-null) on I/O failure.
 */
bool writeLineageJsonl(const std::string &path,
                       const LineageInputs &in,
                       const LineageReport &report,
                       std::string *error = nullptr);

} // namespace dnasim

#endif // DNASIM_ANALYSIS_LINEAGE_HH

/**
 * @file
 * Shared consensus helpers for the reconstruction algorithms.
 */

#ifndef DNASIM_RECONSTRUCT_CONSENSUS_HH
#define DNASIM_RECONSTRUCT_CONSENSUS_HH

#include <array>
#include <span>
#include <vector>

#include "base/dna.hh"
#include "base/rng.hh"

namespace dnasim
{

/**
 * Per-position plurality vote over copies (direct indexing, no
 * alignment): position i collects copy[i] from every copy longer
 * than i. The result has exactly @p design_len characters; positions
 * where no copy votes are filled with 'A'. Ties break uniformly at
 * random via @p rng.
 *
 * Optional @p weights (same size as @p copies) weight each copy's
 * vote; pass an empty span for unweighted voting.
 */
Strand positionalPlurality(std::span<const Strand> copies,
                           size_t design_len, Rng &rng,
                           std::span<const double> weights = {});

/**
 * One round of alignment-based (star-MSA) consensus refinement.
 *
 * Every copy is aligned to @p estimate by minimum edit distance;
 * each estimate position then collects base votes (from equal and
 * substituted characters), deletion votes, and insertion votes for
 * the gaps between positions. The refined string keeps a position's
 * plurality base, drops positions whose deletion votes exceed half
 * the (weighted) copies, and materializes insertions supported by
 * more than half of them.
 *
 * Optional @p weights (same size as @p copies) scale each copy's
 * votes; pass an empty span for unweighted voting.
 *
 * The result's length may differ from the estimate's; callers
 * typically iterate to a fixpoint and then enforce the design
 * length.
 */
Strand alignedConsensus(const Strand &estimate,
                        std::span<const Strand> copies, Rng &rng,
                        std::span<const double> weights = {});

/**
 * Enforce the design length on a converged consensus estimate by
 * maximum-likelihood single-indel moves.
 *
 * A consensus can converge one or two bases long or short when a
 * spurious indel inside a homopolymer run stays below the voting
 * majority (other copies' length differences get traded into
 * substitution chains elsewhere in their minimum edit scripts). The
 * design length is side information every DNA-storage system has, so
 * instead of blind padding/truncation this repeatedly applies the
 * single insertion or deletion that minimizes the total edit
 * distance between the estimate and the cluster, with candidates
 * short-listed by indel votes.
 */
Strand enforceDesignLength(Strand estimate,
                           std::span<const Strand> copies,
                           size_t design_len, Rng &rng);

/** Sum of edit distances from @p estimate to every copy. */
size_t totalEditDistance(const Strand &estimate,
                         std::span<const Strand> copies);

/**
 * Per-position voting summary of a consensus decision, captured for
 * failure forensics (src/analysis/lineage.hh): how strongly each
 * base was supported and by what margin the winner won.
 */
struct PositionVote
{
    std::array<uint32_t, kNumBases> base_votes{};
    uint32_t deletion_votes = 0; ///< copies whose alignment deletes
                                 ///< this position

    uint32_t
    votes(char base) const
    {
        return base_votes[baseIndex(base)];
    }

    uint32_t
    totalBaseVotes() const
    {
        uint32_t t = 0;
        for (uint32_t v : base_votes)
            t += v;
        return t;
    }

    /** Winner's votes minus runner-up's votes (0 on a tie). */
    uint32_t margin() const;
};

/**
 * Per-position vote profile of @p copies aligned against
 * @p estimate — the same deterministic leftmost edit scripts
 * alignedConsensus() votes with (editOpsWalk), so
 * the attribution engine can reconstruct each consensus decision
 * after the fact. Element i summarizes the votes at estimate
 * position i.
 *
 * A non-null @p per_copy additionally receives, per copy, a string
 * of length estimate.size(): the base that copy's alignment votes at
 * each position, '-' for a deletion vote, or '\0' when the copy
 * casts no vote there.
 */
std::vector<PositionVote>
consensusVoteProfile(const Strand &estimate,
                     std::span<const Strand> copies,
                     std::vector<std::string> *per_copy = nullptr);

/**
 * The plurality rule every vote uses: the index of the first strict
 * maximum of @p counts[0..kNumBases) in base order, or, on a tie, a
 * uniform draw among the tied indices — the only Rng draw a vote
 * takes. Counts must be non-negative.
 */
template <typename Count>
inline size_t
pluralityIndex(const Count *counts, Rng &rng)
{
    Count best = counts[0];
    size_t num_best = 1;
    std::array<size_t, kNumBases> tied{};
    for (size_t b = 1; b < kNumBases; ++b) {
        if (counts[b] > best) {
            best = counts[b];
            tied[0] = b;
            num_best = 1;
        } else if (counts[b] == best) {
            tied[num_best++] = b;
        }
    }
    return num_best == 1 ? tied[0] : tied[rng.index(num_best)];
}

/** Accumulates weighted votes over the four bases. */
class BaseVote
{
  public:
    void
    add(char base, double weight = 1.0)
    {
        counts_[baseIndex(base)] += weight;
    }

    bool
    empty() const
    {
        for (double c : counts_)
            if (c > 0.0)
                return false;
        return true;
    }

    /** Winning base; ties break uniformly at random. */
    char
    winner(Rng &rng) const
    {
        return kBaseChars[pluralityIndex(counts_.data(), rng)];
    }

    void
    clear()
    {
        counts_.fill(0.0);
    }

  private:
    std::array<double, kNumBases> counts_{};
};

} // namespace dnasim

#endif // DNASIM_RECONSTRUCT_CONSENSUS_HH

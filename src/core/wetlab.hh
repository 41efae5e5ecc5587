/**
 * @file
 * The synthetic "wetlab" Nanopore channel — this reproduction's
 * substitute for the Microsoft Nanopore dataset used by the paper
 * (10,000 reference strands of length 110; 269,709 noisy reads;
 * average coverage 26.97; 16 empty clusters; aggregate error 5.9%).
 *
 * The generator implements strictly *richer* physics than any of the
 * simulators under test:
 *
 *  - negative-binomial per-cluster coverage with erasures
 *    (Heckel et al. [13]);
 *  - base-conditional IDS errors with an affinity-biased confusion
 *    matrix (T<->C and A<->G preferred);
 *  - long deletions with the paper's calibrated statistics
 *    (p = 0.33%, mean length 2.17, length ratios 84/13/1.8/0.2/0.02%
 *    for lengths 2-6);
 *  - terminal spatial skew (positions 0-1 and the final position
 *    elevated; the strand end about twice the beginning);
 *  - second-order errors with their own end-heavy spatial skews
 *    (Fig. 3.6);
 *  - Nanopore burst errors: runs of >= 5 consecutive deleted or
 *    substituted bases ([17]), which none of the parametric
 *    simulators model — this is part of why real data reconstructs
 *    worse than simulated data.
 *
 * The paper's evaluation calibrates its simulators *from* this data
 * and measures how closely reconstruction accuracy converges to it,
 * exercising exactly the code path the paper exercised with real
 * sequencing data.
 */

#ifndef DNASIM_CORE_WETLAB_HH
#define DNASIM_CORE_WETLAB_HH

#include "core/error_profile.hh"
#include "data/dataset.hh"

namespace dnasim
{

/**
 * Configuration of the synthetic wetlab channel: the settings the
 * CLI, the harnesses and the benchmark choose. The channel's fixed
 * physics (coverage dispersion, bursts, quality dispersion, end
 * truncation, alien and truncated reads) are constants in wetlab.cc.
 */
struct WetlabConfig
{
    size_t num_clusters = 10000;
    size_t strand_length = 110;

    /// Mean per-cluster coverage (paper: 26.97, range 0-164).
    double mean_coverage = 26.97;

    /// Aggregate per-base error rate (paper: 5.9%).
    double total_error_rate = 0.059;
};

/** Generates the synthetic Nanopore dataset. */
class NanoporeDatasetGenerator
{
  public:
    explicit NanoporeDatasetGenerator(WetlabConfig config = {});

    const WetlabConfig &config() const { return config_; }

    /**
     * The hand-crafted ground-truth ErrorProfile of the wetlab
     * channel (without bursts, which are outside the parametric
     * model family on purpose).
     */
    static ErrorProfile groundTruthProfile(size_t strand_length,
                                           double total_rate);

    /**
     * Generate a full dataset: the reference library, then noisy
     * clusters. Deterministic in @p rng's seed.
     */
    Dataset generate(Rng &rng) const;

    /**
     * Generate clusters for caller-provided references at the
     * configured coverage distribution.
     */
    Dataset generateFor(const std::vector<Strand> &references,
                        Rng &rng) const;

  private:
    /** Inject one burst (deletion or substitution run) into a copy. */
    void maybeInjectBurst(Strand &copy, Rng &rng) const;

    /** Possibly truncate a copy to a fraction of its length. */
    void maybeTruncate(Strand &copy, Rng &rng) const;

    /** Possibly drop the last base(s) (3'-end truncation). */
    void maybeEndTruncate(Strand &copy, Rng &rng) const;

    WetlabConfig config_;
};

} // namespace dnasim

#endif // DNASIM_CORE_WETLAB_HH

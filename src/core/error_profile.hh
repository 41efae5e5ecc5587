/**
 * @file
 * The full parameter set of the dnasim error model.
 *
 * An ErrorProfile holds every statistic the simulator can be
 * conditioned on, layered exactly as the paper introduces them
 * (section 3.3):
 *
 *  1. aggregate insertion / deletion / substitution rates (the naive
 *     model's only inputs);
 *  2. base-conditional rates, a substitution confusion matrix, an
 *     inserted-base distribution, and long-deletion statistics
 *     (section 3.3.1);
 *  3. an aggregate spatial (positional) error distribution
 *     (section 3.3.2);
 *  4. a table of second-order errors — specific (type, base[, repl])
 *     events with their own rates and spatial distributions
 *     (section 3.3.3).
 *
 * Profiles are produced either by hand (synthetic experiments) or by
 * the data-driven ErrorProfiler (core/profiler.hh).
 */

#ifndef DNASIM_CORE_ERROR_PROFILE_HH
#define DNASIM_CORE_ERROR_PROFILE_HH

#include <array>
#include <string>
#include <vector>

#include "align/edit_distance.hh"
#include "base/dna.hh"
#include "stats/position_profile.hh"

namespace dnasim
{

/** Identity of a second-order error. */
struct SecondOrderKey
{
    /// Substitute, Delete, or Insert.
    EditOpType type = EditOpType::Substitute;
    /// Affected reference base for Substitute/Delete; the inserted
    /// base for Insert.
    char base = 'A';
    /// Replacement base for Substitute; '\0' otherwise.
    char repl = '\0';

    bool operator==(const SecondOrderKey &) const = default;

    /** e.g. "sub G->C", "del A", "ins T". */
    std::string str() const;
};

/** A second-order error with its calibrated rate and spatial shape. */
struct SecondOrderSpec
{
    SecondOrderKey key;
    /**
     * Occurrence rate. For Substitute/Delete this is conditional on
     * the affected base occupying the position; for Insert it is per
     * reference position.
     */
    double rate = 0.0;
    /// Spatial distribution of this specific error.
    PositionProfile spatial;
    /// Observed occurrences during calibration (0 for synthetic).
    uint64_t count = 0;
};

/** Complete parameter set for the IDS channel model. */
struct ErrorProfile
{
    /// Design length of the reference strands the profile was
    /// calibrated on (the spatial profiles' natural length).
    size_t design_length = 0;

    /// Largest design_length a profile file may declare. The channel
    /// keeps one rate row per design position, so this bounds that
    /// table at 8 MiB per model.
    static constexpr size_t kMaxDesignLength = 65536;

    /// @{ Aggregate per-reference-base rates. p_del counts every
    /// deleted base, including those inside long-deletion runs.
    double p_sub = 0.0;
    double p_ins = 0.0;
    double p_del = 0.0;
    /// @}

    /// @{ Base-conditional rates, indexed by baseIndex(). The
    /// deletion entry covers single (length-1) deletions only; long
    /// runs are modelled by p_long_del below.
    std::array<double, kNumBases> p_sub_given{};
    std::array<double, kNumBases> p_ins_given{};
    std::array<double, kNumBases> p_del_given{};
    /// @}

    /// confusion[orig][repl] = P(repl | substitution of orig);
    /// each row sums to 1 with a zero diagonal.
    std::array<std::array<double, kNumBases>, kNumBases> confusion{};

    /// Distribution of inserted bases (sums to 1).
    std::array<double, kNumBases> insert_base{};

    /// Per-base probability that a long deletion run (length >= 2)
    /// starts at a position.
    double p_long_del = 0.0;

    /// Unnormalized weights of long-deletion lengths; index 0
    /// corresponds to length 2.
    std::vector<double> long_del_len_weights;

    /// Aggregate spatial distribution of errors.
    PositionProfile spatial;

    /// Context effect: error-rate multiplier for positions inside a
    /// homopolymer run of length >= kHomopolymerRunLength
    /// (sequencing is vulnerable to homopolymers; section 1.2).
    /// Applied mean-preservingly by the engine's context feature.
    double homopolymer_mult = 1.0;

    /// Run length from which the homopolymer multiplier applies.
    static constexpr size_t kHomopolymerRunLength = 3;

    /// Second-order error table (typically the top-10 errors).
    std::vector<SecondOrderSpec> second_order;

    /** Aggregate per-base error rate p_sub + p_ins + p_del. */
    double totalRate() const { return p_sub + p_ins + p_del; }

    /** Mean long-deletion length implied by the weights (>= 2). */
    double meanLongDeletionLength() const;

    /**
     * A synthetic profile with uniform conditional structure:
     * identical per-base rates splitting @p total_rate in the
     * proportions @p sub_frac : @p ins_frac : @p del_frac, uniform
     * confusion and inserted-base distributions, no long deletions,
     * uniform spatial profile, and no second-order table.
     */
    static ErrorProfile uniform(double total_rate, size_t design_length,
                                double sub_frac = 1.0 / 3.0,
                                double ins_frac = 1.0 / 3.0,
                                double del_frac = 1.0 / 3.0);

    /** Copy of this profile with @p spatial replacing the aggregate
     *  spatial distribution. */
    ErrorProfile withSpatial(PositionProfile new_spatial) const;

    /** Multi-line human-readable report. */
    std::string str() const;
};

} // namespace dnasim

#endif // DNASIM_CORE_ERROR_PROFILE_HH

/**
 * @file
 * The parametric IDS (insertion-deletion-substitution) channel model
 * underlying every simulator variant in the paper.
 *
 * A single engine consumes a full ErrorProfile plus a feature mask;
 * the paper's progressively refined simulators are configurations of
 * the same engine:
 *
 *  - naive():       aggregate rates only (section 3.3's baseline);
 *  - conditional(): + base-conditional rates, confusion matrix,
 *                   inserted-base distribution, long deletions
 *                   (section 3.3.1);
 *  - skew():        + aggregate spatial distribution (section 3.3.2);
 *  - secondOrder(): + per-error spatial distributions for the listed
 *                   second-order errors (section 3.3.3);
 *  - full():        everything (used by the synthetic wetlab channel).
 */

#ifndef DNASIM_CORE_IDS_MODEL_HH
#define DNASIM_CORE_IDS_MODEL_HH

#include <string>
#include <vector>

#include "core/error_model.hh"
#include "core/error_profile.hh"
#include "stats/distributions.hh"

namespace dnasim
{

namespace obs
{
class Counter;
}

/**
 * The process-wide channel.* counters, resolved once and fed by every
 * model (this engine and DnaSimulatorModel). A model counts its
 * events per strand in locals and flushes them once per strand: one
 * sharded add per touched counter keeps the hot loops free of
 * bookkeeping.
 */
struct ChannelStats
{
    /** Error events injected into one strand. */
    struct Events
    {
        uint64_t sub = 0;
        uint64_t ins = 0;
        uint64_t del = 0;
        uint64_t long_del = 0;
        uint64_t second_order = 0;
    };

    obs::Counter &strands;
    obs::Counter &bases_in;
    obs::Counter &bases_out;
    obs::Counter &sub;
    obs::Counter &ins;
    obs::Counter &del;
    obs::Counter &long_del;
    obs::Counter &second_order;

    static ChannelStats &get();

    /** Count one strand of @p n_in bases sent as @p n_out bases. */
    void flush(size_t n_in, size_t n_out, const Events &events);
};

/** Which layers of the ErrorProfile the engine uses. */
struct ModelFeatures
{
    bool conditional = false;    ///< base-conditional rates/confusion
    bool long_deletions = false; ///< explicit long-deletion runs
    bool spatial = false;        ///< aggregate positional skew
    bool second_order = false;   ///< per-error positional skew
    bool context = false;        ///< homopolymer-run multiplier

    bool operator==(const ModelFeatures &) const = default;
};

/** The configurable IDS channel engine. */
class IdsChannelModel : public ErrorModel
{
  public:
    /**
     * Construct from a profile and feature mask.
     * @p display_name overrides the auto-generated name.
     */
    IdsChannelModel(ErrorProfile profile, ModelFeatures features,
                    std::string display_name = "");

    /** Aggregate rates only — the paper's naive simulator. */
    static IdsChannelModel naive(const ErrorProfile &profile);

    /** Naive + conditional probabilities + long deletions. */
    static IdsChannelModel conditional(const ErrorProfile &profile);

    /** Conditional + aggregate spatial skew. */
    static IdsChannelModel skew(const ErrorProfile &profile);

    /** Skew + second-order errors. */
    static IdsChannelModel secondOrder(const ErrorProfile &profile);

    /**
     * Second-order + homopolymer context — an extension rung beyond
     * the paper's ladder (the paper lists homopolymer sensitivity
     * as a known, unmodelled effect).
     */
    static IdsChannelModel contextual(const ErrorProfile &profile);

    /** All features enabled. */
    static IdsChannelModel full(const ErrorProfile &profile,
                                std::string display_name = "full");

    Strand transmit(const Strand &ref, Rng &rng) const override;

    Strand transmit(const Strand &ref, Rng &rng,
                    LineageRecorder &lineage) const override;

    /**
     * Transmit with every error rate multiplied by @p rate_scale
     * (clamped so the per-position total stays below 0.9). Used by
     * the wetlab channel to model per-read quality dispersion; the
     * parametric simulators always transmit at scale 1.
     *
     * A non-null @p lineage records every injected event; the
     * recording never touches the Rng, so the output is identical
     * either way.
     */
    Strand transmitScaled(const Strand &ref, double rate_scale,
                          Rng &rng,
                          LineageRecorder *lineage = nullptr) const;

    std::string name() const override { return name_; }

    const ErrorProfile &profile() const { return profile_; }
    const ModelFeatures &features() const { return features_; }

    /**
     * Effective per-position rates for base @p base at position
     * @p pos of a strand of length @p len (exposed for tests and for
     * plotting pre-reconstruction spatial distributions).
     */
    struct Rates
    {
        double sub = 0.0;
        double ins = 0.0;
        double del = 0.0;
        double long_del = 0.0;

        double total() const { return sub + ins + del + long_del; }
    };
    Rates ratesAt(char base, size_t pos, size_t len) const;

  private:
    /**
     * Pick a substitution replacement for @p base at @p pos.
     * @p second_order is set when a listed second-order error fired.
     */
    char pickSubstitution(char base, size_t pos, size_t len, Rng &rng,
                          bool *second_order) const;

    /** Pick an inserted base at @p pos (see pickSubstitution). */
    char pickInsertion(size_t pos, size_t len, Rng &rng,
                       bool *second_order) const;

    /** Draw a long-deletion run length (>= 2). */
    size_t drawLongDeletionLength(Rng &rng) const;

    ErrorProfile profile_;
    ModelFeatures features_;
    std::string name_;

    // Precomputed samplers for the hot path.
    std::array<CumulativeSampler, kNumBases> confusion_samplers_;
    CumulativeSampler insert_sampler_;
    CumulativeSampler long_del_sampler_;

    // Second-order entries bucketed by (type, affected base) for
    // O(k) lookup during transmission; indices into
    // profile_.second_order.
    std::array<std::vector<size_t>, kNumBases> so_sub_;
    std::array<std::vector<size_t>, kNumBases> so_del_;
    std::vector<size_t> so_ins_;
    // Residual conditional rates after subtracting listed
    // second-order mass.
    std::array<double, kNumBases> residual_sub_{};
    std::array<double, kNumBases> residual_del_{};
    std::array<double, kNumBases> residual_ins_{};

    // ratesAt(base, i, design_length) for every design position i,
    // indexed [i][baseIndex(base)]; empty when design_length is 0 or
    // above ErrorProfile::kMaxDesignLength. Strands of any other
    // length call ratesAt per base.
    std::vector<std::array<Rates, kNumBases>> rate_table_;
};

} // namespace dnasim

#endif // DNASIM_CORE_IDS_MODEL_HH

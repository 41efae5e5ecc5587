/**
 * @file
 * A faithful port of DNASimulator's error-injection algorithm
 * (Algorithm 1 of the paper; Chaykin et al. [7]), used as the
 * prior-work baseline in Tables 2.1 and 2.2.
 *
 * DNASimulator keeps one dictionary E of per-base probabilities for
 * substitution, insertion, single-base deletion, and long deletion,
 * predetermined per (synthesis, sequencing) technology pair in the
 * original tool; this port builds it from a calibrated profile
 * (fromProfile). Errors are injected in a single pass, independent
 * of position and of neighbouring errors, and substitutions draw a
 * replacement uniformly from all four bases — including the
 * original, so a fraction 1/4 of substitution events are silent.
 * All of those modelling choices are deliberate parts of the
 * baseline being critiqued (section 2.2.3). A silent substitution
 * still counts as one, in the lineage and in channel.errors.sub.
 */

#ifndef DNASIM_CORE_DNASIMULATOR_MODEL_HH
#define DNASIM_CORE_DNASIMULATOR_MODEL_HH

#include <array>
#include <string>

#include "core/error_model.hh"
#include "core/error_profile.hh"

namespace dnasim
{

/** Per-base entry of DNASimulator's error dictionary E. */
struct DnaSimulatorEntry
{
    double p_sub = 0.0;
    double p_ins = 0.0;
    double p_del = 0.0;
    double p_long_del = 0.0; ///< probability of a long (2-base+) deletion
};

/** Algorithm 1: the DNASimulator error model. */
class DnaSimulatorModel : public ErrorModel
{
  public:
    /** Construct from an explicit dictionary. */
    explicit DnaSimulatorModel(
        std::array<DnaSimulatorEntry, kNumBases> dictionary,
        std::string display_name = "dnasimulator");

    /**
     * Build the dictionary from a calibrated ErrorProfile's
     * base-conditional aggregates, discarding everything Algorithm 1
     * cannot express (confusion structure, spatial skew,
     * second-order errors). This matches how the original tool's
     * dictionaries were produced — by summarizing experimental error
     * statistics.
     */
    static DnaSimulatorModel fromProfile(const ErrorProfile &profile);

    Strand transmit(const Strand &ref, Rng &rng) const override;
    Strand transmit(const Strand &ref, Rng &rng,
                    LineageRecorder &lineage) const override;
    std::string name() const override { return name_; }

    const std::array<DnaSimulatorEntry, kNumBases> &
    dictionary() const
    {
        return dictionary_;
    }

  private:
    std::array<DnaSimulatorEntry, kNumBases> dictionary_;
    std::string name_;
};

} // namespace dnasim

#endif // DNASIM_CORE_DNASIMULATOR_MODEL_HH

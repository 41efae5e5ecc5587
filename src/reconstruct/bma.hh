/**
 * @file
 * Bitwise Majority Alignment with look-ahead (BMA Look-Ahead, Batu
 * et al. [3]).
 *
 * Each copy keeps a cursor. At every output position the active
 * cursor characters vote; the plurality becomes the next estimate
 * character. Copies that disagree are classified with a one-step
 * look-ahead:
 *
 *  - insertion: the copy's *next* character matches the majority, so
 *    the current character is an inserted extra — the cursor skips
 *    two characters;
 *  - deletion: the copy's current character matches the look-ahead
 *    estimate of the *next* majority, so the copy is missing the
 *    current reference character — the cursor stays put;
 *  - substitution otherwise — the cursor advances one.
 *
 * The paper's BMA performs *two-way execution* (section 3.2): the
 * forward pass reconstructs the first half, a second pass over the
 * reversed copies reconstructs the second half, and the two halves
 * are concatenated. Alignment drift therefore accumulates toward
 * the middle of the strand, producing the A-shaped residual error
 * profile of Fig. 3.4c. One-way execution is available for
 * sensitivity studies.
 *
 * Each error hypothesis is scored over a look-ahead window of
 * kWindow characters; a window wider than the classic
 * next-character check disambiguates indels near repeats better.
 */

#ifndef DNASIM_RECONSTRUCT_BMA_HH
#define DNASIM_RECONSTRUCT_BMA_HH

#include "reconstruct/reconstructor.hh"

namespace dnasim
{

/** Options for BmaLookahead. */
struct BmaOptions
{
    /// Two-way execution (forward + backward halves); the paper's
    /// default BMA behaviour.
    bool two_way = true;
};

/** BMA Look-Ahead reconstructor. */
class BmaLookahead : public Reconstructor
{
  public:
    explicit BmaLookahead(BmaOptions options = {});

    Strand reconstruct(const std::vector<Strand> &copies,
                       size_t design_len, Rng &rng) const override;
    std::string name() const override;

    const BmaOptions &options() const { return options_; }

    /// Look-ahead window: characters compared per error hypothesis.
    static constexpr size_t kWindow = 3;

    /**
     * A single forward pass over @p copies producing @p design_len
     * characters (exposed for the sensitivity analysis and tests).
     */
    static Strand forwardPass(const std::vector<Strand> &copies,
                              size_t design_len, Rng &rng);

  private:
    BmaOptions options_;
};

} // namespace dnasim

#endif // DNASIM_RECONSTRUCT_BMA_HH

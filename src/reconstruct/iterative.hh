/**
 * @file
 * Iterative reconstruction (Sabary et al. [21]).
 *
 * The algorithm starts from a *forward* cursor-consensus pass
 * (anchored at the strand start) and then iterates alignment-based
 * consensus refinement to a fixpoint: every copy is aligned to the
 * current estimate by minimum edit distance, positions vote
 * (including deletion and insertion votes), and the refined estimate
 * replaces the old one.
 *
 * Because the seed pass scans forward from the start of the strand,
 * alignment errors that survive refinement concentrate toward the
 * end: the residual Hamming profile grows roughly linearly with
 * position (Fig. 3.4a), the gestalt-aligned residuals pile up at the
 * strand's end, and the residual errors are dominated by deletions
 * (section 3.4.1). Those mechanistic properties are what the
 * paper's sensitivity analysis probes, and the two-way variant
 * (reconstruct/twoway_iterative.hh) is the fix it proposes
 * (section 4.3).
 */

#ifndef DNASIM_RECONSTRUCT_ITERATIVE_HH
#define DNASIM_RECONSTRUCT_ITERATIVE_HH

#include "reconstruct/reconstructor.hh"

namespace dnasim
{

/** Options for Iterative. */
struct IterativeOptions
{
    /// Enforce the design length with maximum-likelihood
    /// single-indel moves. Disabling this reproduces the original
    /// algorithm's behaviour of emitting variable-length estimates,
    /// whose residual errors are dominated by deletions (the
    /// consensus converges short when copies carry net deletions;
    /// section 3.4.1 reports ~90% deletions).
    bool enforce_length = true;
};

/** The Iterative reconstructor. */
class Iterative : public Reconstructor
{
  public:
    explicit Iterative(IterativeOptions options = {});

    Strand reconstruct(const std::vector<Strand> &copies,
                       size_t design_len, Rng &rng) const override;

    std::string
    name() const override
    {
        return options_.enforce_length ? "Iterative"
                                       : "Iterative-raw";
    }

    const IterativeOptions &options() const { return options_; }

    /// Refinement rounds before giving up on convergence.
    static constexpr size_t kMaxRounds = 10;

  private:
    IterativeOptions options_;
};

} // namespace dnasim

#endif // DNASIM_RECONSTRUCT_ITERATIVE_HH

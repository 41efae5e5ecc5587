/**
 * @file
 * Weighted Iterative reconstruction — the second improvement floated
 * in section 4.3: "using heuristics to assign a higher weightage to
 * noisy copies that closely align with the partially reconstructed
 * strand".
 *
 * Each round, copies vote in proportion to their gestalt similarity
 * with the current estimate, so badly corrupted copies (bursts,
 * heavy indel drift) lose influence instead of dragging the
 * consensus off register.
 */

#ifndef DNASIM_RECONSTRUCT_WEIGHTED_ITERATIVE_HH
#define DNASIM_RECONSTRUCT_WEIGHTED_ITERATIVE_HH

#include "reconstruct/iterative.hh"
#include "reconstruct/reconstructor.hh"

namespace dnasim
{

/** Iterative reconstruction with similarity-weighted voting. */
class WeightedIterative : public Reconstructor
{
  public:
    Strand reconstruct(const std::vector<Strand> &copies,
                       size_t design_len, Rng &rng) const override;
    std::string name() const override { return "Iterative-weighted"; }

    /// Gestalt scores are raised to this power when used as vote
    /// weights; larger sharpens the preference for well-aligned
    /// copies.
    static constexpr double kWeightPower = 4.0;
};

} // namespace dnasim

#endif // DNASIM_RECONSTRUCT_WEIGHTED_ITERATIVE_HH

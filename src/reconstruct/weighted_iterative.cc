#include "reconstruct/weighted_iterative.hh"

#include <cmath>

#include "align/gestalt.hh"
#include "reconstruct/bma.hh"
#include "reconstruct/consensus.hh"

namespace dnasim
{

Strand
WeightedIterative::reconstruct(const std::vector<Strand> &copies,
                               size_t design_len, Rng &rng) const
{
    if (copies.empty())
        return Strand();

    Strand estimate =
        BmaLookahead::forwardPass(copies, design_len, rng);
    std::vector<double> weights(copies.size(), 1.0);

    for (size_t round = 0; round < Iterative::kMaxRounds; ++round) {
        // Copies that align well with the current estimate get more
        // say; badly corrupted copies (bursts, heavy drift) lose
        // influence instead of dragging the consensus off register.
        for (size_t k = 0; k < copies.size(); ++k) {
            double score = gestaltScore(estimate, copies[k]);
            weights[k] = std::pow(score, kWeightPower);
        }
        Strand next = alignedConsensus(estimate, copies, rng, weights);
        if (next == estimate)
            break;
        estimate = std::move(next);
    }

    return enforceDesignLength(std::move(estimate), copies,
                               design_len, rng);
}

} // namespace dnasim

#include "reconstruct/iterative.hh"

#include "obs/stats.hh"
#include "reconstruct/bma.hh"
#include "reconstruct/consensus.hh"

namespace dnasim
{

namespace
{

struct IterativeStats
{
    obs::Counter &clusters;
    obs::Counter &rounds;
    obs::Distribution &rounds_per_cluster;

    static IterativeStats &
    get()
    {
        auto &reg = obs::Registry::global();
        static IterativeStats is{
            reg.counter("reconstruct.iterative.clusters",
                        "clusters reconstructed by Iterative"),
            reg.counter("reconstruct.iterative.rounds",
                        "aligned-consensus refinement rounds run"),
            reg.distribution("reconstruct.iterative.rounds_per_"
                             "cluster",
                             "refinement rounds until convergence"),
        };
        return is;
    }
};

} // anonymous namespace

Iterative::Iterative(IterativeOptions options)
    : options_(options)
{}

Strand
Iterative::reconstruct(const std::vector<Strand> &copies,
                       size_t design_len, Rng &rng) const
{
    if (copies.empty())
        return Strand();

    // Seed: a forward cursor-consensus pass, anchored at the strand
    // start (this is what makes the algorithm one-directional).
    Strand estimate =
        BmaLookahead::forwardPass(copies, design_len, rng);

    IterativeStats &is = IterativeStats::get();
    is.clusters.inc();
    uint64_t rounds_run = 0;
    for (size_t round = 0; round < kMaxRounds; ++round) {
        Strand next = alignedConsensus(estimate, copies, rng);
        ++rounds_run;
        if (next == estimate)
            break;
        estimate = std::move(next);
    }
    is.rounds.add(rounds_run);
    is.rounds_per_cluster.record(rounds_run);

    if (!options_.enforce_length)
        return estimate;
    // The design length is side information every DNA-storage
    // reconstructor has; enforce it with maximum-likelihood
    // single-indel moves.
    return enforceDesignLength(std::move(estimate), copies,
                               design_len, rng);
}

} // namespace dnasim

#include "core/wetlab.hh"

#include <algorithm>

#include "base/logging.hh"
#include "core/channel_simulator.hh"
#include "core/coverage.hh"
#include "core/ids_model.hh"
#include "data/strand_factory.hh"

namespace dnasim
{

namespace
{

/// Coverage distribution (paper: mean 26.97, range 0-164).
constexpr double kCoverageDispersion = 2.2;
constexpr size_t kMaxCoverage = 164;
constexpr double kErasure = 0.0016; ///< 16 empty clusters in 10,000

/// Burst errors: fraction of copies carrying one burst, and the
/// burst-length model (min length + geometric tail).
constexpr double kBurstPerCopy = 0.012;
constexpr size_t kBurstMinLength = 5;
constexpr double kBurstContinue = 0.35;

/// Per-read and per-cluster quality dispersion: every copy's
/// error rates are scaled by exp(N(0, sigma) - sigma^2 / 2)
/// (mean 1), drawn once per cluster and once per read. Nanopore
/// read quality varies widely; a simulator calibrated on
/// aggregate statistics reproduces the *mean* rate but not this
/// dispersion — a key reason simulated data reconstructs better
/// than real data.
constexpr double kReadQualitySigma = 0.7;
constexpr double kClusterQualitySigma = 0.25;
/// Quality multipliers are clamped to this range: Nanopore
/// basecalls never get arbitrarily clean (error floor), while
/// the bad tail can be much worse than the mean.
constexpr double kQualityMin = 0.6;
constexpr double kQualityMax = 8.0;

/// End truncation: the fraction of copies missing their final
/// base(s) (incomplete synthesis and early pore exit both
/// truncate the 3' end). The number of missing bases is
/// 1 + Geometric(kEndTruncateContinue). This concentrates
/// deletions on the final strand positions across copies — the
/// paper's observation that the strand end carries about twice
/// the errors of the beginning (Fig. 3.2b).
constexpr double kEndTruncate = 0.32;
constexpr double kEndTruncateContinue = 0.40;

/// Alien reads: fraction of copies that are actually noisy
/// copies of a *different* reference — the artifact real
/// clustering algorithms leave behind (section 1.1.2: "a noisy
/// copy n' of a strand n might be clustered together with copies
/// of another strand m").
constexpr double kAlien = 0.015;

/// Truncated reads: Nanopore occasionally reports severely
/// shortened reads; the fraction and the surviving-length range.
constexpr double kTruncate = 0.02;
constexpr double kTruncateMinFrac = 0.30;
constexpr double kTruncateMaxFrac = 0.90;

} // anonymous namespace

NanoporeDatasetGenerator::NanoporeDatasetGenerator(WetlabConfig config)
    : config_(config)
{
    DNASIM_ASSERT(config_.num_clusters > 0, "no clusters requested");
    DNASIM_ASSERT(config_.strand_length > 4, "strand length too small");
    DNASIM_ASSERT(config_.total_error_rate >= 0.0 &&
                      config_.total_error_rate < 0.5,
                  "unreasonable wetlab error rate");
}

ErrorProfile
NanoporeDatasetGenerator::groundTruthProfile(size_t strand_length,
                                             double total_rate)
{
    ErrorProfile p;
    p.design_length = strand_length;

    // Decompose the aggregate rate: substitutions dominate Nanopore
    // miscalls, deletions are the next largest class (and drive the
    // Iterative algorithm's residual errors), insertions trail.
    const double sub_mass = 0.45 * total_rate;
    const double del_mass = 0.35 * total_rate;
    const double ins_mass = 0.20 * total_rate;

    p.p_sub = sub_mass;
    p.p_ins = ins_mass;
    p.p_del = del_mass;

    // Long deletions use the paper's calibrated numbers directly:
    // start probability 0.33%, lengths 2-6 in ratios
    // 84 : 13 : 1.8 : 0.2 : 0.02 (mean length ~2.17). The per-base
    // long-deletion start rate is scaled with the total rate so
    // low-error configurations stay consistent.
    p.p_long_del = 0.0033 * (total_rate / 0.059);
    p.long_del_len_weights = {84.0, 13.0, 1.8, 0.2, 0.02};
    const double mean_ld = p.meanLongDeletionLength();
    const double long_del_bases = p.p_long_del * mean_ld;
    const double single_del_mass =
        std::max(0.0, del_mass - long_del_bases);

    // Mild base-conditional structure: G/C positions err more often
    // (secondary-structure effects), A/T less.
    const std::array<double, kNumBases> base_mult = {0.90, 1.10, 1.15,
                                                     0.85};
    double mult_mean = 0.0;
    for (double m : base_mult)
        mult_mean += m;
    mult_mean /= kNumBases;
    for (size_t b = 0; b < kNumBases; ++b) {
        double m = base_mult[b] / mult_mean;
        p.p_sub_given[b] = sub_mass * m;
        p.p_ins_given[b] = ins_mass * m;
        p.p_del_given[b] = single_del_mass * m;
    }

    // Affinity-biased confusion matrix (Heckel et al.: T->C and
    // A->G are far more likely than other replacements). Rows are
    // indexed A, C, G, T and sum to 1 with zero diagonals.
    p.confusion = {{
        {0.00, 0.20, 0.55, 0.25}, // A -> mostly G
        {0.20, 0.00, 0.30, 0.50}, // C -> mostly T
        {0.50, 0.30, 0.00, 0.20}, // G -> mostly A
        {0.25, 0.55, 0.20, 0.00}, // T -> mostly C
    }};
    p.insert_base = {0.30, 0.20, 0.20, 0.30};

    // Homopolymer runs err about twice as often (section 1.2).
    p.homopolymer_mult = 2.0;

    // Terminal spatial skew (Fig. 3.2b): the first two positions and
    // the final position are elevated, the end roughly twice the
    // beginning.
    p.spatial = PositionProfile::terminalSkew(strand_length,
                                              /*head_mult=*/4.0,
                                              /*tail_mult=*/8.0,
                                              /*n_head=*/2);

    // Second-order errors with their own end-heavy spatial skews
    // (Fig. 3.6). Each rate stays below the corresponding
    // conditional rate so the residual mass is non-negative.
    auto tail_profile = [&](double tail) {
        return PositionProfile::terminalSkew(strand_length, 2.0, tail,
                                             2);
    };
    auto head_profile = [&](double head) {
        return PositionProfile::terminalSkew(strand_length, head, 2.0,
                                             2);
    };
    auto add_so = [&](EditOpType type, char base, char repl,
                      double rate, PositionProfile prof) {
        SecondOrderSpec spec;
        spec.key = {type, base, repl};
        spec.rate = rate;
        spec.spatial = std::move(prof);
        p.second_order.push_back(std::move(spec));
    };
    add_so(EditOpType::Delete, 'A', '\0',
           0.5 * p.p_del_given[baseIndex('A')], tail_profile(14.0));
    add_so(EditOpType::Delete, 'G', '\0',
           0.4 * p.p_del_given[baseIndex('G')], tail_profile(10.0));
    add_so(EditOpType::Substitute, 'T', 'C',
           0.4 * p.p_sub_given[baseIndex('T')], tail_profile(12.0));
    add_so(EditOpType::Substitute, 'A', 'G',
           0.4 * p.p_sub_given[baseIndex('A')], head_profile(9.0));
    add_so(EditOpType::Insert, 'G', '\0', 0.06 * ins_mass,
           tail_profile(11.0));
    add_so(EditOpType::Insert, 'A', '\0', 0.05 * ins_mass,
           head_profile(8.0));

    return p;
}

void
NanoporeDatasetGenerator::maybeInjectBurst(Strand &copy, Rng &rng) const
{
    if (!rng.bernoulli(kBurstPerCopy))
        return;
    if (copy.size() <= kBurstMinLength + 1)
        return;

    size_t len = kBurstMinLength;
    while (rng.bernoulli(kBurstContinue))
        ++len;
    len = std::min(len, copy.size() - 1);
    size_t pos = rng.index(copy.size() - len);

    if (rng.bernoulli(0.5)) {
        // Burst deletion.
        copy.erase(pos, len);
    } else {
        // Burst substitution with random bases.
        for (size_t i = 0; i < len; ++i)
            copy[pos + i] = kBaseChars[rng.index(kNumBases)];
    }
}

void
NanoporeDatasetGenerator::maybeEndTruncate(Strand &copy,
                                           Rng &rng) const
{
    if (!rng.bernoulli(kEndTruncate))
        return;
    size_t cut = 1;
    while (rng.bernoulli(kEndTruncateContinue))
        ++cut;
    if (cut >= copy.size())
        cut = copy.size() > 1 ? copy.size() - 1 : 0;
    copy.resize(copy.size() - cut);
}

void
NanoporeDatasetGenerator::maybeTruncate(Strand &copy, Rng &rng) const
{
    if (!rng.bernoulli(kTruncate))
        return;
    if (copy.size() < 4)
        return;
    double frac = rng.uniform(kTruncateMinFrac, kTruncateMaxFrac);
    auto keep = static_cast<size_t>(
        frac * static_cast<double>(copy.size()));
    keep = std::max<size_t>(keep, 2);
    copy.resize(keep);
}

Dataset
NanoporeDatasetGenerator::generate(Rng &rng) const
{
    StrandFactory factory;
    Rng lib_rng = rng.fork(0x11b);
    auto references = factory.makeMany(config_.num_clusters,
                                       config_.strand_length, lib_rng);
    return generateFor(references, rng);
}

Dataset
NanoporeDatasetGenerator::generateFor(
    const std::vector<Strand> &references, Rng &rng) const
{
    ErrorProfile truth = groundTruthProfile(config_.strand_length,
                                            config_.total_error_rate);
    IdsChannelModel model =
        IdsChannelModel::full(truth, "wetlab-nanopore");
    NegativeBinomialCoverage coverage(config_.mean_coverage,
                                      kCoverageDispersion, kMaxCoverage,
                                      kErasure);

    // Log-normal quality multiplier (mean 1 before clamping).
    auto quality = [](double sigma, Rng &r) {
        double m =
            std::exp(r.gaussian(0.0, sigma) - sigma * sigma / 2.0);
        return std::clamp(m, kQualityMin, kQualityMax);
    };

    Dataset dataset;
    dataset.clusters().reserve(references.size());
    for (size_t i = 0; i < references.size(); ++i) {
        Rng cluster_rng = rng.fork(i + 1);
        size_t n = coverage.sample(i, cluster_rng);
        double cluster_quality =
            quality(kClusterQualitySigma, cluster_rng);
        Cluster cluster;
        cluster.reference = references[i];
        cluster.copies.reserve(n);
        for (size_t k = 0; k < n; ++k) {
            // Alien reads: a noisy copy of some *other* reference
            // mis-clustered into this cluster.
            const Strand &source =
                (references.size() > 1 &&
                 cluster_rng.bernoulli(kAlien))
                    ? references[cluster_rng.index(references.size())]
                    : references[i];
            double scale =
                cluster_quality *
                quality(kReadQualitySigma, cluster_rng);
            Strand copy =
                model.transmitScaled(source, scale, cluster_rng);
            maybeEndTruncate(copy, cluster_rng);
            maybeInjectBurst(copy, cluster_rng);
            maybeTruncate(copy, cluster_rng);
            cluster.copies.push_back(std::move(copy));
        }
        dataset.add(std::move(cluster));
    }
    return dataset;
}

} // namespace dnasim

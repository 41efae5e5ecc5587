#include "core/stages.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <unordered_map>

#include "base/logging.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"

namespace dnasim
{

namespace
{

/** Deletion-dominated profile for synthesis errors. */
ErrorProfile
synthesisProfile(double error_rate)
{
    // Synthesis errors are ~80% deletions, with small substitution
    // and insertion components.
    return ErrorProfile::uniform(error_rate, /*design_length=*/0,
                                 /*sub_frac=*/0.15,
                                 /*ins_frac=*/0.05,
                                 /*del_frac=*/0.80);
}

/** Substitution-only profile for PCR copy errors. */
ErrorProfile
pcrProfile(double sub_rate)
{
    return ErrorProfile::uniform(sub_rate, 0, 1.0, 0.0, 0.0);
}

} // anonymous namespace

SynthesisStage::SynthesisStage(double error_rate,
                               size_t copies_per_molecule)
    : model_(IdsChannelModel::naive(synthesisProfile(error_rate))),
      copies_(copies_per_molecule)
{
    DNASIM_ASSERT(copies_ > 0, "synthesis must produce copies");
}

void
SynthesisStage::apply(std::vector<Molecule> &pool, Rng &rng) const
{
    std::vector<Molecule> out;
    out.reserve(pool.size() * copies_);
    for (const auto &mol : pool) {
        for (size_t k = 0; k < copies_; ++k) {
            out.push_back(
                Molecule{model_.transmit(mol.seq, rng), mol.origin});
        }
    }
    pool = std::move(out);
}

DecayStage::DecayStage(double years, double half_life, double p_break)
    : survival_(std::pow(0.5, years / half_life)), p_break_(p_break)
{
    DNASIM_ASSERT(years >= 0.0 && half_life > 0.0,
                  "bad decay parameters");
    DNASIM_ASSERT(p_break >= 0.0 && p_break <= 1.0,
                  "bad break probability");
}

void
DecayStage::apply(std::vector<Molecule> &pool, Rng &rng) const
{
    std::vector<Molecule> out;
    out.reserve(pool.size());
    for (auto &mol : pool) {
        if (!rng.bernoulli(survival_))
            continue;
        if (p_break_ > 0.0 && rng.bernoulli(p_break_) &&
            mol.seq.size() > 1) {
            // A single nick truncates the molecule; the longer
            // fragment is the one that remains readable.
            size_t cut = 1 + rng.index(mol.seq.size() - 1);
            if (cut >= mol.seq.size() - cut)
                mol.seq.resize(cut);
            else
                mol.seq.erase(0, cut);
        }
        out.push_back(std::move(mol));
    }
    pool = std::move(out);
}

PcrStage::PcrStage(unsigned cycles, double efficiency,
                   double bias_sigma, double sub_rate, size_t max_pool)
    : cycles_(cycles), efficiency_(efficiency),
      bias_sigma_(bias_sigma), sub_rate_(sub_rate),
      max_pool_(max_pool)
{
    DNASIM_ASSERT(efficiency > 0.0 && efficiency <= 1.0,
                  "bad PCR efficiency");
    DNASIM_ASSERT(bias_sigma >= 0.0, "negative PCR bias sigma");
    DNASIM_ASSERT(max_pool > 0, "zero PCR pool cap");
}

void
PcrStage::apply(std::vector<Molecule> &pool, Rng &rng) const
{
    IdsChannelModel copy_model =
        IdsChannelModel::naive(pcrProfile(sub_rate_));

    // Per-origin amplification bias, drawn once per run.
    std::unordered_map<uint32_t, double> bias;
    auto origin_bias = [&](uint32_t origin) {
        auto it = bias.find(origin);
        if (it != bias.end())
            return it->second;
        double b = bias_sigma_ > 0.0
                       ? std::exp(rng.gaussian(0.0, bias_sigma_))
                       : 1.0;
        bias.emplace(origin, b);
        return b;
    };

    for (unsigned cycle = 0; cycle < cycles_; ++cycle) {
        size_t current = pool.size();
        for (size_t i = 0; i < current; ++i) {
            double p = std::min(1.0, efficiency_ *
                                         origin_bias(pool[i].origin));
            if (!rng.bernoulli(p))
                continue;
            Strand copy = sub_rate_ > 0.0
                              ? copy_model.transmit(pool[i].seq, rng)
                              : pool[i].seq;
            pool.push_back(Molecule{std::move(copy), pool[i].origin});
        }
        if (pool.size() > max_pool_) {
            // Uniform subsample back to the cap; preserves relative
            // abundances in expectation.
            rng.shuffle(pool);
            pool.resize(max_pool_);
        }
    }
}

SamplingStage::SamplingStage(size_t num_reads)
    : num_reads_(num_reads)
{
    DNASIM_ASSERT(num_reads_ > 0, "zero reads sampled");
}

void
SamplingStage::apply(std::vector<Molecule> &pool, Rng &rng) const
{
    if (pool.empty())
        return;
    std::vector<Molecule> out;
    out.reserve(num_reads_);
    for (size_t i = 0; i < num_reads_; ++i)
        out.push_back(pool[rng.index(pool.size())]);
    pool = std::move(out);
}

SequencingStage::SequencingStage(ErrorProfile profile)
    : model_(IdsChannelModel::full(std::move(profile), "sequencing"))
{}

void
SequencingStage::apply(std::vector<Molecule> &pool, Rng &rng) const
{
    for (auto &mol : pool)
        mol.seq = model_.transmit(mol.seq, rng);
}

StagedChannel &
StagedChannel::add(std::unique_ptr<ChannelStage> stage)
{
    DNASIM_ASSERT(stage != nullptr, "null channel stage");
    stages_.push_back(std::move(stage));
    return *this;
}

std::vector<std::string>
StagedChannel::stageNames() const
{
    std::vector<std::string> names;
    names.reserve(stages_.size());
    for (const auto &s : stages_)
        names.push_back(s->name());
    return names;
}

Dataset
StagedChannel::run(const std::vector<Strand> &references,
                   Rng &rng) const
{
    DNASIM_ASSERT(references.size() <
                      std::numeric_limits<uint32_t>::max(),
                  "too many references");
    std::vector<Molecule> pool;
    pool.reserve(references.size());
    for (size_t i = 0; i < references.size(); ++i)
        pool.push_back(
            Molecule{references[i], static_cast<uint32_t>(i)});

    auto &reg = obs::Registry::global();
    obs::Span run_span("stages.run", "stages");
    for (const auto &stage : stages_) {
        const std::string name = stage->name();
        const std::string prefix = "stage." + name;
        obs::Span span(name.c_str(), "stages",
                       reg.timer(prefix + ".time",
                                 "wall time in the " + name + " stage"));
        stage->apply(pool, rng);
        reg.counter(prefix + ".applications",
                    "times the stage ran")
            .inc();
        uint64_t bases = 0;
        for (const auto &mol : pool)
            bases += mol.seq.size();
        reg.gauge(prefix + ".molecules_out",
                  "pool size after the stage's last run")
            .set(static_cast<int64_t>(pool.size()));
        reg.gauge(prefix + ".bases_out",
                  "pool bases after the stage's last run")
            .set(static_cast<int64_t>(bases));
    }

    Dataset dataset;
    dataset.clusters().reserve(references.size());
    for (const auto &ref : references) {
        Cluster c;
        c.reference = ref;
        dataset.add(std::move(c));
    }
    for (auto &mol : pool)
        dataset[mol.origin].copies.push_back(std::move(mol.seq));
    return dataset;
}

} // namespace dnasim

#include "core/ids_model.hh"

#include <algorithm>

#include "base/logging.hh"
#include "obs/stats.hh"

namespace dnasim
{

ChannelStats &
ChannelStats::get()
{
    auto &reg = obs::Registry::global();
    static ChannelStats cs{
        reg.counter("channel.strands",
                    "strands transmitted through the channel"),
        reg.counter("channel.bases_in",
                    "reference bases entering the channel"),
        reg.counter("channel.bases_out",
                    "noisy bases emitted by the channel"),
        reg.counter("channel.errors.sub", "substitution events injected"),
        reg.counter("channel.errors.ins", "insertion events injected"),
        reg.counter("channel.errors.del",
                    "single-base deletion events injected"),
        reg.counter("channel.errors.long_del",
                    "long-deletion runs injected"),
        reg.counter("channel.errors.second_order",
                    "events drawn from listed second-order errors"),
    };
    return cs;
}

void
ChannelStats::flush(size_t n_in, size_t n_out, const Events &events)
{
    strands.inc();
    bases_in.add(n_in);
    bases_out.add(n_out);
    if (events.sub)
        sub.add(events.sub);
    if (events.ins)
        ins.add(events.ins);
    if (events.del)
        del.add(events.del);
    if (events.long_del)
        long_del.add(events.long_del);
    if (events.second_order)
        second_order.add(events.second_order);
}

IdsChannelModel::IdsChannelModel(ErrorProfile profile,
                                 ModelFeatures features,
                                 std::string display_name)
    : profile_(std::move(profile)), features_(features),
      name_(std::move(display_name))
{
    if (name_.empty()) {
        if (features_.second_order)
            name_ = "second-order";
        else if (features_.spatial)
            name_ = "skew";
        else if (features_.conditional)
            name_ = "conditional";
        else
            name_ = "naive";
    }

    // Confusion-row samplers (only for rows with mass).
    for (size_t b = 0; b < kNumBases; ++b) {
        std::vector<double> row(profile_.confusion[b].begin(),
                                profile_.confusion[b].end());
        double sum = 0.0;
        for (double w : row)
            sum += w;
        if (sum > 0.0)
            confusion_samplers_[b] = CumulativeSampler(row);
    }

    {
        std::vector<double> w(profile_.insert_base.begin(),
                              profile_.insert_base.end());
        double sum = 0.0;
        for (double x : w)
            sum += x;
        if (sum > 0.0)
            insert_sampler_ = CumulativeSampler(w);
    }

    {
        double sum = 0.0;
        for (double x : profile_.long_del_len_weights)
            sum += x;
        if (sum > 0.0)
            long_del_sampler_ =
                CumulativeSampler(profile_.long_del_len_weights);
    }

    // Bucket second-order entries and compute residual rates.
    std::array<double, kNumBases> so_sub_mass{};
    std::array<double, kNumBases> so_del_mass{};
    double so_ins_mass = 0.0;
    for (size_t i = 0; i < profile_.second_order.size(); ++i) {
        const auto &so = profile_.second_order[i];
        size_t b = baseIndex(so.key.base);
        switch (so.key.type) {
          case EditOpType::Substitute:
            so_sub_[b].push_back(i);
            so_sub_mass[b] += so.rate;
            break;
          case EditOpType::Delete:
            so_del_[b].push_back(i);
            so_del_mass[b] += so.rate;
            break;
          case EditOpType::Insert:
            so_ins_.push_back(i);
            so_ins_mass += so.rate;
            break;
          case EditOpType::Equal:
            DNASIM_PANIC("Equal is not a second-order error type");
        }
    }
    for (size_t b = 0; b < kNumBases; ++b) {
        residual_sub_[b] =
            std::max(0.0, profile_.p_sub_given[b] - so_sub_mass[b]);
        residual_del_[b] =
            std::max(0.0, profile_.p_del_given[b] - so_del_mass[b]);
        residual_ins_[b] =
            std::max(0.0, profile_.p_ins_given[b] - so_ins_mass);
    }

    // Design-length strands read their rates from this table instead
    // of re-deriving every spatial and second-order multiplier per
    // base per copy. ratesAt fills it, so the two cannot disagree.
    const size_t len = profile_.design_length;
    if (len <= ErrorProfile::kMaxDesignLength) {
        rate_table_.resize(len);
        for (size_t i = 0; i < len; ++i) {
            for (size_t b = 0; b < kNumBases; ++b)
                rate_table_[i][b] = ratesAt(kBaseChars[b], i, len);
        }
    }
}

IdsChannelModel
IdsChannelModel::naive(const ErrorProfile &profile)
{
    return IdsChannelModel(profile, ModelFeatures{}, "naive");
}

IdsChannelModel
IdsChannelModel::conditional(const ErrorProfile &profile)
{
    ModelFeatures f;
    f.conditional = true;
    f.long_deletions = true;
    return IdsChannelModel(profile, f, "conditional");
}

IdsChannelModel
IdsChannelModel::skew(const ErrorProfile &profile)
{
    ModelFeatures f;
    f.conditional = true;
    f.long_deletions = true;
    f.spatial = true;
    return IdsChannelModel(profile, f, "skew");
}

IdsChannelModel
IdsChannelModel::secondOrder(const ErrorProfile &profile)
{
    ModelFeatures f;
    f.conditional = true;
    f.long_deletions = true;
    f.spatial = true;
    f.second_order = true;
    return IdsChannelModel(profile, f, "second-order");
}

IdsChannelModel
IdsChannelModel::contextual(const ErrorProfile &profile)
{
    ModelFeatures f;
    f.conditional = true;
    f.long_deletions = true;
    f.spatial = true;
    f.second_order = true;
    f.context = true;
    return IdsChannelModel(profile, f, "contextual");
}

IdsChannelModel
IdsChannelModel::full(const ErrorProfile &profile,
                      std::string display_name)
{
    ModelFeatures f;
    f.conditional = true;
    f.long_deletions = true;
    f.spatial = true;
    f.second_order = true;
    f.context = true;
    return IdsChannelModel(profile, f, std::move(display_name));
}

IdsChannelModel::Rates
IdsChannelModel::ratesAt(char base, size_t pos, size_t len) const
{
    const size_t b = baseIndex(base);
    Rates r;
    double agg =
        features_.spatial ? profile_.spatial.multiplier(pos, len) : 1.0;

    if (!features_.conditional) {
        r.sub = profile_.p_sub * agg;
        r.ins = profile_.p_ins * agg;
        r.del = profile_.p_del * agg;
        return r;
    }

    if (features_.long_deletions)
        r.long_del = profile_.p_long_del * agg;

    if (!features_.second_order) {
        r.sub = profile_.p_sub_given[b] * agg;
        r.ins = profile_.p_ins_given[b] * agg;
        r.del = profile_.p_del_given[b] * agg;
        return r;
    }

    r.sub = residual_sub_[b] * agg;
    for (size_t i : so_sub_[b]) {
        const auto &so = profile_.second_order[i];
        r.sub += so.rate * so.spatial.multiplier(pos, len);
    }
    r.del = residual_del_[b] * agg;
    for (size_t i : so_del_[b]) {
        const auto &so = profile_.second_order[i];
        r.del += so.rate * so.spatial.multiplier(pos, len);
    }
    r.ins = residual_ins_[b] * agg;
    for (size_t i : so_ins_) {
        const auto &so = profile_.second_order[i];
        r.ins += so.rate * so.spatial.multiplier(pos, len);
    }
    return r;
}

char
IdsChannelModel::pickSubstitution(char base, size_t pos, size_t len,
                                  Rng &rng, bool *second_order) const
{
    const size_t b = baseIndex(base);

    auto from_confusion = [&]() -> char {
        if (features_.conditional && confusion_samplers_[b].valid())
            return kBaseChars[confusion_samplers_[b].sample(rng)];
        // Uniform over the three other bases.
        size_t k = rng.index(kNumBases - 1);
        if (k >= b)
            ++k;
        return kBaseChars[k];
    };

    if (!features_.second_order || so_sub_[b].empty())
        return from_confusion();

    // Pick the component (residual vs. each listed second-order
    // error) in proportion to its contribution at this position.
    double agg =
        features_.spatial ? profile_.spatial.multiplier(pos, len) : 1.0;
    double residual = residual_sub_[b] * agg;
    double total = residual;
    for (size_t i : so_sub_[b]) {
        const auto &so = profile_.second_order[i];
        total += so.rate * so.spatial.multiplier(pos, len);
    }
    if (total <= 0.0)
        return from_confusion();
    double x = rng.uniform() * total;
    if (x < residual)
        return from_confusion();
    x -= residual;
    for (size_t i : so_sub_[b]) {
        const auto &so = profile_.second_order[i];
        double w = so.rate * so.spatial.multiplier(pos, len);
        if (x < w) {
            *second_order = true;
            return so.key.repl;
        }
        x -= w;
    }
    return from_confusion(); // floating-point slack
}

char
IdsChannelModel::pickInsertion(size_t pos, size_t len, Rng &rng,
                               bool *second_order) const
{
    auto from_distribution = [&]() -> char {
        if (features_.conditional && insert_sampler_.valid())
            return kBaseChars[insert_sampler_.sample(rng)];
        return kBaseChars[rng.index(kNumBases)];
    };

    if (!features_.second_order || so_ins_.empty())
        return from_distribution();

    double agg =
        features_.spatial ? profile_.spatial.multiplier(pos, len) : 1.0;
    // Residual insertion mass is base-independent in expectation;
    // use the mean residual across bases as the component weight.
    double residual = 0.0;
    for (size_t b = 0; b < kNumBases; ++b)
        residual += residual_ins_[b];
    residual = residual / kNumBases * agg;
    double total = residual;
    for (size_t i : so_ins_) {
        const auto &so = profile_.second_order[i];
        total += so.rate * so.spatial.multiplier(pos, len);
    }
    if (total <= 0.0)
        return from_distribution();
    double x = rng.uniform() * total;
    if (x < residual)
        return from_distribution();
    x -= residual;
    for (size_t i : so_ins_) {
        const auto &so = profile_.second_order[i];
        double w = so.rate * so.spatial.multiplier(pos, len);
        if (x < w) {
            *second_order = true;
            return so.key.base;
        }
        x -= w;
    }
    return from_distribution();
}

size_t
IdsChannelModel::drawLongDeletionLength(Rng &rng) const
{
    if (!long_del_sampler_.valid())
        return 2;
    return 2 + long_del_sampler_.sample(rng);
}

Strand
IdsChannelModel::transmit(const Strand &ref, Rng &rng) const
{
    return transmitScaled(ref, 1.0, rng);
}

Strand
IdsChannelModel::transmit(const Strand &ref, Rng &rng,
                          LineageRecorder &lineage) const
{
    return transmitScaled(ref, 1.0, rng, &lineage);
}

Strand
IdsChannelModel::transmitScaled(const Strand &ref, double rate_scale,
                                Rng &rng,
                                LineageRecorder *lineage) const
{
    DNASIM_ASSERT(rate_scale >= 0.0, "negative rate scale");
    const size_t len = ref.size();
    Strand out;
    out.reserve(len + 8);

    uint64_t n_sub = 0, n_ins = 0, n_del = 0, n_long_del = 0;
    uint64_t n_second_order = 0;
    bool second_order = false;

    // Homopolymer context: positions inside runs err more, with the
    // multipliers normalized per strand so the aggregate rate is
    // preserved. The mask lives in per-worker scratch — this runs
    // once per transmitted read, and a fresh vector here was the
    // channel's only per-read allocation besides the emitted strand.
    thread_local std::vector<bool> in_run;
    bool use_ctx = false;
    double ctx_in = 1.0, ctx_out = 1.0;
    const double hp_mult = profile_.homopolymer_mult;
    if (features_.context && hp_mult != 1.0 && len > 0) {
        use_ctx = true;
        homopolymerRunMask(ref, ErrorProfile::kHomopolymerRunLength,
                           in_run);
        size_t run_positions = 0;
        for (bool b : in_run)
            run_positions += b ? 1 : 0;
        double f = static_cast<double>(run_positions) /
                   static_cast<double>(len);
        double norm = 1.0 + f * (hp_mult - 1.0);
        ctx_in = hp_mult / norm;
        ctx_out = 1.0 / norm;
    }

    const bool tabled = len == rate_table_.size();
    size_t i = 0;
    while (i < len) {
        const char base = ref[i];
        Rates r = tabled ? rate_table_[i][baseIndex(base)]
                         : ratesAt(base, i, len);
        if (use_ctx) {
            double ctx = in_run[i] ? ctx_in : ctx_out;
            r.sub *= ctx;
            r.ins *= ctx;
            r.del *= ctx;
            r.long_del *= ctx;
        }
        // Clamp so the per-position total probability stays sane
        // even for strong quality multipliers or extreme calibrated
        // spatial peaks.
        double scale = rate_scale;
        double total = r.total();
        if (total * scale > 0.9)
            scale = 0.9 / total;
        if (scale != 1.0) {
            r.sub *= scale;
            r.ins *= scale;
            r.del *= scale;
            r.long_del *= scale;
        }

        if (r.long_del > 0.0 && rng.bernoulli(r.long_del)) {
            const size_t run = drawLongDeletionLength(rng);
            if (lineage != nullptr)
                lineage->longDeletion(i, std::min(run, len - i),
                                      base);
            i += run;
            ++n_long_del;
            continue;
        }

        double u = rng.uniform();
        if (u < r.sub) {
            const char repl =
                pickSubstitution(base, i, len, rng, &second_order);
            if (lineage != nullptr)
                lineage->substitution(i, base, repl);
            out.push_back(repl);
            ++n_sub;
        } else if (u < r.sub + r.ins) {
            out.push_back(base);
            const char extra =
                pickInsertion(i, len, rng, &second_order);
            if (lineage != nullptr)
                lineage->insertion(i + 1, extra);
            out.push_back(extra);
            ++n_ins;
        } else if (u < r.sub + r.ins + r.del) {
            // single-base deletion: emit nothing
            if (lineage != nullptr)
                lineage->deletion(i, base);
            ++n_del;
        } else {
            out.push_back(base);
        }
        if (second_order) {
            ++n_second_order;
            second_order = false;
        }
        ++i;
    }

    ChannelStats::get().flush(
        len, out.size(),
        {n_sub, n_ins, n_del, n_long_del, n_second_order});
    return out;
}

} // namespace dnasim

#include "core/dnasimulator_model.hh"

#include "base/logging.hh"
#include "core/ids_model.hh"

namespace dnasim
{

DnaSimulatorModel::DnaSimulatorModel(
    std::array<DnaSimulatorEntry, kNumBases> dictionary,
    std::string display_name)
    : dictionary_(dictionary), name_(std::move(display_name))
{
    for (const auto &e : dictionary_) {
        double total = e.p_sub + e.p_ins + e.p_del + e.p_long_del;
        DNASIM_ASSERT(total >= 0.0 && total <= 1.0,
                      "bad DNASimulator dictionary entry");
    }
}

DnaSimulatorModel
DnaSimulatorModel::fromProfile(const ErrorProfile &profile)
{
    std::array<DnaSimulatorEntry, kNumBases> dict{};
    for (size_t b = 0; b < kNumBases; ++b) {
        dict[b].p_sub = profile.p_sub_given[b];
        dict[b].p_ins = profile.p_ins_given[b];
        dict[b].p_del = profile.p_del_given[b];
        dict[b].p_long_del = profile.p_long_del;
    }
    return DnaSimulatorModel(dict, "dnasimulator");
}

Strand
DnaSimulatorModel::transmit(const Strand &ref, Rng &rng) const
{
    LineageRecorder none;
    return transmit(ref, rng, none);
}

Strand
DnaSimulatorModel::transmit(const Strand &ref, Rng &rng,
                            LineageRecorder &lineage) const
{
    // The recorder never draws from the Rng, so both overloads emit
    // identical strands for identical Rng state.
    Strand out;
    out.reserve(ref.size() + 8);
    ChannelStats::Events events;
    size_t i = 0;
    while (i < ref.size()) {
        const char base = ref[i];
        const auto &e = dictionary_[baseIndex(base)];
        double prob = rng.uniform();
        if (prob <= e.p_sub) {
            // Algorithm 1: replacement uniform over all four bases,
            // including the original — a silent substitution, which
            // the lineage records faithfully (obs == ref).
            const char repl = kBaseChars[rng.index(kNumBases)];
            lineage.substitution(i, base, repl);
            out.push_back(repl);
            ++events.sub;
        } else if (prob <= e.p_sub + e.p_ins) {
            out.push_back(base);
            const char extra = kBaseChars[rng.index(kNumBases)];
            lineage.insertion(i + 1, extra);
            out.push_back(extra);
            ++events.ins;
        } else if (prob <= e.p_sub + e.p_ins + e.p_del) {
            // single-base deletion
            lineage.deletion(i, base);
            ++events.del;
        } else if (prob <=
                   e.p_sub + e.p_ins + e.p_del + e.p_long_del) {
            // The original tool's "long-deletion" removes a short
            // run; length 2 matches the dominant observed run length.
            lineage.longDeletion(
                i, i + 1 < ref.size() ? size_t{2} : size_t{1}, base);
            ++events.long_del;
            ++i; // skip one extra base beyond the loop increment
        } else {
            out.push_back(base);
        }
        ++i;
    }
    ChannelStats::get().flush(ref.size(), out.size(), events);
    return out;
}

} // namespace dnasim

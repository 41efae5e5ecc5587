#include "reconstruct/bma.hh"

#include <algorithm>
#include <array>

#include "base/logging.hh"
#include "obs/stats.hh"
#include "reconstruct/consensus.hh"

namespace dnasim
{

namespace
{

struct BmaStats
{
    obs::Counter &clusters;
    obs::Counter &lookaheads;

    static BmaStats &
    get()
    {
        auto &reg = obs::Registry::global();
        static BmaStats bs{
            reg.counter("reconstruct.bma.clusters",
                        "clusters reconstructed by BMA"),
            reg.counter("reconstruct.bma.lookaheads",
                        "disagreements resolved by look-ahead "
                        "scoring"),
        };
        return bs;
    }
};

} // anonymous namespace

BmaLookahead::BmaLookahead(BmaOptions options)
    : options_(options)
{}

std::string
BmaLookahead::name() const
{
    return options_.two_way ? "BMA" : "BMA-oneway";
}

Strand
BmaLookahead::forwardPass(const std::vector<Strand> &copies,
                          size_t design_len, Rng &rng)
{
    const size_t k = copies.size();
    std::vector<size_t> cursor(k, 0);
    uint64_t lookaheads = 0;

    Strand estimate;
    estimate.reserve(design_len);

    // Votes at the cursor and up to kWindow characters ahead; the
    // look-ahead majorities approximate the upcoming reference
    // characters for the error-classification hypotheses.
    std::array<BaseVote, kWindow + 1> votes;
    std::array<char, kWindow + 1> m{};
    for (size_t pos = 0; pos < design_len; ++pos) {
        for (auto &v : votes)
            v.clear();
        for (size_t c = 0; c < k; ++c) {
            const Strand &copy = copies[c];
            for (size_t off = 0; off <= kWindow; ++off)
                if (cursor[c] + off < copy.size())
                    votes[off].add(copy[cursor[c] + off]);
        }
        if (votes[0].empty()) {
            // Every cursor ran off its copy; emit a neutral filler so
            // the estimate keeps the design length.
            estimate.push_back('A');
            continue;
        }
        const char maj = votes[0].winner(rng);
        estimate.push_back(maj);

        // Look-ahead majorities m[0] = maj, m[1..kWindow].
        m[0] = maj;
        for (size_t off = 1; off <= kWindow; ++off)
            m[off] = votes[off].empty() ? '\0'
                                        : votes[off].winner(rng);

        for (size_t c = 0; c < k; ++c) {
            const Strand &copy = copies[c];
            if (cursor[c] >= copy.size())
                continue;
            if (copy[cursor[c]] == maj) {
                ++cursor[c];
                continue;
            }

            // Disagreement: score the three hypotheses over the
            // look-ahead window.
            auto at = [&](size_t off) -> char {
                return cursor[c] + off < copy.size()
                           ? copy[cursor[c] + off]
                           : '\0';
            };
            auto match = [](char a, char b) {
                return a != '\0' && a == b ? 1 : 0;
            };
            ++lookaheads;
            int sub_score = 0, ins_score = 0, del_score = 0;
            for (size_t off = 1; off <= kWindow; ++off) {
                // Substitution: the copy consumed one wrong
                // character; what follows matches the upcoming
                // majorities in lockstep.
                sub_score += match(at(off), m[off]);
                // Insertion: the current character is an extra; the
                // rest is shifted one ahead of the majorities.
                ins_score += match(at(off), m[off - 1]);
                // Deletion: the copy is missing the current
                // reference character; it is one behind the
                // majorities.
                del_score += match(at(off - 1), m[off]);
            }

            if (ins_score > sub_score && ins_score >= del_score) {
                cursor[c] += 2; // skip the insertion + the match
            } else if (del_score > sub_score &&
                       del_score > ins_score) {
                // do not consume: the copy already shows the next
                // reference character
            } else {
                ++cursor[c]; // substitution
            }
        }
    }
    if (lookaheads)
        BmaStats::get().lookaheads.add(lookaheads);
    return estimate;
}

Strand
BmaLookahead::reconstruct(const std::vector<Strand> &copies,
                          size_t design_len, Rng &rng) const
{
    if (copies.empty())
        return Strand();
    BmaStats::get().clusters.inc();

    if (!options_.two_way)
        return forwardPass(copies, design_len, rng);

    // Two-way execution: forward pass for the first half, a pass
    // over the reversed copies for the second half.
    Strand forward = forwardPass(copies, design_len, rng);

    std::vector<Strand> reversed;
    reversed.reserve(copies.size());
    for (const auto &c : copies)
        reversed.push_back(reverseStrand(c));
    Strand backward = forwardPass(reversed, design_len, rng);

    const size_t front_len = (design_len + 1) / 2;
    const size_t back_len = design_len - front_len;

    Strand out = forward.substr(0, front_len);
    Strand back(backward.begin(),
                backward.begin() + static_cast<ptrdiff_t>(back_len));
    std::reverse(back.begin(), back.end());
    out += back;
    DNASIM_ASSERT(out.size() == design_len, "BMA length invariant");
    return out;
}

} // namespace dnasim

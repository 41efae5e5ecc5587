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
    // Code 4 marks the end of a copy; a column winner that does not
    // exist is kNoWinner, which no code equals.
    constexpr uint8_t kEnd = kNumBases;
    constexpr uint8_t kNoWinner = kNumBases + 1;
    // A cursor overshoots its copy by at most one (an insertion skip
    // from the last character; a cursor at or past the end never
    // moves again), so kWindow + 2 end marks keep every look-ahead
    // read of codes[cursor + off] inside the copy's slice.
    constexpr size_t kPad = kWindow + 2;

    // Every copy encoded once as 2-bit codes (baseIndex() panics on
    // non-ACGT input), back to back in one reused buffer; cursors
    // and ends are absolute indices into it.
    const size_t k = copies.size();
    thread_local std::vector<uint8_t> codes;
    thread_local std::vector<size_t> cursor, end;
    size_t total = 0;
    for (const Strand &copy : copies)
        total += copy.size() + kPad;
    codes.resize(total);
    cursor.resize(k);
    end.resize(k);
    size_t at = 0;
    for (size_t c = 0; c < k; ++c) {
        cursor[c] = at;
        for (char ch : copies[c])
            codes[at++] = static_cast<uint8_t>(baseIndex(ch));
        end[c] = at;
        for (size_t p = 0; p < kPad; ++p)
            codes[at++] = kEnd;
    }
    uint64_t lookaheads = 0;

    Strand estimate;
    estimate.reserve(design_len);

    // Integer tallies at the cursor and up to kWindow characters
    // ahead (the end-mark column is counted and ignored); the
    // look-ahead majorities approximate the upcoming reference
    // characters for the error-classification hypotheses.
    std::array<std::array<uint32_t, kNumBases + 1>, kWindow + 1> votes{};
    std::array<uint8_t, kWindow + 1> m{};
    // BaseVote::winner's rule over the integer tallies.
    auto winner = [&rng](const std::array<uint32_t, kNumBases + 1> &v) {
        return static_cast<uint8_t>(pluralityIndex(v.data(), rng));
    };
    auto empty = [](const std::array<uint32_t, kNumBases + 1> &v) {
        return (v[0] | v[1] | v[2] | v[3]) == 0;
    };
    for (size_t pos = 0; pos < design_len; ++pos) {
        for (auto &v : votes)
            v.fill(0);
        for (size_t c = 0; c < k; ++c) {
            const uint8_t *p = &codes[cursor[c]];
            for (size_t off = 0; off <= kWindow; ++off)
                ++votes[off][p[off]];
        }
        if (empty(votes[0])) {
            // Every cursor ran off its copy; emit a neutral filler so
            // the estimate keeps the design length.
            estimate.push_back('A');
            continue;
        }
        const uint8_t maj = winner(votes[0]);
        estimate.push_back(kBaseChars[maj]);

        // Look-ahead majorities m[0] = maj, m[1..kWindow].
        m[0] = maj;
        for (size_t off = 1; off <= kWindow; ++off)
            m[off] = empty(votes[off]) ? kNoWinner : winner(votes[off]);

        for (size_t c = 0; c < k; ++c) {
            if (cursor[c] >= end[c])
                continue;
            const uint8_t *p = &codes[cursor[c]];
            if (p[0] == maj) {
                ++cursor[c];
                continue;
            }

            // Disagreement: score the three hypotheses over the
            // look-ahead window. An end mark matches no majority.
            ++lookaheads;
            int sub_score = 0, ins_score = 0, del_score = 0;
            for (size_t off = 1; off <= kWindow; ++off) {
                // Substitution: the copy consumed one wrong
                // character; what follows matches the upcoming
                // majorities in lockstep.
                sub_score += p[off] == m[off];
                // Insertion: the current character is an extra; the
                // rest is shifted one ahead of the majorities.
                ins_score += p[off] == m[off - 1];
                // Deletion: the copy is missing the current
                // reference character; it is one behind the
                // majorities.
                del_score += p[off - 1] == m[off];
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

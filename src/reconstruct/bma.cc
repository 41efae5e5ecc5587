#include "reconstruct/bma.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <cstring>
#include <limits>

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

// The kernel loads a copy's four codes as one little-endian word
// (byte j is column j) and their four tally words as two (word j is
// column j).
static_assert(std::endian::native == std::endian::little,
              "the BMA kernel assumes a little-endian host");
static_assert(BmaLookahead::kWindow == 3,
              "the BMA kernel packs kWindow + 1 = 4 columns per word");

constexpr size_t kColumns = BmaLookahead::kWindow + 1;

// Code 4 marks the end of a copy; a column winner that does not
// exist is kNoWinner, which no code equals.
constexpr uint8_t kEnd = kNumBases;
constexpr uint32_t kNoWinner = kNumBases + 1;
static_assert((kEnd | kNoWinner) < 8,
              "hypotheses() needs every code XOR below 8");

// End marks before, between and after the copies. A cursor overshoots
// its copy by at most one (an insertion skip from the last
// character; a cursor at or past the end never moves again), so
// kWindow + 2 end marks keep every read at cursor + 0..kWindow inside
// the copy's slice, in either direction.
constexpr size_t kPad = BmaLookahead::kWindow + 2;

// A code's tally increment: one in the code's byte of a 32-bit
// column word; an end mark counts for nothing.
constexpr std::array<uint32_t, kNumBases + 1> kOneHot = {
    1u, 1u << 8, 1u << 16, 1u << 24, 0u};

// Copies summed into the 8-bit tally fields before they are widened
// into the 32-bit column counts.
constexpr size_t kChunk = 255;

/** A copy's live cursor and end, or a copy's [start, end). */
struct Slot
{
    uint32_t cursor;
    uint32_t end;
};

/**
 * A disagreeing copy's hypotheses, scored over offsets 1..kWindow
 * from its codes at cursor + 0..kWindow (the bytes of @p p) against
 * the column majorities (the bytes of @p m): substitution compares
 * p[off] with m[off], insertion p[off] with m[off - 1] (the current
 * code is an extra), deletion p[off - 1] with m[off] (the copy is one
 * behind). Returns the three match counts in bits 0-1, 2-3 and 4-5:
 * an index into kStep.
 */
inline uint32_t
hypotheses(uint32_t p, uint32_t m)
{
    // A byte of an XOR is zero where two codes match. Every byte is
    // below 8, so adding 0x7f sets a byte's high bit exactly when it
    // is non-zero, with no carry between bytes. Offsets 1..3 are
    // bytes 1..3.
    auto matches = [](uint32_t x) {
        return ~(x + 0x7f7f7f7fu) & 0x80808000u;
    };
    // The flags at bits 15, 23 and 31, shifted to bits b, b + 8 and
    // b + 16 (b = 0, 2, 4): one multiply by 0x10101 sums each
    // hypothesis's three into the 2-bit field at b + 16.
    const uint64_t flags = uint64_t{matches(p ^ m) >> 15} |
                           uint64_t{matches(p ^ (m << 8)) >> 13} |
                           uint64_t{matches((p << 8) ^ m) >> 11};
    return static_cast<uint32_t>((flags * 0x10101u) >> 16 & 0x3fu);
}

/**
 * A disagreeing copy's cursor move by hypotheses(): two for an
 * insertion (ins > sub and ins >= del), none for a deletion
 * (del > sub and del > ins), otherwise one for a substitution.
 */
constexpr std::array<uint8_t, 64> kStep = [] {
    std::array<uint8_t, 64> step{};
    for (uint32_t h = 0; h < step.size(); ++h) {
        const uint32_t sub = h & 3, ins = h >> 2 & 3, del = h >> 4 & 3;
        if (ins > sub && ins >= del)
            step[h] = 2;
        else if (del > sub && del > ins)
            step[h] = 0;
        else
            step[h] = 1;
    }
    return step;
}();

/**
 * The winner of the column whose counts are @p v[0..kNumBases), by
 * pluralityIndex's rule, or kNoWinner when the column is empty. With
 * one maximum its index is the first strict maximum and nothing is
 * drawn; with a shared maximum pluralityIndex itself draws among the
 * tied bases.
 */
inline uint32_t
columnWinner(const uint32_t *v, Rng &rng)
{
    const uint32_t best =
        std::max(std::max(v[0], v[1]), std::max(v[2], v[3]));
    if (best == 0)
        return kNoWinner;
    const unsigned at_best = unsigned{v[0] == best} |
                             unsigned{v[1] == best} << 1 |
                             unsigned{v[2] == best} << 2 |
                             unsigned{v[3] == best} << 3;
    if ((at_best & (at_best - 1)) != 0) [[unlikely]]
        return static_cast<uint32_t>(pluralityIndex(v, rng));
    return static_cast<uint32_t>(std::countr_zero(at_best));
}

/**
 * A cluster encoded once for the look-ahead kernel: every copy's
 * 2-bit codes back to back, with kPad end marks before, between and
 * after the copies, plus each code's one-hot tally increment.
 * Reversing both arrays lays the copies out reversed (in the opposite
 * copy order, which no result depends on: tallies are sums and each
 * copy is classified on its own), so two-way execution reuses the
 * one encoding.
 */
class CodedCluster
{
  public:
    /** Encode @p copies; baseIndex() panics on non-ACGT input. */
    void
    encode(const std::vector<Strand> &copies)
    {
        size_t total = kPad;
        for (const Strand &copy : copies)
            total += copy.size() + kPad;
        DNASIM_ASSERT(total <= std::numeric_limits<uint32_t>::max(),
                      "BMA cluster of ", total, " codes");
        codes_.assign(total, kEnd);
        onehot_.assign(total, 0);
        spans_.clear();
        size_t at = kPad;
        for (const Strand &copy : copies) {
            const size_t start = at;
            for (char ch : copy) {
                const auto code = static_cast<uint8_t>(baseIndex(ch));
                codes_[at] = code;
                onehot_[at++] = kOneHot[code];
            }
            if (at > start)
                spans_.push_back({static_cast<uint32_t>(start),
                                  static_cast<uint32_t>(at)});
            at += kPad;
        }
    }

    /** Mirror the layout: every copy now reads back to front. */
    void
    reverse()
    {
        std::reverse(codes_.begin(), codes_.end());
        std::reverse(onehot_.begin(), onehot_.end());
        const auto total = static_cast<uint32_t>(codes_.size());
        for (Slot &s : spans_)
            s = {total - s.end, total - s.cursor};
    }

    /**
     * One look-ahead pass over @p out, @p design_len 'A's; returns
     * the number of look-ahead disagreements.
     *
     * The tallies for position pos + 1 are summed in the same walk
     * over the live copies that classifies them at pos: each copy
     * adds its four one-hot codes at the moved cursor to two 64-bit
     * words (8-bit fields, columns 0-1 and 2-3), widened into the
     * 32-bit counts every kChunk copies. A copy whose cursor runs
     * off its end leaves the live list, and once none is left
     * column 0 is empty at every later position, so those stay 'A'
     * and draw nothing.
     */
    uint64_t
    pass(size_t design_len, Rng &rng, char *out)
    {
        live_.assign(spans_.begin(), spans_.end());
        const uint8_t *codes = codes_.data();
        const uint32_t *onehot = onehot_.data();
        Slot *live = live_.data();
        size_t n = live_.size();

        // counts[kNumBases * col + base] for the columns at the live
        // cursors + 0..kWindow.
        std::array<uint32_t, kColumns * kNumBases> counts{};
        auto widen = [&counts](uint64_t lo, uint64_t hi) {
            std::array<uint8_t, 16> fields;
            std::memcpy(fields.data(), &lo, sizeof(lo));
            std::memcpy(fields.data() + sizeof(lo), &hi, sizeof(hi));
            for (size_t f = 0; f < fields.size(); ++f)
                counts[f] += fields[f];
        };
        auto add = [onehot](uint32_t cursor, uint64_t &lo, uint64_t &hi) {
            uint64_t w[2];
            std::memcpy(w, onehot + cursor, sizeof(w));
            lo += w[0];
            hi += w[1];
        };

        for (size_t i = 0; i < n;) {
            uint64_t lo = 0, hi = 0;
            for (const size_t stop = std::min(n, i + kChunk); i < stop;
                 ++i)
                add(live[i].cursor, lo, hi);
            widen(lo, hi);
        }

        uint64_t lookaheads = 0;
        for (size_t pos = 0; pos < design_len; ++pos) {
            // Majorities m[0..kWindow] in bytes 0..kWindow, decided
            // in column order so tie draws keep their order.
            const uint32_t maj = columnWinner(counts.data(), rng);
            if (maj == kNoWinner)
                break;
            out[pos] = kBaseChars[maj];
            uint32_t m = maj;
            for (size_t off = 1; off < kColumns; ++off)
                m |= columnWinner(counts.data() + kNumBases * off, rng)
                     << (8 * off);
            counts.fill(0);

            // A copy that runs off adds only end marks, so a chunk
            // adds at most kChunk ones to any field.
            for (size_t i = 0; i < n;) {
                uint64_t lo = 0, hi = 0;
                for (size_t stop = std::min(n, i + kChunk); i < stop;) {
                    Slot &s = live[i];
                    uint32_t p;
                    std::memcpy(&p, codes + s.cursor, sizeof(p));
                    if (((p ^ m) & 0xffu) == 0) {
                        ++s.cursor;
                    } else {
                        s.cursor += kStep[hypotheses(p, m)];
                        ++lookaheads;
                    }
                    add(s.cursor, lo, hi);
                    if (s.cursor < s.end) {
                        ++i;
                    } else {
                        s = live[--n];
                        stop = std::min(stop, n);
                    }
                }
                widen(lo, hi);
            }
        }
        return lookaheads;
    }

  private:
    std::vector<uint8_t> codes_;
    std::vector<uint32_t> onehot_;
    std::vector<Slot> spans_; ///< [start, end) of each non-empty copy
    std::vector<Slot> live_;  ///< the pass's cursors, live copies first
};

CodedCluster &
codedCluster()
{
    thread_local CodedCluster cluster;
    return cluster;
}

void
countLookaheads(uint64_t lookaheads)
{
    if (lookaheads)
        BmaStats::get().lookaheads.add(lookaheads);
}

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
    CodedCluster &cluster = codedCluster();
    cluster.encode(copies);
    Strand estimate(design_len, 'A');
    countLookaheads(cluster.pass(design_len, rng, estimate.data()));
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

    // Two-way execution: the forward pass gives the first half, a
    // pass over the same codes reversed gives the second half.
    CodedCluster &cluster = codedCluster();
    cluster.encode(copies);
    Strand out(design_len, 'A');
    uint64_t lookaheads = cluster.pass(design_len, rng, out.data());
    cluster.reverse();
    Strand backward(design_len, 'A');
    lookaheads += cluster.pass(design_len, rng, backward.data());
    countLookaheads(lookaheads);

    const size_t front_len = (design_len + 1) / 2;
    const size_t back_len = design_len - front_len;
    std::copy(backward.rend() - static_cast<ptrdiff_t>(back_len),
              backward.rend(),
              out.begin() + static_cast<ptrdiff_t>(front_len));
    return out;
}

} // namespace dnasim

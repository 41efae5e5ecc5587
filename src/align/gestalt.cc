#include "align/gestalt.hh"

#include <algorithm>
#include <array>
#include <bit>
#include <vector>

#include "align/edit_script.hh"
#include "base/dna.hh"
#include "base/logging.hh"

namespace dnasim
{

namespace
{

/**
 * Reused buffers for the longest-match recursion, kept thread-local
 * by the entry points so a pair costs no allocation once they have
 * grown. A call reads only rows and words it wrote itself, so what
 * an earlier call left here never reaches a later answer.
 */
struct GestaltScratch
{
    /// Match masks over the current b-subrange: bit (j - b_lo) of
    /// eq[c] is set iff b[j] has base code c.
    std::array<std::vector<uint64_t>, kNumBases> eq;
    /// The doubling levels V_1, V_2, V_4, ... and two search
    /// buffers, each one row of mask words per row of the a-subrange.
    std::vector<uint64_t> levels;
    /// Dense rows for the scalar kernel (sub-problems over the cap).
    std::vector<size_t> sprev, scur;
};

/**
 * Scalar longest common substring of a[a_lo, a_hi) and b[b_lo, b_hi)
 * — the original character DP, which needs one row of scratch: the
 * kernel for sub-problems whose doubling levels would not fit in
 * kKeepScratchBytes. Earliest occurrence on ties (difflib semantics,
 * modulo its junk heuristics, which do not apply to a 4-letter
 * alphabet).
 */
MatchBlock
longestMatchScalar(std::string_view a, std::string_view b, size_t a_lo,
                   size_t a_hi, size_t b_lo, size_t b_hi,
                   GestaltScratch &scratch)
{
    MatchBlock best{a_lo, b_lo, 0};
    if (a_lo >= a_hi || b_lo >= b_hi)
        return best;

    // lengths[j]: length of the common suffix ending at (i, j).
    auto &prev = scratch.sprev;
    auto &cur = scratch.scur;
    prev.assign(b_hi - b_lo + 1, 0);
    cur.assign(b_hi - b_lo + 1, 0);
    for (size_t i = a_lo; i < a_hi; ++i) {
        const char ai = a[i];
        for (size_t j = b_lo; j < b_hi; ++j) {
            size_t jj = j - b_lo + 1;
            if (ai == b[j]) {
                cur[jj] = prev[jj - 1] + 1;
                if (cur[jj] > best.len) {
                    best.len = cur[jj];
                    best.a_pos = i + 1 - cur[jj];
                    best.b_pos = j + 1 - cur[jj];
                }
            } else {
                cur[jj] = 0;
            }
        }
        std::swap(prev, cur);
        std::fill(cur.begin(), cur.end(), 0);
    }
    return best;
}

/// Rows [lo, hi) of a level that may be non-zero: its first through
/// last non-zero row. Only these rows were written; lo >= hi is an
/// empty level.
struct LiveRows
{
    size_t lo;
    size_t hi;

    bool empty() const { return lo >= hi; }
};

constexpr LiveRows kNoRows{0, 0};

/**
 * One doubling or search step: out(r) = q(r) & (p(r - t) << t), which
 * is V_{s+t} when p holds V_s and q holds V_t. Only rows where both
 * operands are live are read and written. @p kWords is the row width
 * in words, or 0 for the runtime @p words.
 */
template <size_t kWords>
LiveRows
extendRuns(const uint64_t *q, LiveRows q_live, const uint64_t *p,
           LiveRows p_live, size_t t, size_t words, uint64_t *out)
{
    const size_t nw = kWords != 0 ? kWords : words;
    const size_t lo = std::max(q_live.lo, p_live.lo + t);
    const size_t hi = std::min(q_live.hi, p_live.hi + t);
    if (lo >= hi)
        return kNoRows;
    // Word w of the shifted row is word w - ws shifted up by bs,
    // plus the carry from the word below it. The carry is taken as
    // (x >> 1) >> (63 - bs): x >> (64 - bs) would shift by 64, which
    // is undefined, when t is word-aligned.
    const size_t ws = t / 64;
    const unsigned bs = static_cast<unsigned>(t % 64);
    const unsigned carry = 63 - bs;
    LiveRows live{hi, lo};
    for (size_t r = lo; r < hi; ++r) {
        const uint64_t *qr = q + r * nw;
        const uint64_t *pr = p + (r - t) * nw;
        uint64_t *o = out + r * nw;
        for (size_t w = 0; w < ws; ++w)
            o[w] = 0;
        o[ws] = qr[ws] & (pr[0] << bs);
        uint64_t any = o[ws];
        for (size_t w = ws + 1; w < nw; ++w) {
            o[w] = qr[w] & ((pr[w - ws] << bs) |
                            ((pr[w - ws - 1] >> 1) >> carry));
            any |= o[w];
        }
        if (any != 0) {
            live.lo = std::min(live.lo, r);
            live.hi = r + 1;
        }
    }
    return live.empty() ? kNoRows : live;
}

/**
 * Longest common substring of a[a_lo, a_hi) and the b-subrange the
 * masks in @p scratch cover, by run-length doubling.
 *
 * V_k(r) is the set of columns where a common run of length k or
 * more ends at row r. V_1(r) is eq[a[a_lo + r]], and
 * V_{s+t}(r) = V_t(r) & (V_s(r - t) << t). Levels V_1, V_2, V_4, ...
 * are built until one is empty or cannot fit in the rectangle; the
 * rest of the longest length L is then binary-searched down the
 * stored levels. Each step is one word-wide pass over the live rows,
 * O(log L) passes in all, instead of a visit to every matching cell.
 *
 * The block ends at the lowest set bit of V_L's first non-zero row.
 * That is the first cell in row-major order whose run is L long,
 * which is the one the scalar DP keeps (it replaces its best only on
 * a strictly longer run), so ties break exactly as there.
 */
template <size_t kWords>
MatchBlock
longestMatchDoubling(std::string_view a, size_t a_lo, size_t a_hi,
                     size_t b_lo, size_t width, size_t words,
                     GestaltScratch &scratch)
{
    const size_t nw = kWords != 0 ? kWords : words;
    const size_t rows = a_hi - a_lo;
    const size_t limit = std::min(rows, width); // no run is longer
    // Levels 2^0 .. 2^floor(log2 limit), then the two search buffers.
    const size_t num_levels = static_cast<size_t>(std::bit_width(limit));
    const size_t stride = rows * nw;
    if (scratch.levels.size() < (num_levels + 2) * stride)
        scratch.levels.resize((num_levels + 2) * stride);
    uint64_t *const levels = scratch.levels.data();
    auto level = [&](size_t k) { return levels + k * stride; };
    std::array<LiveRows, 64> live;

    LiveRows ones{rows, 0};
    for (size_t r = 0; r < rows; ++r) {
        const uint64_t *eq = scratch.eq[baseIndex(a[a_lo + r])].data();
        uint64_t *o = level(0) + r * nw;
        uint64_t any = 0;
        for (size_t w = 0; w < nw; ++w) {
            o[w] = eq[w];
            any |= eq[w];
        }
        if (any != 0) {
            ones.lo = std::min(ones.lo, r);
            ones.hi = r + 1;
        }
    }
    if (ones.empty())
        return {a_lo, b_lo, 0};
    live[0] = ones;

    size_t top = 0, len = 1;
    while (2 * len <= limit) {
        const LiveRows next =
            extendRuns<kWords>(level(top), live[top], level(top),
                               live[top], len, nw, level(top + 1));
        if (next.empty())
            break;
        live[++top] = next;
        len *= 2;
    }

    const uint64_t *cur = level(top);
    LiveRows cur_live = live[top];
    uint64_t *const spare[2] = {level(num_levels),
                                level(num_levels + 1)};
    size_t free_spare = 0;
    for (size_t k = top; k-- > 0;) {
        const size_t step = size_t{1} << k;
        if (len + step > limit)
            continue;
        uint64_t *out = spare[free_spare];
        const LiveRows grown = extendRuns<kWords>(
            level(k), live[k], cur, cur_live, step, nw, out);
        if (grown.empty())
            continue;
        cur = out;
        cur_live = grown;
        len += step;
        free_spare ^= 1;
    }

    const uint64_t *row = cur + cur_live.lo * nw;
    size_t w = 0;
    while (row[w] == 0)
        ++w;
    const size_t jj =
        w * 64 + static_cast<size_t>(std::countr_zero(row[w]));
    return {a_lo + cur_live.lo + 1 - len, b_lo + jj + 1 - len, len};
}

/**
 * Longest common substring of a[a_lo, a_hi) and b[b_lo, b_hi): builds
 * the per-base match masks over the b-subrange, then doubles on them
 * with the row width fixed at 1, 2 or 3 words (every sub-problem up
 * to 192 columns) or read at run time beyond that. A sub-problem
 * whose levels would exceed kKeepScratchBytes runs the one-row scalar
 * kernel instead, which returns the same block: the levels grow with
 * the product of the two lengths, and long strands would otherwise
 * pin hundreds of MiB per thread.
 */
MatchBlock
longestMatchBits(std::string_view a, std::string_view b, size_t a_lo,
                 size_t a_hi, size_t b_lo, size_t b_hi,
                 GestaltScratch &scratch)
{
    if (a_lo >= a_hi || b_lo >= b_hi)
        return {a_lo, b_lo, 0};

    const size_t rows = a_hi - a_lo;
    const size_t width = b_hi - b_lo;
    const size_t words = (width + 63) / 64;
    // longestMatchDoubling's levels plus its two search buffers.
    const size_t level_rows =
        (static_cast<size_t>(std::bit_width(std::min(rows, width))) + 2) *
        rows;
    if (level_rows * words * sizeof(uint64_t) >
        align_detail::kKeepScratchBytes)
        return longestMatchScalar(a, b, a_lo, a_hi, b_lo, b_hi, scratch);

    for (auto &mask : scratch.eq)
        mask.assign(words, 0);
    for (size_t j = b_lo; j < b_hi; ++j) {
        const size_t jj = j - b_lo;
        scratch.eq[baseIndex(b[j])][jj / 64] |= uint64_t{1} << (jj % 64);
    }

    switch (words) {
      case 1:
        return longestMatchDoubling<1>(a, a_lo, a_hi, b_lo, width, 1,
                                       scratch);
      case 2:
        return longestMatchDoubling<2>(a, a_lo, a_hi, b_lo, width, 2,
                                       scratch);
      case 3:
        return longestMatchDoubling<3>(a, a_lo, a_hi, b_lo, width, 3,
                                       scratch);
      default:
        return longestMatchDoubling<0>(a, a_lo, a_hi, b_lo, width,
                                       words, scratch);
    }
}

void
recurse(std::string_view a, std::string_view b, size_t a_lo, size_t a_hi,
        size_t b_lo, size_t b_hi, std::vector<MatchBlock> &out,
        GestaltScratch &scratch)
{
    MatchBlock m =
        longestMatchBits(a, b, a_lo, a_hi, b_lo, b_hi, scratch);
    if (m.len == 0)
        return;
    recurse(a, b, a_lo, m.a_pos, b_lo, m.b_pos, out, scratch);
    out.push_back(m);
    recurse(a, b, m.a_pos + m.len, a_hi, m.b_pos + m.len, b_hi, out,
            scratch);
}

} // anonymous namespace

MatchBlock
align_detail::longestMatch(std::string_view a, std::string_view b,
                           size_t a_lo, size_t a_hi, size_t b_lo,
                           size_t b_hi)
{
    thread_local GestaltScratch scratch;
    return longestMatchBits(a, b, a_lo, a_hi, b_lo, b_hi, scratch);
}

std::vector<MatchBlock>
matchingBlocks(std::string_view a, std::string_view b)
{
    thread_local GestaltScratch scratch;
    std::vector<MatchBlock> blocks;
    recurse(a, b, 0, a.size(), 0, b.size(), blocks, scratch);
    blocks.push_back({a.size(), b.size(), 0}); // terminating sentinel
    return blocks;
}

double
gestaltScore(std::string_view a, std::string_view b)
{
    if (a.empty() && b.empty())
        return 1.0;
    size_t matched = 0;
    for (const auto &blk : matchingBlocks(a, b))
        matched += blk.len;
    return 2.0 * static_cast<double>(matched) /
           static_cast<double>(a.size() + b.size());
}

std::vector<AlignedGap>
alignedGaps(std::string_view a, std::string_view b)
{
    std::vector<AlignedGap> gaps;
    size_t a_cur = 0, b_cur = 0;
    for (const auto &blk : matchingBlocks(a, b)) {
        size_t a_len = blk.a_pos - a_cur;
        size_t b_len = blk.b_pos - b_cur;
        if (a_len > 0 || b_len > 0) {
            AlignedGap gap;
            gap.a_pos = a_cur;
            gap.a_len = a_len;
            gap.b_pos = b_cur;
            gap.b_len = b_len;
            if (a_len > 0 && b_len > 0)
                gap.type = GapType::Substitution;
            else if (a_len > 0)
                gap.type = GapType::Deletion;
            else
                gap.type = GapType::Insertion;
            gaps.push_back(gap);
        }
        a_cur = blk.a_pos + blk.len;
        b_cur = blk.b_pos + blk.len;
    }
    return gaps;
}

std::vector<size_t>
gestaltErrorPositions(std::string_view ref, std::string_view copy)
{
    std::vector<size_t> positions;
    for (const auto &gap : alignedGaps(ref, copy)) {
        if (gap.type == GapType::Insertion) {
            size_t pos = gap.a_pos;
            if (!ref.empty())
                pos = std::min(pos, ref.size() - 1);
            positions.push_back(pos);
        } else {
            // Substitution gaps may be unequal in length; attribute
            // every affected reference position plus, if the copy
            // side is longer, the origin position once per extra
            // inserted base would overcount — the paper counts
            // sources of misalignment, so each reference position in
            // the gap counts once.
            for (size_t k = 0; k < gap.a_len; ++k)
                positions.push_back(gap.a_pos + k);
        }
    }
    return positions;
}

} // namespace dnasim

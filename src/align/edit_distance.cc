#include "align/edit_distance.hh"

#include <algorithm>
#include <array>
#include <limits>

#include "align/path_stats.hh"
#include "base/logging.hh"

namespace dnasim
{

const char *
editOpTypeName(EditOpType t)
{
    switch (t) {
      case EditOpType::Equal: return "equal";
      case EditOpType::Substitute: return "sub";
      case EditOpType::Delete: return "del";
      case EditOpType::Insert: return "ins";
    }
    return "?";
}

namespace
{

constexpr size_t kInf = std::numeric_limits<size_t>::max() / 2;

} // anonymous namespace

size_t
levenshteinBanded(std::string_view a, std::string_view b, size_t band)
{
    const size_t n = a.size(), m = b.size();
    // Degenerate and out-of-band shapes first. When either string is
    // empty the distance is known exactly; when the length gap
    // exceeds the band, the final column m lies outside every row's
    // band, so the cell the loop would return was never written —
    // report a certified overestimate instead of stale scratch.
    if (n == 0 || m == 0)
        return n + m;
    if (m > n + band || n > m + band)
        return kInf;
    // Reused scratch rows: this function runs millions of times per
    // experiment, so per-call allocation would dominate. Each row
    // pass writes every cell the next pass reads, so stale contents
    // are harmless once the first row is initialized below.
    thread_local std::vector<size_t> prev, cur;
    prev.resize(m + 1);
    cur.resize(m + 1);
    for (size_t j = 0; j <= std::min(m, band); ++j)
        prev[j] = j;
    if (band + 1 <= m)
        prev[band + 1] = kInf;
    for (size_t i = 1; i <= n; ++i) {
        size_t lo = i > band ? i - band : 1;
        size_t hi = std::min(m, i + band);
        if (lo > hi)
            return kInf;
        // Only the band neighbourhood needs resetting: the next
        // row never reads outside [lo - 1, hi + 1].
        for (size_t j = lo > 0 ? lo - 1 : 0;
             j <= std::min(m, hi + 1); ++j) {
            cur[j] = kInf;
        }
        if (lo == 1 && i <= band)
            cur[0] = i;
        for (size_t j = lo; j <= hi; ++j) {
            size_t diag =
                prev[j - 1] + (a[i - 1] == b[j - 1] ? 0 : 1);
            size_t up = prev[j] < kInf ? prev[j] + 1 : kInf;
            size_t left = cur[j - 1] < kInf ? cur[j - 1] + 1 : kInf;
            cur[j] = std::min({diag, up, left});
        }
        std::swap(prev, cur);
    }
    return prev[m];
}

namespace
{

/**
 * One Myers block step: advance a 64-row slice of the DP column by
 * one text character. @p pv / @p mv are the slice's vertical
 * positive/negative delta bit-vectors, @p eq the pattern-match
 * bit-vector for the character, @p hin the horizontal delta entering
 * the slice's top row (-1, 0 or +1). Returns the horizontal delta
 * leaving through the row selected by @p out_mask (the slice's
 * bottom row, or the pattern's final row in the last, partial
 * slice — bits above it carry junk that never propagates downward).
 */
inline int
myersAdvanceBlock(uint64_t &pv, uint64_t &mv, uint64_t eq, int hin,
                  uint64_t out_mask)
{
    const uint64_t hin_neg = hin < 0 ? 1u : 0u;
    const uint64_t xv = eq | mv;
    eq |= hin_neg;
    const uint64_t xh = (((eq & pv) + pv) ^ pv) | eq;
    uint64_t ph = mv | ~(xh | pv);
    uint64_t mh = pv & xh;

    int hout = 0;
    if (ph & out_mask)
        hout = 1;
    else if (mh & out_mask)
        hout = -1;

    ph = (ph << 1) | (hin > 0 ? 1u : 0u);
    mh = (mh << 1) | hin_neg;
    pv = mh | ~(xv | ph);
    mv = ph & xv;
    return hout;
}

/** Single-word Myers kernel for patterns of at most 64 characters. */
size_t
myersDistance64(std::string_view pat, std::string_view txt)
{
    // Pattern-match bit-vectors, kept all-zero between calls: bits
    // are set for the pattern's characters below and cleared again
    // before returning, so only O(|pat|) entries are touched.
    thread_local std::array<uint64_t, 256> peq{};

    const size_t m = pat.size();
    for (size_t i = 0; i < m; ++i)
        peq[static_cast<unsigned char>(pat[i])] |= uint64_t{1} << i;

    uint64_t pv = ~uint64_t{0};
    uint64_t mv = 0;
    size_t score = m;
    const uint64_t last = uint64_t{1} << (m - 1);
    for (char tc : txt) {
        int hout = myersAdvanceBlock(
            pv, mv, peq[static_cast<unsigned char>(tc)], 1, last);
        score = static_cast<size_t>(
            static_cast<int64_t>(score) + hout);
    }

    for (size_t i = 0; i < m; ++i)
        peq[static_cast<unsigned char>(pat[i])] = 0;
    return score;
}

/** Multi-word Myers kernel for patterns longer than 64 characters. */
size_t
myersDistanceBlocked(std::string_view pat, std::string_view txt)
{
    const size_t m = pat.size();
    const size_t blocks = (m + 63) / 64;

    // peq[c * blocks + b]: match bits of pattern slice b for
    // character c. Kept all-zero between calls (see above); resizing
    // value-initializes new entries to zero.
    thread_local std::vector<uint64_t> peq;
    if (peq.size() < 256 * blocks)
        peq.resize(256 * blocks, 0);
    for (size_t i = 0; i < m; ++i) {
        peq[static_cast<unsigned char>(pat[i]) * blocks + i / 64] |=
            uint64_t{1} << (i % 64);
    }

    thread_local std::vector<uint64_t> pv, mv;
    pv.assign(blocks, ~uint64_t{0});
    mv.assign(blocks, 0);

    size_t score = m;
    const uint64_t top = uint64_t{1} << 63;
    const uint64_t final_row = uint64_t{1} << ((m - 1) % 64);
    for (char tc : txt) {
        const uint64_t *eq =
            &peq[static_cast<unsigned char>(tc) * blocks];
        int hin = 1;
        for (size_t b = 0; b + 1 < blocks; ++b)
            hin = myersAdvanceBlock(pv[b], mv[b], eq[b], hin, top);
        int hout = myersAdvanceBlock(pv[blocks - 1], mv[blocks - 1],
                                     eq[blocks - 1], hin, final_row);
        score = static_cast<size_t>(
            static_cast<int64_t>(score) + hout);
    }

    for (size_t i = 0; i < m; ++i)
        peq[static_cast<unsigned char>(pat[i]) * blocks + i / 64] = 0;
    return score;
}

/**
 * Above this pattern length the adaptive banded scalar DP takes
 * over: channel pairs are close, so its O(n * distance) beats the
 * bit-parallel O(n * m / 64) once m / 64 exceeds typical bands.
 */
constexpr size_t kMaxBitParallelPattern = 4096;

} // anonymous namespace

size_t
levenshteinBitParallel(std::string_view a, std::string_view b)
{
    // The shorter string becomes the pattern so the column spans as
    // few words as possible (Levenshtein is symmetric).
    std::string_view pat = a.size() <= b.size() ? a : b;
    std::string_view txt = a.size() <= b.size() ? b : a;
    if (pat.empty())
        return txt.size();
    return pat.size() <= 64 ? myersDistance64(pat, txt)
                            : myersDistanceBlocked(pat, txt);
}

MyersPattern::MyersPattern(std::string_view pattern)
{
    build(pattern);
}

MyersPattern::MyersPattern(const PackedStrand &pattern)
{
    // Peq built straight from the 2-bit words: each word yields 32
    // codes without touching character data.
    m_ = pattern.size();
    blocks_ = m_ == 0 ? 0 : (m_ + 63) / 64;
    peq_.assign(kNumBases * blocks_, 0);
    const auto words = pattern.words();
    size_t i = 0;
    for (size_t w = 0; w < words.size(); ++w) {
        uint64_t word = words[w];
        const size_t stop =
            std::min(m_, (w + 1) * PackedStrand::kBasesPerWord);
        for (; i < stop; ++i, word >>= 2) {
            peq_[(word & 3u) * blocks_ + i / 64] |= uint64_t{1}
                                                    << (i % 64);
        }
    }
}

void
MyersPattern::assign(std::string_view pattern)
{
    fallback_.clear();
    build(pattern);
}

void
MyersPattern::build(std::string_view pattern)
{
    m_ = pattern.size();
    blocks_ = m_ == 0 ? 0 : (m_ + 63) / 64;
    peq_.assign(kNumBases * blocks_, 0);
    for (size_t i = 0; i < m_; ++i) {
        const uint8_t code =
            kCharToCode[static_cast<unsigned char>(pattern[i])];
        if (code == kInvalidCode) {
            // Non-ACGT pattern: remember it and serve queries
            // through the generic kernel.
            peq_.clear();
            fallback_.assign(pattern);
            return;
        }
        peq_[code * blocks_ + i / 64] |= uint64_t{1} << (i % 64);
    }
}

size_t
MyersPattern::run(std::string_view txt, size_t limit) const
{
    const size_t m = m_;
    const size_t n = txt.size();
    if (m == 0 || n == 0)
        return m + n;
    // Certified lower bound: every edit script needs at least the
    // length difference. Only useful for bounded queries; for exact
    // ones limit is saturated and the test never fires.
    const size_t diff = m > n ? m - n : n - m;
    if (diff > limit)
        return diff;

    size_t score = m;
    if (blocks_ == 1) {
        uint64_t pv = ~uint64_t{0};
        uint64_t mv = 0;
        const uint64_t last = uint64_t{1} << (m - 1);
        for (size_t t = 0; t < n; ++t) {
            const uint8_t code =
                kCharToCode[static_cast<unsigned char>(txt[t])];
            const uint64_t eq = code != kInvalidCode ? peq_[code] : 0;
            const int hout = myersAdvanceBlock(pv, mv, eq, 1, last);
            score = static_cast<size_t>(static_cast<int64_t>(score) +
                                        hout);
            // Each remaining text character lowers the score by at
            // most one; abandon once the bound is certified.
            const size_t remaining = n - t - 1;
            if (score > remaining && score - remaining > limit)
                return score - remaining;
        }
        return score;
    }

    thread_local std::vector<uint64_t> pv, mv;
    pv.assign(blocks_, ~uint64_t{0});
    mv.assign(blocks_, 0);
    thread_local std::vector<uint64_t> zeros;
    if (zeros.size() < blocks_)
        zeros.assign(blocks_, 0);

    const uint64_t top = uint64_t{1} << 63;
    const uint64_t final_row = uint64_t{1} << ((m - 1) % 64);
    for (size_t t = 0; t < n; ++t) {
        const uint8_t code =
            kCharToCode[static_cast<unsigned char>(txt[t])];
        const uint64_t *eq = code != kInvalidCode
                                 ? &peq_[code * blocks_]
                                 : zeros.data();
        int hin = 1;
        for (size_t b = 0; b + 1 < blocks_; ++b)
            hin = myersAdvanceBlock(pv[b], mv[b], eq[b], hin, top);
        const int hout =
            myersAdvanceBlock(pv[blocks_ - 1], mv[blocks_ - 1],
                              eq[blocks_ - 1], hin, final_row);
        score =
            static_cast<size_t>(static_cast<int64_t>(score) + hout);
        const size_t remaining = n - t - 1;
        if (score > remaining && score - remaining > limit)
            return score - remaining;
    }
    return score;
}

size_t
MyersPattern::distance(std::string_view text) const
{
    auto &ps = align_detail::PathStats::get();
    if (!fallback_.empty()) {
        ps.char_fallback.inc();
        return levenshtein(fallback_, text);
    }
    ps.packed_fastpath.inc();
    return run(text, std::numeric_limits<size_t>::max());
}

size_t
MyersPattern::distanceBounded(std::string_view text,
                              size_t limit) const
{
    auto &ps = align_detail::PathStats::get();
    if (!fallback_.empty()) {
        ps.char_fallback.inc();
        return levenshtein(fallback_, text);
    }
    ps.packed_fastpath.inc();
    return run(text, limit);
}

size_t
levenshtein(std::string_view a, std::string_view b)
{
    const size_t n = a.size(), m = b.size();
    if (n == 0)
        return m;
    if (m == 0)
        return n;

    if (std::min(n, m) <= kMaxBitParallelPattern)
        return levenshteinBitParallel(a, b);

    // Very long strands: DNA-storage pairs are usually close (a few
    // percent edit distance); try a narrow band first and widen
    // until the result is certified (distance <= band means the
    // optimal path fits).
    size_t diff = n > m ? n - m : m - n;
    size_t band = std::max<size_t>(8, diff + 4);
    const size_t limit = std::max(n, m);
    for (;;) {
        size_t d = levenshteinBanded(a, b, band);
        if (d <= band)
            return d;
        if (band >= limit)
            return d; // full matrix already covered
        band = std::min(limit, band * 2);
    }
}

// editOps()/editOpsInto() live in edit_script.cc: the flat DP this
// file used to host survives there as editOpsReference(), behind the
// bit-vector walk.

size_t
numErrors(const std::vector<EditOp> &ops)
{
    size_t n = 0;
    for (const auto &op : ops)
        if (op.type != EditOpType::Equal)
            ++n;
    return n;
}

Strand
applyEditOps(std::string_view ref, const std::vector<EditOp> &ops)
{
    Strand out;
    out.reserve(ref.size() + ops.size());
    size_t consumed = 0;
    for (const auto &op : ops) {
        switch (op.type) {
          case EditOpType::Equal:
          case EditOpType::Substitute:
            DNASIM_ASSERT(op.ref_pos == consumed && consumed < ref.size(),
                          "edit script out of order");
            out.push_back(op.copy_base);
            ++consumed;
            break;
          case EditOpType::Delete:
            DNASIM_ASSERT(op.ref_pos == consumed && consumed < ref.size(),
                          "edit script out of order");
            ++consumed;
            break;
          case EditOpType::Insert:
            DNASIM_ASSERT(op.ref_pos == consumed,
                          "edit script out of order");
            out.push_back(op.copy_base);
            break;
        }
    }
    DNASIM_ASSERT(consumed == ref.size(),
                  "edit script did not consume full reference");
    return out;
}

std::vector<DeletionRun>
deletionRuns(const std::vector<EditOp> &ops)
{
    std::vector<DeletionRun> runs;
    for (size_t k = 0; k < ops.size(); ++k) {
        if (ops[k].type != EditOpType::Delete)
            continue;
        DeletionRun run{ops[k].ref_pos, 1};
        while (k + 1 < ops.size() &&
               ops[k + 1].type == EditOpType::Delete) {
            ++k;
            ++run.length;
        }
        runs.push_back(run);
    }
    return runs;
}

} // namespace dnasim

#include "align/edit_distance.hh"

#include <limits>

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

} // anonymous namespace

MyersPattern::MyersPattern(std::string_view pattern)
{
    assign(pattern);
}

void
MyersPattern::assign(std::string_view pattern)
{
    m_ = pattern.size();
    blocks_ = m_ == 0 ? 0 : (m_ + 63) / 64;
    peq_.assign(kNumBases * blocks_, 0);
    for (size_t i = 0; i < m_; ++i)
        peq_[baseIndex(pattern[i]) * blocks_ + i / 64] |=
            uint64_t{1} << (i % 64);
}

size_t
MyersPattern::distanceBounded(std::string_view txt, size_t limit) const
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

    // Each remaining text character lowers the score by at most one,
    // so after text position t the final distance is at least
    // score - (n - t - 1); the column is abandoned once that exceeds
    // limit. The bound is tracked as score + t + 1 against n + limit
    // (saturated), one compare per step.
    const size_t bound =
        limit > std::numeric_limits<size_t>::max() - n
            ? std::numeric_limits<size_t>::max()
            : n + limit;
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
            if (score + t + 1 > bound)
                return score + t + 1 - n;
        }
        return score;
    }

    // Locals, not members: the column stores below are uint64_t,
    // which may alias a size_t member and force a reload per block.
    const size_t blocks = blocks_;
    const uint64_t *const peq = peq_.data();
    thread_local std::vector<uint64_t> pv_store, mv_store;
    pv_store.assign(blocks, ~uint64_t{0});
    mv_store.assign(blocks, 0);
    uint64_t *const pv = pv_store.data();
    uint64_t *const mv = mv_store.data();
    thread_local std::vector<uint64_t> zeros;
    if (zeros.size() < blocks)
        zeros.assign(blocks, 0);

    const uint64_t top = uint64_t{1} << 63;
    const uint64_t final_row = uint64_t{1} << ((m - 1) % 64);
    for (size_t t = 0; t < n; ++t) {
        const uint8_t code =
            kCharToCode[static_cast<unsigned char>(txt[t])];
        const uint64_t *eq =
            code != kInvalidCode ? peq + code * blocks : zeros.data();
        int hin = 1;
        for (size_t b = 0; b + 1 < blocks; ++b)
            hin = myersAdvanceBlock(pv[b], mv[b], eq[b], hin, top);
        const int hout =
            myersAdvanceBlock(pv[blocks - 1], mv[blocks - 1],
                              eq[blocks - 1], hin, final_row);
        score =
            static_cast<size_t>(static_cast<int64_t>(score) + hout);
        if (score + t + 1 > bound)
            return score + t + 1 - n;
    }
    return score;
}

size_t
levenshtein(std::string_view a, std::string_view b)
{
    // Levenshtein is symmetric: the shorter string becomes the
    // pattern, so the column spans as few words as possible.
    thread_local MyersPattern pattern;
    const bool a_shorter = a.size() <= b.size();
    pattern.assign(a_shorter ? a : b);
    return pattern.distance(a_shorter ? b : a);
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

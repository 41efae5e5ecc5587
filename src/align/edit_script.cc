#include "align/edit_script.hh"

#include <algorithm>

#include "align/pattern_access.hh"
#include "base/dna.hh"
#include "base/logging.hh"

namespace dnasim
{

namespace align_detail
{

EditOpsStats &
EditOpsStats::get()
{
    auto &reg = obs::Registry::global();
    static EditOpsStats st{
        reg.counter("align.editops.bitvec",
                    "edit scripts served by the bit-vector walk"),
        reg.counter("align.editops.cells",
                    "edit-script work units: 64-row delta words of "
                    "the bit-vector walk"),
        reg.counter("align.editops.shrinks",
                    "oversized edit-script scratch buffers released "
                    "back to the allocator"),
    };
    return st;
}

namespace
{

/** Release @p buf if this call grew it past the scratch cap. */
template <typename T>
void
shrinkOversized(std::vector<T> &buf, size_t used_elems)
{
    if (used_elems * sizeof(T) > kKeepScratchBytes) {
        buf.clear();
        buf.shrink_to_fit();
        EditOpsStats::get().shrinks.inc();
    }
}

} // anonymous namespace

void
editOpsReference(std::string_view ref, std::string_view copy,
                 Rng *rng, std::vector<EditOp> &out)
{
    const size_t n = ref.size(), m = copy.size();
    const size_t stride = m + 1;
    const size_t cells = (n + 1) * stride;

    // dist[i * stride + j]: edit distance between ref[:i] and
    // copy[:j]. One flat reused buffer — a row-of-rows layout would
    // allocate n + 2 vectors per call.
    thread_local std::vector<uint32_t> dist;
    dist.resize(cells);
    for (size_t i = 0; i <= n; ++i)
        dist[i * stride] = static_cast<uint32_t>(i);
    for (size_t j = 0; j <= m; ++j)
        dist[j] = static_cast<uint32_t>(j);
    for (size_t i = 1; i <= n; ++i) {
        const uint32_t *prev = &dist[(i - 1) * stride];
        uint32_t *cur = &dist[i * stride];
        const char rc = ref[i - 1];
        for (size_t j = 1; j <= m; ++j) {
            uint32_t diag = prev[j - 1] + (rc == copy[j - 1] ? 0 : 1);
            cur[j] = std::min({diag, prev[j] + 1, cur[j - 1] + 1});
        }
    }

    // Backtrace from (n, m), choosing among minimum-cost predecessors
    // either at random (Appendix B's ChooseRandomAndInsertOp) or with
    // a fixed diagonal > delete > insert preference.
    out.clear();
    out.reserve(n + m);
    size_t i = n, j = m;
    while (i > 0 || j > 0) {
        // Candidate moves encoded as 0 = diagonal, 1 = delete (up),
        // 2 = insert (left).
        uint8_t candidates[3];
        size_t num = 0;
        const uint32_t here = dist[i * stride + j];
        if (i > 0 && j > 0) {
            uint32_t cost = ref[i - 1] == copy[j - 1] ? 0 : 1;
            if (here == dist[(i - 1) * stride + j - 1] + cost)
                candidates[num++] = 0;
        }
        if (i > 0 && here == dist[(i - 1) * stride + j] + 1)
            candidates[num++] = 1;
        if (j > 0 && here == dist[i * stride + j - 1] + 1)
            candidates[num++] = 2;
        DNASIM_ASSERT(num > 0, "edit backtrace stuck at (", i, ",", j,
                      ")");

        uint8_t move = candidates[0];
        if (rng && num > 1)
            move = candidates[rng->index(num)];

        switch (move) {
          case 0:
            --i;
            --j;
            out.push_back({ref[i] == copy[j] ? EditOpType::Equal
                                             : EditOpType::Substitute,
                           i, ref[i], copy[j]});
            break;
          case 1:
            --i;
            out.push_back({EditOpType::Delete, i, ref[i], '\0'});
            break;
          default:
            --j;
            out.push_back({EditOpType::Insert, i, '\0', copy[j]});
            break;
        }
    }
    std::reverse(out.begin(), out.end());

    shrinkOversized(dist, cells);
}

namespace
{

/// The walk's stored delta words, one trace at a time per thread.
thread_local std::vector<uint64_t> t_deltas;

} // anonymous namespace

EditTrace
editTrace(const MyersPattern &pattern, std::string_view ref,
          std::string_view copy)
{
    const size_t n = ref.size(), m = copy.size();
    DNASIM_ASSERT(pattern.size() == n, "pattern/ref length mismatch");
    DNASIM_ASSERT(n > 0 && m > 0, "empty strands are trivial scripts");
    auto &st = EditOpsStats::get();
    st.bitvec.inc();

    const size_t blocks = PatternAccess::blocks(pattern);
    const auto peq = PatternAccess::peq(pattern);

    // Stored delta words, one group of four bit-vectors per copy
    // position j: HP/HN are the horizontal deltas D[i][j] - D[i][j-1]
    // of rows 1..n (pre-shift, Hyyro's backtrace form), VP/VN the
    // vertical deltas D[i][j] - D[i-1][j] after the column update.
    // Column j = 0 is the left border, where every vertical delta is
    // +1; it seeds column 1, so each column steps from the stored
    // vertical words of the one before.
    const size_t stride = 4 * blocks;
    t_deltas.resize(stride * (m + 1));
    st.cells.add(blocks * m);
    std::fill_n(t_deltas.begin(), 2 * blocks, 0);
    std::fill_n(t_deltas.begin() + 2 * blocks, blocks, ~uint64_t{0});
    std::fill_n(t_deltas.begin() + 3 * blocks, blocks, 0);

    for (size_t j = 1; j <= m; ++j) {
        const uint8_t code =
            kCharToCode[static_cast<unsigned char>(copy[j - 1])];
        const uint64_t *eq_row =
            code != kInvalidCode ? &peq[code * blocks] : nullptr;
        const uint64_t *pv = &t_deltas[(j - 1) * stride + 2 * blocks];
        const uint64_t *mv = pv + blocks;
        uint64_t *hp = &t_deltas[j * stride];
        uint64_t *hn = hp + blocks;
        uint64_t *vp = hp + 2 * blocks;
        uint64_t *vn = hp + 3 * blocks;
        // Horizontal carry into the block, as +1 / -1 bits; the top
        // border is D[0][j] - D[0][j-1] = +1. A delta is never both.
        uint64_t hin_pos = 1, hin_neg = 0;
        for (size_t b = 0; b < blocks; ++b) {
            // One Myers block step (cf. myersAdvanceBlock in
            // edit_distance.cc), keeping the pre-shift horizontal
            // words instead of only the carry bit.
            const uint64_t pvb = pv[b], mvb = mv[b];
            uint64_t eq = eq_row != nullptr ? eq_row[b] : 0;
            const uint64_t xv = eq | mvb;
            eq |= hin_neg;
            const uint64_t xh = (((eq & pvb) + pvb) ^ pvb) | eq;
            uint64_t ph = mvb | ~(xh | pvb);
            uint64_t mh = pvb & xh;
            hp[b] = ph;
            hn[b] = mh;
            const uint64_t hout_pos = ph >> 63, hout_neg = mh >> 63;
            ph = (ph << 1) | hin_pos;
            mh = (mh << 1) | hin_neg;
            vp[b] = mh | ~(xv | ph);
            vn[b] = ph & xv;
            hin_pos = hout_pos;
            hin_neg = hout_neg;
        }
    }
    return {t_deltas.data(), blocks};
}

void
releaseOversizedTrace()
{
    shrinkOversized(t_deltas, t_deltas.size());
}

} // namespace align_detail

void
editOpsInto(std::string_view ref, std::string_view copy, Rng *rng,
            std::vector<EditOp> &out)
{
    thread_local MyersPattern local;
    local.assign(ref);
    editOpsInto(local, ref, copy, rng, out);
}

void
editOpsInto(const MyersPattern &pattern, std::string_view ref,
            std::string_view copy, Rng *rng, std::vector<EditOp> &out)
{
    DNASIM_ASSERT(pattern.size() == ref.size(),
                  "pattern/ref length mismatch");
    out.clear();
    out.reserve(ref.size() + copy.size());
    editOpsWalk(pattern, ref, copy, rng,
                [&](EditOpType type, size_t i, size_t j) {
                    out.push_back(
                        {type, i,
                         type == EditOpType::Insert ? '\0' : ref[i],
                         type == EditOpType::Delete ? '\0' : copy[j]});
                });
    std::reverse(out.begin(), out.end());
}

std::vector<EditOp>
editOps(std::string_view ref, std::string_view copy, Rng *rng)
{
    std::vector<EditOp> out;
    editOpsInto(ref, copy, rng, out);
    return out;
}

} // namespace dnasim

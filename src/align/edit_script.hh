/**
 * @file
 * The two-tier edit-script alignment engine behind editOpsInto().
 *
 * Recovering the Appendix-B edit script is the inner loop of both
 * consensus reconstruction (one backtrace per copy per refinement
 * round per cluster) and data-driven profile calibration (one per
 * (reference, copy) pair). The flat O(n*m) scalar DP it shipped with
 * is replaced by two exact-equivalent tiers:
 *
 * - **Tier A (bit-vector, deterministic).** When no Rng is supplied
 *   the backtrace preference is fixed (diagonal > delete > insert),
 *   so no DP cell values are needed — only, at each cell, which
 *   moves are minimum-cost. Those are recovered from the Myers
 *   bit-vector horizontal/vertical delta words (HP/HN/VP/VN), which
 *   the forward pass stores per text position: O(n * ceil(m_ref/64))
 *   words instead of O(n*m) uint32 cells, Hyyro-style. The pattern's
 *   Peq tables come from a MyersPattern, so one estimate's tables
 *   amortize across every copy in a cluster. The backtrace is one
 *   walk, editOpsWalk() (align/edit_distance.hh), which hands each
 *   op to a visitor from the end of the strings: consensus voting
 *   folds the ops straight into its vote arrays, and editOpsInto()
 *   pushes them into its vector and reverses it.
 *
 * - **Tier B (banded, random tie-break).** With an Rng, Appendix B
 *   draws uniformly among the minimum-cost predecessors at each
 *   backtrace step, so the full candidate sets must be reproduced
 *   bit-for-bit. A Ukkonen band of half-width d (the exact distance,
 *   precomputed by the Myers kernel) suffices: every cell of every
 *   minimum-cost path satisfies |i - j| <= d, and at such cells the
 *   banded values that decide candidate membership are provably
 *   exact (see DESIGN.md "Edit-script engine"), so the candidate
 *   sets — and therefore the tie-break distribution and the
 *   byte-exact script given the same Rng stream — are identical to
 *   the full matrix, at O((2d+1) * n) cost.
 *
 * The original flat DP survives as the reference implementation: the
 * equivalence suite (tests/test_editscript.cc) pins both tiers to it
 * on synthetic pairs and on whole calibrate / reconstruct workloads,
 * and dispatch falls back to it for non-ACGT references and for pairs
 * whose band would be as wide as a full row.
 */

#ifndef DNASIM_ALIGN_EDIT_SCRIPT_HH
#define DNASIM_ALIGN_EDIT_SCRIPT_HH

#include <cstdint>
#include <string_view>
#include <vector>

#include "align/edit_distance.hh"
#include "base/rng.hh"
#include "obs/stats.hh"

namespace dnasim
{

namespace align_detail
{

/** Observability for the edit-script engine (dnasim.stats.v1). */
struct EditOpsStats
{
    obs::Counter &bitvec;       ///< scripts served by Tier A
    obs::Counter &banded;       ///< scripts served by Tier B
    obs::Counter &band_retries; ///< band-escape refills (defensive)
    obs::Counter &fallback;     ///< scripts served by the flat DP
    obs::Counter &cells;        ///< cell-equivalents computed
    obs::Counter &shrinks;      ///< oversized scratch releases

    static EditOpsStats &get();
};

/**
 * The original flat-matrix DP + backtrace — the reference
 * implementation both tiers are pinned to, and the dispatch fallback
 * for non-ACGT references and full-width bands. Exposed for the
 * equivalence tests.
 */
void editOpsReference(std::string_view ref, std::string_view copy,
                      Rng *rng, std::vector<EditOp> &out);

/**
 * Tier B: banded edit script with random tie-breaking at the given
 * band half-width. Returns false — leaving @p out unspecified and
 * @p rng UNCONSUMED — when the banded distance escapes the band
 * (band < true distance), in which case the caller must widen and
 * retry. On success the script and the Rng draws are identical to
 * editOpsReference() with the same Rng stream.
 */
bool editOpsBandedWithBand(std::string_view ref,
                           std::string_view copy, size_t band,
                           Rng &rng, std::vector<EditOp> &out);

} // namespace align_detail

} // namespace dnasim

#endif // DNASIM_ALIGN_EDIT_SCRIPT_HH

/**
 * @file
 * The edit-script alignment engine behind editOpsInto().
 *
 * Recovering the Appendix-B edit script is the inner loop of both
 * consensus reconstruction (one backtrace per copy per refinement
 * round per cluster) and data-driven profile calibration (one per
 * (reference, copy) pair). The flat O(n*m) scalar DP it shipped with
 * is replaced by one exact-equivalent walk over a bit-vector trace:
 *
 * - **The trace.** The Myers forward pass stores, per text position,
 *   the horizontal/vertical delta words (HP/HN/VP/VN) of the whole
 *   DP column: O(n * ceil(m_ref/64)) words instead of O(n*m) uint32
 *   cells, Hyyro-style. The pattern's Peq tables come from a
 *   MyersPattern, so one reference's or estimate's tables amortize
 *   across every copy in a cluster.
 *
 * - **The walk.** editOpsWalk() (align/edit_distance.hh) reads each
 *   backtrace move off those deltas and hands each op to a visitor
 *   from the end of the strings. The deltas are the full matrix's
 *   exact differences, so the walk's test of whether a move is
 *   minimum-cost is the reference DP's own test. With a null Rng it
 *   takes the first such move in the fixed diagonal > delete >
 *   insert preference; with an Rng it collects all of them in that
 *   order and draws among them as Appendix B does, so scripts and
 *   Rng consumption match the full matrix draw for draw. Consensus
 *   voting folds the ops straight into its vote arrays, and
 *   editOpsInto() pushes them into its vector and reverses it.
 *
 * References are ACGT (align/edit_distance.hh): a MyersPattern over
 * any other character panics, so every non-empty pair takes the walk.
 * The original flat DP survives only as the test reference: the
 * equivalence suite (tests/test_editscript.cc) pins the walk to it
 * on synthetic pairs and on whole calibrate / reconstruct workloads.
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
    obs::Counter &bitvec;  ///< scripts served by the bit-vector walk
    obs::Counter &cells;   ///< delta words computed
    obs::Counter &shrinks; ///< oversized scratch releases

    static EditOpsStats &get();
};

/**
 * Per-thread scratch cap: one unusually long pair must not pin large
 * buffers in every worker thread for the rest of the process. The
 * edit-script trace is released after a call that grew it past this,
 * and a gestalt sub-problem whose doubling levels would exceed it
 * runs the one-row scalar kernel instead (align/gestalt.cc).
 */
inline constexpr size_t kKeepScratchBytes = size_t{1} << 24;

/**
 * The original flat-matrix DP + backtrace — the reference
 * implementation the walk is pinned to. Any bytes; exposed for the
 * equivalence tests.
 */
void editOpsReference(std::string_view ref, std::string_view copy,
                      Rng *rng, std::vector<EditOp> &out);

} // namespace align_detail

} // namespace dnasim

#endif // DNASIM_ALIGN_EDIT_SCRIPT_HH

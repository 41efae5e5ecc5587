/**
 * @file
 * Batched one-pattern-vs-N-texts Myers edit-distance kernels.
 *
 * The scalar MyersPattern answers one text per call: the DP column
 * lives in 64-bit machine words and advances one text character at a
 * time. Profiling after PR 5 shows that call — candidate
 * verification in clusterReads, consensus scoring in the reconstruct
 * refinement loop — is the dominant cost of clustering and
 * reconstruction. Both sites share one shape: a single pattern
 * probed against many texts.
 *
 * The batch kernel exploits that shape by carrying one *text* per
 * SIMD lane: the pattern's Peq match tables are shared across lanes
 * (structure-of-arrays, plus an all-zero pad row so non-ACGT and
 * past-the-end positions gather a zero match mask), the texts are
 * transposed into a lane-major code matrix (base/packed.hh
 * packLaneMajorCodes), and each step advances every lane's column by
 * its own next character. AVX2 runs 4 x 64-bit lanes, AVX-512 runs
 * 8; the portable tier serves each text through the scalar kernel.
 * Tier selection is a runtime decision (align/simd_dispatch.hh).
 *
 * Contract: for every tier and every input,
 *   out[i] == pattern.distanceBounded(texts[i], limit)
 * exactly — including the early-abandon return values, which are
 * re-derived per lane at the same step the scalar kernel would
 * abandon. Batch-vs-scalar is therefore bit-equal, not merely
 * decision-equal, so swapping tiers (or enabling batching at a call
 * site) can never change simulation output. The pattern is ACGT (a
 * MyersPattern cannot hold anything else); a text character outside
 * ACGT gathers the pad row, as the scalar kernel gives it a zero
 * match mask.
 *
 * Observability: align.simd.batches / align.simd.lanes_filled /
 * align.simd.scalar_tail count vector invocations, live lanes and
 * scalar-served texts; align.batch.allocs counts scratch (re)growth
 * — zero in steady state, asserted by tests (the lane-major buffers
 * and SoA state are thread_local, per the PR-4 allocation
 * discipline).
 */

#ifndef DNASIM_ALIGN_MYERS_BATCH_HH
#define DNASIM_ALIGN_MYERS_BATCH_HH

#include <cstddef>
#include <span>
#include <string_view>

#include "align/edit_distance.hh"

namespace dnasim
{

/**
 * Thresholded batch query: out[i] equals
 * pattern.distanceBounded(texts[i], limit) for every i, bit-exactly,
 * on every SIMD tier. @p out must be at least texts.size() long.
 */
void myersBatchDistanceBounded(const MyersPattern &pattern,
                               std::span<const std::string_view> texts,
                               size_t limit, std::span<size_t> out);

/**
 * Sum of exact distances between the pattern and every text —
 * equal to summing pattern.distance(texts[i]). The consensus
 * scoring shape (one working estimate vs a cluster's copies).
 */
size_t myersBatchTotalDistance(const MyersPattern &pattern,
                               std::span<const std::string_view> texts);

} // namespace dnasim

#endif // DNASIM_ALIGN_MYERS_BATCH_HH

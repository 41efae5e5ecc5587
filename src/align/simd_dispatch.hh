/**
 * @file
 * Runtime CPU-feature dispatch for the vectorized alignment kernels.
 *
 * The batch Myers kernel (align/myers_batch.hh) has three
 * implementations: a portable scalar-word loop, an AVX2 variant with
 * 4 x 64-bit lanes, and an AVX-512 variant with 8 lanes. Which one
 * runs is a *runtime* decision: the library is compiled once with
 * portable flags, the wide kernels live in translation units built
 * with per-file -mavx2 / -mavx512* options, and the dispatcher
 * probes the CPU (cpuid, once) to pick the widest tier the machine
 * supports.
 *
 * The selection can be narrowed for testing and reproducible
 * benchmarking with the DNASIM_SIMD environment variable or the
 * --simd CLI flag ("auto", "scalar", "avx2", "avx512"); requesting a
 * tier the CPU lacks warns once and falls back to the widest
 * supported one. The resolved tier is logged once through the
 * standard log sink and exported as the align.simd.tier gauge
 * (0 = scalar, 1 = avx2, 2 = avx512) in dnasim.stats.v1, so every
 * stats snapshot and bench report records which code path ran.
 *
 * Every tier is required to return bit-identical results (see the
 * lane-determinism argument in DESIGN.md), so the dispatch choice
 * can never change simulation output — only throughput.
 */

#ifndef DNASIM_ALIGN_SIMD_DISPATCH_HH
#define DNASIM_ALIGN_SIMD_DISPATCH_HH

#include <optional>
#include <string_view>

namespace dnasim
{

/** Available batch-kernel implementations, widest last. */
enum class SimdTier : int
{
    Scalar = 0, ///< portable scalar-word loop (any CPU)
    Avx2 = 1,   ///< 4 x 64-bit lanes (x86-64 with AVX2)
    Avx512 = 2, ///< 8 x 64-bit lanes (x86-64 with AVX-512 F+BW+DQ)
};

/** Canonical spelling of @p tier ("scalar" / "avx2" / "avx512"). */
const char *simdTierName(SimdTier tier);

/** "scalar"/"avx2"/"avx512" -> the tier; nullopt for anything else
 *  (including "auto" — auto is the *absence* of an override). */
std::optional<SimdTier> parseSimdTier(std::string_view name);

/**
 * Widest tier this CPU supports, probed once via cpuid. Scalar on
 * non-x86-64 builds.
 */
SimdTier detectedSimdTier();

/**
 * The tier the batch kernels use right now: the override (CLI flag /
 * setSimdTierOverride) if set, else the DNASIM_SIMD environment
 * variable, else the detected tier — always clamped to
 * detectedSimdTier() with a one-time warning when the request
 * exceeds the hardware. The first resolution logs the selection via
 * inform() and publishes the align.simd.tier gauge.
 */
SimdTier activeSimdTier();

/**
 * Force a tier (tests, --simd flag); nullopt restores auto
 * selection. Takes effect on the next activeSimdTier() call — the
 * batch kernels consult the dispatcher per call, so flipping tiers
 * between calls is safe. Requests above the detected tier clamp.
 */
void setSimdTierOverride(std::optional<SimdTier> tier);

/**
 * Parse + apply a CLI/env override string ("auto" clears it).
 * Returns false (and changes nothing) for an unknown name.
 */
bool applySimdOverride(std::string_view name);

} // namespace dnasim

#endif // DNASIM_ALIGN_SIMD_DISPATCH_HH

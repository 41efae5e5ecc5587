/**
 * @file
 * 2-bit packed DNA words.
 *
 * A packed strand stores bases over {A, C, G, T} at 2 bits each, 32
 * bases per 64-bit word, least-significant pair first. The bit codes
 * are the Base enum indices (A=0, C=1, G=2, T=3), so a packed word is
 * directly usable as a vector of probability-table indices. Unused
 * tail bits of the last word are always zero.
 *
 * The packed layout is a storage and kernel substrate, not a
 * replacement for the public Strand API: pipelines exchange
 * std::string strands. The .dnapool arena (base/strand_pool.hh)
 * stores reads in these words, packWordsInto() is its ACGT check,
 * and the sketch index walks them k-mer by k-mer.
 */

#ifndef DNASIM_BASE_PACKED_HH
#define DNASIM_BASE_PACKED_HH

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "base/dna.hh"

namespace dnasim
{

/** Bases stored per 64-bit word. */
inline constexpr size_t kBasesPerWord = 32;

/** Words needed for @p len bases. */
constexpr size_t
numWords(size_t len)
{
    return (len + kBasesPerWord - 1) / kBasesPerWord;
}

/**
 * Pack @p s into @p out (resized to numWords(|s|), tail bits
 * zeroed). Returns false — leaving @p out unspecified — if a
 * non-ACGT character is encountered. The .dnapool builder packs
 * each read with it and skips those it rejects.
 */
bool packWordsInto(std::string_view s, std::vector<uint64_t> &out);

/**
 * Unpack @p len bases of packed @p words into @p out (resized;
 * storage reused). The inverse of packWordsInto(); also the unpack
 * path for strands read straight out of an mmap-backed pool arena
 * (base/strand_pool.hh). @p words must hold numWords(@p len) words.
 */
void unpackWords(std::span<const uint64_t> words, size_t len,
                 Strand &out);

/**
 * Pad/invalid code in lane-major batch code matrices. The batch
 * alignment kernels (align/myers_batch.hh) index a five-row Peq
 * table whose fifth row is all-zero, so this code makes ragged
 * tails and non-ACGT characters gather a zero match mask — exactly
 * the scalar kernel's treatment of an invalid text character.
 */
inline constexpr uint8_t kLaneMajorPadCode = 4;

/**
 * Transpose up to @p lanes texts into a lane-major code matrix for
 * the batch alignment kernels: for t in [0, max_t), out[t * lanes
 * + l] is the 2-bit base code of texts[l][t], or kLaneMajorPadCode
 * for non-ACGT characters, for t >= texts[l].size() (ragged tails)
 * and for lanes beyond texts.size(). Characters past @p max_t are
 * ignored (the kernel never steps that far). @p out is resized to
 * max_t * lanes; storage is reused, so a steady-state caller
 * allocates nothing.
 */
void packLaneMajorCodes(std::span<const std::string_view> texts,
                        size_t lanes, size_t max_t,
                        std::vector<uint8_t> &out);

/**
 * Invoke @p fn(code) for every k-mer of a packed strand, in position
 * order. The code of the k-mer starting at base i packs bases
 * i..i+k-1 at 2 bits each with the first base in the least
 * significant pair — the same layout as the packed words themselves,
 * so a code is directly comparable against a word slice. The walk is
 * word-wise (one word load per 32 bases, two shifts per base); the
 * character representation is never touched, which is what makes
 * per-read MinHash sketching (cluster/sketch_index.hh) cheap enough
 * to run in front of every clustering probe.
 *
 * @p words must hold at least numWords(@p len) packed words (e.g. a
 * packWordsInto() arena or a pool read). @p k outside
 * [1, kBasesPerWord] or @p len < @p k yields no invocations.
 */
template <typename Fn>
inline void
forEachPackedKmer(std::span<const uint64_t> words, size_t len, size_t k,
                  Fn &&fn)
{
    if (k == 0 || k > kBasesPerWord || len < k)
        return;
    const uint64_t top_shift = 2 * (k - 1);
    uint64_t cur = 0;
    uint64_t w = 0;
    for (size_t i = 0; i < len; ++i) {
        if ((i & (kBasesPerWord - 1)) == 0)
            w = words[i / kBasesPerWord];
        cur = (cur >> 2) | ((w & 3) << top_shift);
        w >>= 2;
        if (i + 1 >= k)
            fn(cur);
    }
}

} // namespace dnasim

#endif // DNASIM_BASE_PACKED_HH

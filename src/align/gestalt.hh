/**
 * @file
 * Gestalt pattern matching (Ratcliff-Obershelp).
 *
 * Given two strings, the gestalt algorithm finds the longest common
 * substring, then recurses on the unmatched text to its left and
 * right, producing an ordered set of matching blocks. The gestalt
 * score is 2 * Km / (|S1| + |S2|) where Km is the total matched
 * length (section 3.1, criterion 3).
 *
 * The matching blocks double as an alignment: the gaps between
 * consecutive blocks classify as substitution, insertion, or deletion
 * runs, which is how the paper derives its "gestalt-aligned" error
 * curves — errors attributed to the reference position where the
 * misalignment originates rather than every position it corrupts.
 */

#ifndef DNASIM_ALIGN_GESTALT_HH
#define DNASIM_ALIGN_GESTALT_HH

#include <string_view>
#include <vector>

namespace dnasim
{

/** A run of identical characters at a_pos in A and b_pos in B. */
struct MatchBlock
{
    size_t a_pos = 0;
    size_t b_pos = 0;
    size_t len = 0;

    bool operator==(const MatchBlock &) const = default;
};

/**
 * Ordered gestalt matching blocks of @p a and @p b.
 *
 * Both strings must be ACGT (align/edit_distance.hh): the
 * run-length doubling kernel indexes per-base match masks with
 * either side and panics on any other character. Blocks are
 * non-overlapping and strictly increasing in both
 * coordinates. A zero-length sentinel block at (|a|, |b|) terminates
 * the list (difflib-compatible), so the gaps after the last real
 * match are representable.
 */
std::vector<MatchBlock> matchingBlocks(std::string_view a,
                                       std::string_view b);

/** Gestalt similarity 2*Km / (|a| + |b|), in [0, 1]; 1 for two
 *  empty strings. */
double gestaltScore(std::string_view a, std::string_view b);

/** The kind of a gap between matching blocks. */
enum class GapType : uint8_t
{
    Substitution, ///< both strings have unmatched text
    Deletion,     ///< only the first string (reference) does
    Insertion,    ///< only the second string (copy) does
};

/** One classified gap between consecutive matching blocks. */
struct AlignedGap
{
    GapType type = GapType::Substitution;
    size_t a_pos = 0; ///< start of the gap in the first string
    size_t a_len = 0; ///< unmatched length in the first string
    size_t b_pos = 0; ///< start of the gap in the second string
    size_t b_len = 0; ///< unmatched length in the second string
};

/** Classify the gaps between the matching blocks of @p a and @p b. */
std::vector<AlignedGap> alignedGaps(std::string_view a,
                                    std::string_view b);

/**
 * Gestalt-aligned error positions in the reference @p ref for one
 * noisy/reconstructed @p copy.
 *
 * Substitution and deletion gaps contribute every affected reference
 * position; insertion gaps contribute the single reference position
 * where the insertion occurs (clamped to |ref| - 1). This mirrors
 * the paper's example: for r = AGTC, c = ATC the only aligned error
 * is at the deleted G.
 */
std::vector<size_t> gestaltErrorPositions(std::string_view ref,
                                          std::string_view copy);

namespace align_detail
{

/**
 * The longest common substring of a[a_lo, a_hi) and b[b_lo, b_hi),
 * earliest end row first and then earliest end column on ties: the
 * kernel matchingBlocks() runs on each sub-problem, with the same
 * choice between run-length doubling and the one-row scalar kernel
 * for sub-problems over the scratch cap. Exposed for the equivalence
 * tests.
 */
MatchBlock longestMatch(std::string_view a, std::string_view b,
                        size_t a_lo, size_t a_hi, size_t b_lo,
                        size_t b_hi);

} // namespace align_detail

} // namespace dnasim

#endif // DNASIM_ALIGN_GESTALT_HH

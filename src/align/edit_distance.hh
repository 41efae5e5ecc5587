/**
 * @file
 * Levenshtein distance and edit-operation backtraces.
 *
 * The paper's Appendix B algorithm recovers, for a reference strand
 * and one of its noisy copies, the sequence of channel error
 * operations (insertions, deletions, substitutions) with maximum
 * likelihood, using minimum edit distance as the proxy and breaking
 * ties uniformly at random (the paper's ChooseRandomAndInsertOp).
 *
 * The paper presents the recursion directly (exponential); we
 * compute the same scripts from a Myers bit-parallel trace
 * (align/edit_script.hh). The recovered operations drive the
 * data-driven calibration of every error-model parameter
 * (core/profiler.hh).
 *
 * Precondition: strands are over A, C, G and T. Every entry point
 * checks its input (readEvyat rejects any other character, the
 * .dnapool builder skips such reads) and the channel, codec and
 * reconstructors emit only these four, so the kernels here keep no
 * generic-character path. A pattern (the side whose base tables a
 * kernel builds) with another character panics, as charToBase()
 * does; a text character outside ACGT matches nothing.
 */

#ifndef DNASIM_ALIGN_EDIT_DISTANCE_HH
#define DNASIM_ALIGN_EDIT_DISTANCE_HH

#include <cstdint>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "base/dna.hh"
#include "base/logging.hh"
#include "base/rng.hh"

namespace dnasim
{

namespace align_detail
{
struct PatternAccess;
}

/** The kind of a single edit operation transforming reference->copy. */
enum class EditOpType : uint8_t
{
    Equal,      ///< reference base copied through unchanged
    Substitute, ///< reference base replaced by a different base
    Delete,     ///< reference base missing from the copy
    Insert,     ///< extra base present in the copy
};

/** Printable name of an EditOpType. */
const char *editOpTypeName(EditOpType t);

/**
 * One edit operation, anchored to a reference position.
 *
 * For Equal/Substitute/Delete, @c ref_pos is the index of the
 * affected reference base and @c ref_base its value. For Insert,
 * @c ref_pos is the reference index *before which* the extra base
 * appears (== reference length for an append) and @c ref_base is 0.
 * @c copy_base is the base observed in the copy (0 for Delete).
 */
struct EditOp
{
    EditOpType type = EditOpType::Equal;
    size_t ref_pos = 0;
    char ref_base = '\0';
    char copy_base = '\0';

    bool operator==(const EditOp &) const = default;
};

/**
 * Plain Levenshtein distance (unit costs): a MyersPattern over the
 * shorter string, probed with the longer one. Exact at any length;
 * the shorter string must be ACGT.
 */
size_t levenshtein(std::string_view a, std::string_view b);

/**
 * A Myers bit-parallel pattern with precomputed match tables.
 *
 * levenshtein() rebuilds the per-base match bit-vectors (Peq) on
 * every call. When one string is compared against many others — a
 * cluster representative probed by thousands of reads, a consensus
 * estimate scored against every copy — the tables can be built once
 * and reused. A MyersPattern owns the Peq rows for the four bases and
 * answers distance queries with zero per-call allocation.
 *
 * The pattern must be ACGT: building one over any other character
 * panics. Texts may hold any byte; one outside ACGT matches nothing.
 */
class MyersPattern
{
  public:
    MyersPattern() = default;

    /** Build the match tables for @p pattern. */
    explicit MyersPattern(std::string_view pattern);

    /**
     * Rebuild the match tables for a new pattern, reusing the Peq
     * storage. The batch call sites probe a different pattern per
     * read; reassigning one thread-local MyersPattern keeps that
     * loop allocation-free once capacity has grown.
     */
    void assign(std::string_view pattern);

    /** Pattern length in bases. */
    size_t size() const { return m_; }

    /** Exact Levenshtein distance between the pattern and @p text. */
    size_t
    distance(std::string_view text) const
    {
        return distanceBounded(text, std::numeric_limits<size_t>::max());
    }

    /**
     * Thresholded distance: the exact distance when it is at most
     * @p limit, otherwise some value strictly greater than @p limit
     * (the kernel abandons a column as soon as the running score
     * minus the remaining text length certifies the bound). Callers
     * comparing the result against @p limit get exactly the same
     * accept/reject decisions as with distance().
     */
    size_t distanceBounded(std::string_view text, size_t limit) const;

  private:
    /// The batch kernels (align/myers_batch.cc) share the pattern's
    /// Peq rows across SIMD lanes instead of rebuilding them.
    friend struct align_detail::PatternAccess;

    size_t m_ = 0;
    size_t blocks_ = 0;
    /// Peq rows, kNumBases * blocks_: match bits of pattern slice b
    /// for base code c live at peq_[c * blocks_ + b].
    std::vector<uint64_t> peq_;
};

/**
 * Recover a minimum-cost edit script transforming @p ref into
 * @p copy.
 *
 * When multiple scripts achieve the minimum cost, @p rng (if
 * non-null) selects uniformly among the locally optimal predecessors
 * at each backtrace step, matching Appendix B; with a null @p rng the
 * choice is deterministic (diagonal first, then deletion, then
 * insertion — the paper's worked example prefers the deletion
 * explanation for AGCG -> AGG).
 *
 * The returned script lists operations in reference order and always
 * includes Equal ops, so its Equal/Substitute/Delete entries cover
 * every reference position exactly once.
 */
std::vector<EditOp> editOps(std::string_view ref, std::string_view copy,
                            Rng *rng = nullptr);

/**
 * editOps() into a caller-provided buffer (cleared first). The
 * pattern tables and the backtrace trace live in reused thread-local
 * scratch, so a steady-state caller (calibration iterates this over
 * every copy of every cluster) performs no per-call heap allocation.
 */
void editOpsInto(std::string_view ref, std::string_view copy, Rng *rng,
                 std::vector<EditOp> &out);

/**
 * editOpsInto() reusing a prebuilt MyersPattern over @p ref
 * (pattern.size() must equal ref.size()). Clustered callers that
 * align many copies against one estimate or reference build the
 * pattern's Peq tables once and amortize them across every copy.
 */
void editOpsInto(const MyersPattern &pattern, std::string_view ref,
                 std::string_view copy, Rng *rng,
                 std::vector<EditOp> &out);

namespace align_detail
{

/** One alignment, ready to walk: the bit-vector forward pass. */
struct EditTrace
{
    /// Per copy position j in [0, m], 4 * blocks words at
    /// deltas[j * 4 * blocks]: HP, HN, VP, VN (see
    /// align/edit_script.hh); column 0 is the left border.
    const uint64_t *deltas = nullptr;
    size_t blocks = 0;
};

/**
 * Forward pass behind editOpsWalk() for two non-empty strands;
 * counts one align.editops.bitvec script. The trace lives in
 * thread-local scratch until the next call on this thread.
 */
EditTrace editTrace(const MyersPattern &pattern, std::string_view ref,
                    std::string_view copy);

/** Release the delta scratch if the last trace grew it too large. */
void releaseOversizedTrace();

} // namespace align_detail

/**
 * Walk the minimum-cost script of editOpsInto() without
 * materializing it: @p visit(type, ref_pos, copy_pos) is called once
 * per op, from the end of the strings to the start. ref_pos is the
 * EditOp's; copy_pos is the copy index the op consumes (Equal,
 * Substitute, Insert) or, for a Delete, the number of copy
 * characters before it.
 *
 * An empty side gives the trivial script; anything else the
 * bit-vector backtrace, which reads each move off the stored deltas.
 * With a null @p rng it takes the first minimum-cost move in the
 * fixed diagonal > delete > insert preference; with an Rng it
 * collects every minimum-cost move in that order and draws among
 * them as Appendix B does, exactly as editOpsReference() would.
 * @p pattern must be built over @p ref.
 */
template <typename Visit>
void
editOpsWalk(const MyersPattern &pattern, std::string_view ref,
            std::string_view copy, Rng *rng, Visit &&visit)
{
    size_t i = ref.size(), j = copy.size();
    if (i == 0 || j == 0) {
        // Forced: all insertions or all deletions, so no draw.
        for (; j > 0; --j)
            visit(EditOpType::Insert, size_t{0}, j - 1);
        for (; i > 0; --i)
            visit(EditOpType::Delete, i - 1, size_t{0});
        return;
    }
    const align_detail::EditTrace trace =
        align_detail::editTrace(pattern, ref, copy);

    // All index arithmetic is over 1-based row i / column j; bits
    // above row n in the last block are junk the walk never reads.
    const size_t blocks = trace.blocks;
    const size_t stride = 4 * blocks;
    auto bit = [](const uint64_t *vec, size_t row) {
        return (vec[(row - 1) >> 6] >> ((row - 1) & 63)) & 1u;
    };
    // D[i][j] - D[i-1][j], stored for every column.
    auto vdelta = [&](size_t col, size_t row) -> int {
        const uint64_t *sp = trace.deltas + col * stride;
        if (bit(sp + 2 * blocks, row))
            return 1;
        return bit(sp + 3 * blocks, row) ? -1 : 0;
    };
    // D[i][j] - D[i][j-1] for j >= 1; the i = 0 border is always +1.
    auto hdelta = [&](size_t col, size_t row) -> int {
        if (row == 0)
            return 1;
        const uint64_t *sp = trace.deltas + col * stride;
        if (bit(sp, row))
            return 1;
        return bit(sp + blocks, row) ? -1 : 0;
    };

    // Moves: 0 = diagonal, 1 = delete, 2 = insert.
    while (i > 0 || j > 0) {
        // A move is minimum-cost exactly when the stored deltas say
        // the predecessor's value plus the step cost equals this
        // cell's, so each test reads the full matrix's own values:
        //   diag: D[i][j] - D[i-1][j-1] = V(j,i) + H(j,i-1) == cost
        //   del:  D[i][j] - D[i-1][j]   = V(j,i)            == +1
        //   ins:  D[i][j] - D[i][j-1]   = H(j,i)            == +1
        // The candidates are collected in the reference backtrace's
        // order; without an Rng the first one is taken, so the rest
        // are not tested.
        uint8_t candidates[3];
        size_t num = 0;
        const int v = i > 0 ? vdelta(j, i) : 0;
        if (i > 0 && j > 0 &&
            v + hdelta(j, i - 1) == (ref[i - 1] == copy[j - 1] ? 0 : 1))
            candidates[num++] = 0;
        if ((num == 0 || rng != nullptr) && v == 1)
            candidates[num++] = 1;
        if ((num == 0 || rng != nullptr) && j > 0 && hdelta(j, i) == 1)
            candidates[num++] = 2;
        DNASIM_ASSERT(num > 0, "bit-vector backtrace stuck at (", i, ",",
                      j, ")");
        const uint8_t move = rng != nullptr && num > 1
                                 ? candidates[rng->index(num)]
                                 : candidates[0];
        if (move == 0) {
            --i;
            --j;
            visit(ref[i] == copy[j] ? EditOpType::Equal
                                    : EditOpType::Substitute,
                  i, j);
        } else if (move == 1) {
            --i;
            visit(EditOpType::Delete, i, j);
        } else {
            --j;
            visit(EditOpType::Insert, i, j);
        }
    }
    align_detail::releaseOversizedTrace();
}

/** Number of non-Equal operations in a script. */
size_t numErrors(const std::vector<EditOp> &ops);

/** Apply an edit script to @p ref, reproducing the copy. */
Strand applyEditOps(std::string_view ref, const std::vector<EditOp> &ops);

/**
 * A maximal run of consecutive deletions within a script.
 * Long deletions (length >= 2) are a calibrated model parameter.
 */
struct DeletionRun
{
    size_t ref_pos = 0; ///< first deleted reference position
    size_t length = 0;  ///< number of consecutive deleted bases
};

/** Extract maximal runs of consecutive Delete ops from a script. */
std::vector<DeletionRun> deletionRuns(const std::vector<EditOp> &ops);

} // namespace dnasim

#endif // DNASIM_ALIGN_EDIT_DISTANCE_HH

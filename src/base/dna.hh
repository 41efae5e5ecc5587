/**
 * @file
 * The DNA alphabet and strand utilities.
 *
 * A strand is represented as a std::string over the characters
 * 'A', 'C', 'G', 'T'. The Base enum gives a dense 0..3 index used by
 * probability tables (conditional error rates, confusion matrices).
 */

#ifndef DNASIM_BASE_DNA_HH
#define DNASIM_BASE_DNA_HH

#include <array>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace dnasim
{

/** A DNA strand: a string over {A, C, G, T}. */
using Strand = std::string;

/** The four nucleotide bases, densely indexed for probability tables. */
enum class Base : uint8_t
{
    A = 0,
    C = 1,
    G = 2,
    T = 3,
};

/** Number of bases in the alphabet. */
inline constexpr size_t kNumBases = 4;

/** All bases, in index order. */
inline constexpr std::array<Base, kNumBases> kAllBases = {
    Base::A, Base::C, Base::G, Base::T};

/** The alphabet as characters, in index order. */
inline constexpr std::array<char, kNumBases> kBaseChars = {
    'A', 'C', 'G', 'T'};

/** Convert a base to its character. */
constexpr char
baseToChar(Base b)
{
    return kBaseChars[static_cast<size_t>(b)];
}

/** True iff @p c is one of A, C, G, T. */
constexpr bool
isBaseChar(char c)
{
    return c == 'A' || c == 'C' || c == 'G' || c == 'T';
}

/**
 * Per-character 2-bit codes: kCharToCode[c] is the Base index of c,
 * or kInvalidCode for characters outside {A, C, G, T}. The one base
 * table: charToBase(), baseIndex(), the packer and the kernels that
 * walk char strands word-wise all read it.
 */
inline constexpr uint8_t kInvalidCode = 0xff;

namespace detail
{
constexpr std::array<uint8_t, 256>
makeCharToCode()
{
    std::array<uint8_t, 256> t{};
    for (auto &e : t)
        e = kInvalidCode;
    t['A'] = 0;
    t['C'] = 1;
    t['G'] = 2;
    t['T'] = 3;
    return t;
}

/** Panics on a non-ACGT character handed to charToBase(). */
[[noreturn]] void invalidBaseChar(char c);
} // namespace detail

inline constexpr std::array<uint8_t, 256> kCharToCode =
    detail::makeCharToCode();

/**
 * Convert a character to its Base.
 *
 * The character must satisfy isBaseChar(); anything else panics
 * (invalid strand content is a bug upstream of this call). A table
 * read with a never-taken branch: this runs per vote, per channel
 * base and per profiler op.
 */
inline Base
charToBase(char c)
{
    const uint8_t code = kCharToCode[static_cast<unsigned char>(c)];
    if (code == kInvalidCode) [[unlikely]]
        detail::invalidBaseChar(c);
    return static_cast<Base>(code);
}

/** Dense 0..3 index of a base character. Panics like charToBase(). */
inline size_t
baseIndex(char c)
{
    return static_cast<size_t>(charToBase(c));
}

/** True iff every character of @p s is a valid base. */
bool isValidStrand(std::string_view s);

/** Reverse of a strand (no complementing). */
Strand reverseStrand(std::string_view s);

/**
 * GC-ratio of a strand in [0, 1]: (#G + #C) / length.
 * Returns 0 for the empty strand.
 */
double gcRatio(std::string_view s);

/** Length of the longest homopolymer run (e.g. AAAA -> 4). */
size_t maxHomopolymerRun(std::string_view s);

/** Per-base counts, indexed by baseIndex(). */
std::array<size_t, kNumBases> baseCounts(std::string_view s);

/**
 * Mask of positions lying inside a homopolymer run of length at
 * least @p min_run (e.g. for "AAAT" and min_run 3, positions 0-2).
 */
std::vector<bool> homopolymerRunMask(std::string_view s,
                                     size_t min_run);

/**
 * homopolymerRunMask() into a caller-provided buffer (assigned to
 * |s| entries; storage reused). Lets per-read hot paths — the
 * contextual channel computes this mask for every transmission —
 * run without a per-call allocation.
 */
void homopolymerRunMask(std::string_view s, size_t min_run,
                        std::vector<bool> &out);

} // namespace dnasim

#endif // DNASIM_BASE_DNA_HH

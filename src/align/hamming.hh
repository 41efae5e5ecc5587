/**
 * @file
 * Positional (Hamming-style) comparison of a reference strand and a
 * noisy or reconstructed copy.
 *
 * Unlike the gestalt-aligned view, the Hamming view marks *every*
 * position where the copy disagrees with the reference, so an early
 * indel corrupts all later positions (the paper's example: for
 * r = AGTC, c = ATC, Hamming errors appear at copy positions 1, 2
 * and 3).
 */

#ifndef DNASIM_ALIGN_HAMMING_HH
#define DNASIM_ALIGN_HAMMING_HH

#include <string_view>
#include <vector>

namespace dnasim
{

/**
 * Positions of Hamming errors in @p copy relative to @p ref: indices
 * i < |copy| with i >= |ref| or copy[i] != ref[i]. Positions beyond
 * the copy's length are not reported (matching the paper's curves,
 * which fall off after the design length because few copies are
 * longer).
 */
std::vector<size_t> hammingErrorPositions(std::string_view ref,
                                          std::string_view copy);

} // namespace dnasim

#endif // DNASIM_ALIGN_HAMMING_HH

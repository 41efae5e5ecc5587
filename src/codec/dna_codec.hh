/**
 * @file
 * Binary <-> DNA codec (section 1.1's encode/decode step): a
 * Goldman-style rotating code [11] that encodes base-3 digits,
 * always choosing among the three bases different from the previous
 * one — the output contains no homopolymer runs at all, at a density
 * of log2(3) ~ 1.58 bits per base.
 */

#ifndef DNASIM_CODEC_DNA_CODEC_HH
#define DNASIM_CODEC_DNA_CODEC_HH

#include <cstdint>
#include <optional>
#include <vector>

#include "base/dna.hh"

namespace dnasim
{

using Bytes = std::vector<uint8_t>;

/**
 * Homopolymer-free rotating code. Bytes are processed in blocks of
 * 5 (40 bits), each block becoming 26 base-3 digits (3^26 > 2^40);
 * each digit selects one of the three bases differing from the
 * previous output base.
 */
class RotatingCodec
{
  public:
    /** Encode bytes into a strand. */
    Strand encode(const Bytes &data) const;

    /**
     * Decode a strand back into bytes.
     *
     * @param strand       the (possibly corrupted) strand
     * @param expected_len the original payload size in bytes
     * @return the payload, or std::nullopt if the strand cannot
     *         possibly decode (too short, a repeated base, or a
     *         block whose value does not fit in 40 bits)
     */
    std::optional<Bytes> decode(const Strand &strand,
                                size_t expected_len) const;

    /** Strand length produced for a payload of @p num_bytes. */
    size_t encodedLength(size_t num_bytes) const;

    /// Bytes per block and trits per block (3^26 > 2^40).
    static constexpr size_t kBlockBytes = 5;
    static constexpr size_t kBlockTrits = 26;
};

} // namespace dnasim

#endif // DNASIM_CODEC_DNA_CODEC_HH

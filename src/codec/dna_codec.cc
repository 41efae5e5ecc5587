#include "codec/dna_codec.hh"

#include <algorithm>

#include "base/logging.hh"

namespace dnasim
{

namespace
{

/** The three bases different from @p prev, in a fixed order. */
std::array<char, 3>
rotationAlphabet(char prev)
{
    std::array<char, 3> out{};
    size_t k = 0;
    for (char c : kBaseChars)
        if (c != prev)
            out[k++] = c;
    return out;
}

/** 40-bit block value from up to 5 bytes (zero-padded). */
uint64_t
packBlock(const Bytes &data, size_t offset)
{
    uint64_t value = 0;
    for (size_t i = 0; i < RotatingCodec::kBlockBytes; ++i) {
        value <<= 8;
        if (offset + i < data.size())
            value |= data[offset + i];
    }
    return value;
}

} // anonymous namespace

Strand
RotatingCodec::encode(const Bytes &data) const
{
    Strand out;
    out.reserve(encodedLength(data.size()));
    char prev = 'A'; // virtual predecessor; not emitted
    for (size_t offset = 0; offset < std::max<size_t>(data.size(), 1);
         offset += kBlockBytes) {
        uint64_t value = packBlock(data, offset);
        // Base-3 digits, most significant first.
        std::array<uint8_t, kBlockTrits> trits{};
        for (size_t i = kBlockTrits; i-- > 0;) {
            trits[i] = static_cast<uint8_t>(value % 3);
            value /= 3;
        }
        for (uint8_t trit : trits) {
            char c = rotationAlphabet(prev)[trit];
            out.push_back(c);
            prev = c;
        }
        if (data.empty())
            break;
    }
    return out;
}

std::optional<Bytes>
RotatingCodec::decode(const Strand &strand, size_t expected_len) const
{
    const size_t num_blocks =
        (std::max<size_t>(expected_len, 1) + kBlockBytes - 1) /
        kBlockBytes;
    if (strand.size() < num_blocks * kBlockTrits)
        return std::nullopt;

    Bytes out;
    out.reserve(num_blocks * kBlockBytes);
    char prev = 'A';
    size_t pos = 0;
    for (size_t blk = 0; blk < num_blocks; ++blk) {
        uint64_t value = 0;
        for (size_t i = 0; i < kBlockTrits; ++i) {
            char c = strand[pos++];
            auto alphabet = rotationAlphabet(prev);
            auto it = std::find(alphabet.begin(), alphabet.end(), c);
            if (it == alphabet.end()) {
                // A repeated base cannot occur in a valid rotating
                // encoding; the strand is corrupted beyond local
                // repair.
                return std::nullopt;
            }
            value = value * 3 +
                    static_cast<uint64_t>(it - alphabet.begin());
            prev = c;
        }
        // 3^26 > 2^40: a block value past 40 bits is one encode()
        // never writes, so the strand is corrupted.
        if (value >> (8 * kBlockBytes) != 0)
            return std::nullopt;
        for (size_t i = kBlockBytes; i-- > 0;)
            out.push_back(static_cast<uint8_t>(value >> (8 * i)));
    }
    out.resize(expected_len);
    return out;
}

size_t
RotatingCodec::encodedLength(size_t num_bytes) const
{
    const size_t blocks =
        (std::max<size_t>(num_bytes, 1) + kBlockBytes - 1) /
        kBlockBytes;
    return blocks * kBlockTrits;
}

} // namespace dnasim

#include "base/packed.hh"

#include <algorithm>

namespace dnasim
{

bool
packWordsInto(std::string_view s, std::vector<uint64_t> &out)
{
    const size_t len = s.size();
    out.resize(numWords(len));
    size_t i = 0;
    for (size_t w = 0; w < out.size(); ++w) {
        uint64_t word = 0;
        const size_t stop = std::min(len, (w + 1) * kBasesPerWord);
        for (size_t shift = 0; i < stop; ++i, shift += 2) {
            const uint8_t code =
                kCharToCode[static_cast<unsigned char>(s[i])];
            if (code == kInvalidCode)
                return false;
            word |= static_cast<uint64_t>(code) << shift;
        }
        out[w] = word;
    }
    return true;
}

void
packLaneMajorCodes(std::span<const std::string_view> texts,
                   size_t lanes, size_t max_t,
                   std::vector<uint8_t> &out)
{
    out.resize(max_t * lanes);
    std::fill(out.begin(), out.end(), kLaneMajorPadCode);
    const size_t live = std::min(lanes, texts.size());
    for (size_t l = 0; l < live; ++l) {
        const std::string_view text = texts[l];
        const size_t n = std::min(text.size(), max_t);
        uint8_t *col = out.data() + l;
        for (size_t t = 0; t < n; ++t) {
            const uint8_t code =
                kCharToCode[static_cast<unsigned char>(text[t])];
            col[t * lanes] =
                code == kInvalidCode ? kLaneMajorPadCode : code;
        }
    }
}

void
unpackWords(std::span<const uint64_t> words, size_t len, Strand &out)
{
    out.resize(len);
    size_t i = 0;
    for (size_t w = 0; w < numWords(len); ++w) {
        uint64_t word = words[w];
        const size_t stop = std::min(len, (w + 1) * kBasesPerWord);
        for (; i < stop; ++i, word >>= 2)
            out[i] = kBaseChars[word & 3u];
    }
}

} // namespace dnasim

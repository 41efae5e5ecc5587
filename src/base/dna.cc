#include "base/dna.hh"

#include <algorithm>

#include "base/logging.hh"

namespace dnasim
{

void
detail::invalidBaseChar(char c)
{
    DNASIM_PANIC("invalid base character '", c, "' (", int(c), ")");
}

bool
isValidStrand(std::string_view s)
{
    return std::all_of(s.begin(), s.end(), isBaseChar);
}

Strand
reverseStrand(std::string_view s)
{
    return Strand(s.rbegin(), s.rend());
}

double
gcRatio(std::string_view s)
{
    if (s.empty())
        return 0.0;
    size_t gc = 0;
    for (char c : s)
        if (c == 'G' || c == 'C')
            ++gc;
    return static_cast<double>(gc) / static_cast<double>(s.size());
}

size_t
maxHomopolymerRun(std::string_view s)
{
    size_t best = 0, run = 0;
    char prev = '\0';
    for (char c : s) {
        run = (c == prev) ? run + 1 : 1;
        prev = c;
        best = std::max(best, run);
    }
    return best;
}

std::array<size_t, kNumBases>
baseCounts(std::string_view s)
{
    std::array<size_t, kNumBases> counts{};
    for (char c : s)
        ++counts[baseIndex(c)];
    return counts;
}

std::vector<bool>
homopolymerRunMask(std::string_view s, size_t min_run)
{
    std::vector<bool> mask;
    homopolymerRunMask(s, min_run, mask);
    return mask;
}

void
homopolymerRunMask(std::string_view s, size_t min_run,
                   std::vector<bool> &out)
{
    out.assign(s.size(), false);
    if (min_run == 0)
        min_run = 1;
    size_t start = 0;
    for (size_t i = 1; i <= s.size(); ++i) {
        if (i == s.size() || s[i] != s[start]) {
            if (i - start >= min_run)
                for (size_t k = start; k < i; ++k)
                    out[k] = true;
            start = i;
        }
    }
}

} // namespace dnasim

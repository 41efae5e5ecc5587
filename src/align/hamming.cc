#include "align/hamming.hh"

namespace dnasim
{

std::vector<size_t>
hammingErrorPositions(std::string_view ref, std::string_view copy)
{
    std::vector<size_t> positions;
    for (size_t i = 0; i < copy.size(); ++i)
        if (i >= ref.size() || copy[i] != ref[i])
            positions.push_back(i);
    return positions;
}

} // namespace dnasim

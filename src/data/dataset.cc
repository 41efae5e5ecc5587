#include "data/dataset.hh"

#include <algorithm>

#include "align/edit_distance.hh"
#include "base/logging.hh"

namespace dnasim
{

size_t
Dataset::totalCopies() const
{
    size_t n = 0;
    for (const auto &c : clusters_)
        n += c.copies.size();
    return n;
}

std::vector<size_t>
Dataset::coverages() const
{
    std::vector<size_t> out;
    out.reserve(clusters_.size());
    for (const auto &c : clusters_)
        out.push_back(c.coverage());
    return out;
}

std::vector<Strand>
Dataset::references() const
{
    std::vector<Strand> out;
    out.reserve(clusters_.size());
    for (const auto &c : clusters_)
        out.push_back(c.reference);
    return out;
}

DatasetStats
Dataset::stats(bool with_error_rate) const
{
    DatasetStats s;
    s.num_clusters = clusters_.size();
    if (clusters_.empty())
        return s;

    s.min_coverage = clusters_[0].coverage();
    size_t total_len = 0;
    size_t total_edit = 0;
    size_t total_ref_len = 0;
    for (const auto &c : clusters_) {
        s.num_copies += c.coverage();
        s.num_erasures += c.isErasure() ? 1 : 0;
        s.min_coverage = std::min(s.min_coverage, c.coverage());
        s.max_coverage = std::max(s.max_coverage, c.coverage());
        for (const auto &copy : c.copies) {
            total_len += copy.size();
            if (with_error_rate) {
                total_edit += levenshtein(c.reference, copy);
                total_ref_len += c.reference.size();
            }
        }
    }
    s.mean_coverage = static_cast<double>(s.num_copies) /
                      static_cast<double>(s.num_clusters);
    if (s.num_copies > 0)
        s.mean_copy_length = static_cast<double>(total_len) /
                             static_cast<double>(s.num_copies);
    if (with_error_rate && total_ref_len > 0)
        s.aggregate_error_rate = static_cast<double>(total_edit) /
                                 static_cast<double>(total_ref_len);
    return s;
}

Dataset
Dataset::fixedCoverage(size_t n, size_t min_coverage) const
{
    DNASIM_ASSERT(n > 0, "fixedCoverage(0)");
    const size_t required = std::max(n, min_coverage);
    Dataset out;
    for (const auto &c : clusters_) {
        if (c.coverage() < required)
            continue;
        Cluster trimmed;
        trimmed.reference = c.reference;
        trimmed.copies.assign(c.copies.begin(),
                              c.copies.begin() +
                                  static_cast<ptrdiff_t>(n));
        out.add(std::move(trimmed));
    }
    return out;
}

void
Dataset::shuffleWithinClusters(Rng &rng)
{
    for (auto &c : clusters_)
        rng.shuffle(c.copies);
}

std::vector<Strand>
Dataset::pooledReads() const
{
    std::vector<Strand> out;
    out.reserve(totalCopies());
    for (const auto &c : clusters_)
        for (const auto &copy : c.copies)
            out.push_back(copy);
    return out;
}

void
Dataset::truncateReads(size_t max_reads)
{
    if (max_reads == 0)
        return;
    size_t kept = 0;
    for (auto &c : clusters_) {
        const size_t take =
            std::min(c.copies.size(), max_reads - kept);
        if (take < c.copies.size())
            c.copies.resize(take);
        kept += take;
    }
}

} // namespace dnasim

/**
 * @file
 * Clustered-dataset text I/O in the "evyat" format used by the
 * Microsoft Nanopore dataset release and by DNASimulator:
 *
 * @verbatim
 * <reference strand>
 * *****************************
 * <noisy copy 1>
 * <noisy copy 2>
 *
 *
 * <next reference strand>
 * ...
 * @endverbatim
 *
 * Empty clusters (erasures) appear as a reference with no copies.
 *
 * readEvyatClusters() is the one evyat parser: readEvyat() and the
 * out-of-core ingest (data/ingest.hh) are visitors over it, so both
 * agree on structure and word structural errors alike; each owns
 * its alphabet policy.
 */

#ifndef DNASIM_DATA_IO_HH
#define DNASIM_DATA_IO_HH

#include <cstddef>
#include <istream>
#include <string>
#include <string_view>

#include "base/logging.hh"
#include "data/dataset.hh"

namespace dnasim
{

/** Drop one trailing CR, so CRLF files read like LF files. */
inline void
stripCr(std::string &line)
{
    if (!line.empty() && line.back() == '\r')
        line.pop_back();
}

/** True for an evyat separator: a non-empty line of '*' only. */
bool isEvyatSeparator(std::string_view line);

/**
 * Parse the evyat stream @p is cluster by cluster. For each cluster
 * it calls `visitor.reference(line, line_no)`, then
 * `visitor.copy(line, line_no)` per copy, then
 * `visitor.endCluster()`. `line` is a `std::string &` with any
 * trailing CR removed, and the visitor may move from it. Either
 * call returning false ends the read there. A missing or malformed
 * separator throws FatalError naming the line; which characters a
 * strand may hold is the visitor's business.
 */
template <typename Visitor>
void
readEvyatClusters(std::istream &is, Visitor &visitor)
{
    std::string line;
    size_t line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        stripCr(line);
        if (line.empty())
            continue;

        // A non-empty line starts a cluster: reference, then the
        // separator, then copies until a blank line or EOF.
        if (!visitor.reference(line, line_no))
            return;
        if (!std::getline(is, line)) {
            DNASIM_FATAL("line ", line_no,
                         ": unexpected EOF, separator expected");
        }
        ++line_no;
        stripCr(line);
        if (!isEvyatSeparator(line)) {
            DNASIM_FATAL("line ", line_no, ": expected separator, got '",
                         line, "'");
        }
        while (std::getline(is, line)) {
            ++line_no;
            stripCr(line);
            if (line.empty())
                break;
            if (!visitor.copy(line, line_no))
                return;
        }
        visitor.endCluster();
    }
}

/** Write @p dataset to @p os in evyat format. */
void writeEvyat(const Dataset &dataset, std::ostream &os);

/** Write @p dataset to the file at @p path (fatal on I/O error). */
void writeEvyatFile(const Dataset &dataset, const std::string &path);

/**
 * Parse an evyat-format stream (fatal on malformed input, and on a
 * reference or copy that is not an ACGT strand).
 */
Dataset readEvyat(std::istream &is);

/** Parse the evyat-format file at @p path (fatal on I/O error). */
Dataset readEvyatFile(const std::string &path);

} // namespace dnasim

#endif // DNASIM_DATA_IO_HH

/**
 * @file
 * Bounded-memory ingest of text read sets (plain lines, FASTA,
 * evyat) into mmap-backed dnapool files — the entry point of the
 * out-of-core workflow behind `dnasim ingest`. Evyat input goes
 * through the one evyat parser (data/io.hh); ingest's alphabet
 * policy differs from readEvyat()'s by design: a copy that is not an
 * ACGT strand is skipped and counted, and reference lines are not
 * read at all.
 */

#ifndef DNASIM_DATA_INGEST_HH
#define DNASIM_DATA_INGEST_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace dnasim
{

/** Input formats understood by ingestToPool(). */
enum class IngestFormat
{
    Lines, ///< one strand per non-empty line
    Fasta, ///< '>' headers; sequence lines concatenated per record
    Evyat, ///< clustered dataset; copies ingested, references skipped
};

struct IngestOptions
{
    IngestFormat format = IngestFormat::Lines;
    /** Stop after this many ingested reads (0 = unlimited). */
    size_t max_reads = 0;
};

struct IngestResult
{
    size_t reads = 0;        ///< strands appended to the pool
    size_t skipped = 0;      ///< dropped: non-ACGT characters
    size_t clusters = 0;     ///< evyat only: clusters seen
    uint64_t total_bases = 0;
    /// Evyat only: the 0-based cluster each ingested read came from
    /// (4 B a read), for ground-truth purity scoring on pools.
    std::vector<uint32_t> origins;
};

/**
 * The format of the file at @p path, from its first two non-empty
 * lines: a '>' header → Fasta, an all-'*' second line → Evyat,
 * otherwise Lines.
 */
IngestFormat sniffIngestFormat(const std::string &path);

/** Stable lowercase name of an ingest format. */
const char *ingestFormatName(IngestFormat format);

/**
 * Stream the text input at @p input_path into a pool file at
 * @p pool_path in bounded memory. Returns false (setting @p error
 * when non-null) on I/O failure; a structurally malformed evyat
 * throws FatalError with readEvyat()'s message. No pool is published
 * in either case.
 */
bool ingestToPool(const std::string &input_path,
                  const std::string &pool_path,
                  const IngestOptions &options, IngestResult &result,
                  std::string *error = nullptr);

} // namespace dnasim

#endif // DNASIM_DATA_INGEST_HH

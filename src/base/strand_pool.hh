/**
 * @file
 * mmap-backed packed strand pools: the out-of-core data plane.
 *
 * A pool file ("dnapool v1") stores millions of strands as an
 * append-only 2-bit packed arena plus an offset/length index, laid
 * out so a read-only mmap *is* the runtime data structure — no parse
 * step, no per-strand heap allocation; open makes one bounds pass
 * over the index:
 *
 * @verbatim
 * offset 0    64-byte header
 *             "DNAPOOL1" magic, version, count, arena_words,
 *             index_offset, arena_offset, total_bases, reserved
 * index       count x { u64 word_offset, u64 length }
 * arena       arena_words x u64 of 2-bit packed bases
 * @endverbatim
 *
 * All integers are little-endian u64. Every strand starts on a word
 * boundary, so words(i) is a direct span into the mapping and feeds
 * forEachPackedKmer() without copying; the cost is at most 31
 * padding bases per strand. Tail bits beyond a strand's length are
 * zero, as packWordsInto() writes them.
 *
 * PackedStrandPoolBuilder streams strands to side files in bounded
 * memory and commits the assembled pool atomically (write to a temp
 * path, then rename), so a killed ingest never leaves a torn pool.
 * StrandPoolView lets ChannelSimulator, clusterReads and the
 * reconstruction pipeline consume either an in-RAM
 * std::vector<Strand> or an mmap-backed pool through one interface.
 */

#ifndef DNASIM_BASE_STRAND_POOL_HH
#define DNASIM_BASE_STRAND_POOL_HH

#include <cstdint>
#include <fstream>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "base/dna.hh"
#include "base/mapped_file.hh"
#include "base/packed.hh"

namespace dnasim
{

/** A read-only, mmap-backed dnapool v1 file. */
class PackedStrandPool
{
  public:
    /** Magic bytes at offset 0 of every pool file. */
    static constexpr char kMagic[8] = {'D', 'N', 'A', 'P',
                                       'O', 'O', 'L', '1'};
    static constexpr uint64_t kVersion = 1;
    static constexpr size_t kHeaderBytes = 64;
    static constexpr size_t kIndexEntryBytes = 16;

    PackedStrandPool() = default;

    /**
     * Map the pool file at @p path. Returns false (setting @p error
     * when non-null) on I/O failure or when the file is not a valid
     * pool — wrong magic or version, a size that cannot hold the
     * declared index and arena, or an index entry whose strand
     * overruns the arena (a truncated or corrupt file fails here,
     * in one pass over the index, before any strand is touched).
     */
    bool open(const std::string &path, std::string *error = nullptr);

    void close();

    bool isOpen() const { return map_.isOpen(); }

    /**
     * Hint the expected access pattern (Sequential for full scans,
     * Random for probe-heavy clustering) to the kernel. Advisory
     * only; data access is identical either way.
     */
    void advise(MapAccess access) const { map_.advise(access); }

    /** Number of strands. */
    size_t size() const { return static_cast<size_t>(count_); }

    bool empty() const { return count_ == 0; }

    /** Sum of strand lengths in bases. */
    uint64_t totalBases() const { return total_bases_; }

    /** Length in bases of strand @p i. */
    size_t length(size_t i) const;

    /**
     * The packed words of strand @p i — a direct span into the
     * mapping, valid while the pool stays open. Tail bits are zero.
     */
    std::span<const uint64_t> words(size_t i) const;

    /** Unpack strand @p i into @p out (resized; storage reused). */
    void unpackInto(size_t i, Strand &out) const;

    /** Unpack strand @p i into a fresh string. */
    Strand strand(size_t i) const;

  private:
    MappedFile map_;
    const uint64_t *index_ = nullptr; // count x {word_offset, length}
    const uint64_t *arena_ = nullptr;
    uint64_t count_ = 0;
    uint64_t arena_words_ = 0;
    uint64_t total_bases_ = 0;
};

/**
 * Streaming writer for dnapool v1 files. Index entries and arena
 * words go to side files through small buffers, so memory use is
 * independent of pool size; finish() splices header + index + arena
 * into "<path>.tmp" and renames it over @p path in one atomic step.
 */
class PackedStrandPoolBuilder
{
  public:
    PackedStrandPoolBuilder() = default;
    ~PackedStrandPoolBuilder();

    PackedStrandPoolBuilder(const PackedStrandPoolBuilder &) = delete;
    PackedStrandPoolBuilder &
    operator=(const PackedStrandPoolBuilder &) = delete;

    /**
     * Start building the pool that finish() will publish at
     * @p path. Creates parent directories. Returns false (setting
     * @p error when non-null) if the side files cannot be created.
     */
    bool open(const std::string &path, std::string *error = nullptr);

    bool isOpen() const { return open_; }

    /**
     * Append one strand. Returns false — appending nothing — when
     * @p strand contains a non-ACGT character; the caller decides
     * whether skipping is acceptable. Empty strands are valid.
     */
    bool append(std::string_view strand);

    /** Strands appended so far. */
    size_t count() const { return static_cast<size_t>(count_); }

    uint64_t totalBases() const { return total_bases_; }

    /**
     * Assemble and atomically publish the pool file. Returns false
     * (setting @p error when non-null) on I/O failure, in which case
     * no file appears at the target path. The builder is closed
     * either way.
     */
    bool finish(std::string *error = nullptr);

    /** Discard everything written so far and remove side files. */
    void abort();

  private:
    std::string path_;
    std::ofstream index_out_;
    std::ofstream arena_out_;
    std::vector<uint64_t> scratch_;
    uint64_t count_ = 0;
    uint64_t arena_words_ = 0;
    uint64_t total_bases_ = 0;
    bool open_ = false;
};

/**
 * A uniform, read-only view over strands held either in RAM
 * (std::vector<Strand>) or in an mmap-backed pool. Pipelines take a
 * view plus per-thread scratch, so the in-RAM path stays zero-copy
 * while the pool path materializes only the strand under the cursor.
 * The view does not own its backing store; keep it alive.
 */
class StrandPoolView
{
  public:
    StrandPoolView() = default;

    explicit StrandPoolView(const std::vector<Strand> &reads)
        : vec_(&reads)
    {
    }

    explicit StrandPoolView(const PackedStrandPool &pool)
        : pool_(&pool)
    {
    }

    size_t size() const
    {
        const size_t n = vec_ != nullptr   ? vec_->size()
                         : pool_ != nullptr ? pool_->size()
                                            : 0;
        return limit_ < n ? limit_ : n;
    }

    bool empty() const { return size() == 0; }

    /**
     * Restrict the view to the first @p max_reads strands (0 = no
     * limit). A cheap prefix subsample — the backing store is
     * untouched; only size() shrinks.
     */
    void truncate(size_t max_reads)
    {
        limit_ = max_reads == 0 ? SIZE_MAX : max_reads;
    }

    /** True when backed by an mmap pool (strands are packed). */
    bool poolBacked() const { return pool_ != nullptr; }

    size_t length(size_t i) const
    {
        return vec_ != nullptr ? (*vec_)[i].size()
                               : pool_->length(i);
    }

    /**
     * The characters of strand @p i. Vector-backed views return a
     * zero-copy string_view; pool-backed views unpack into
     * @p scratch and return a view of it (invalidated by the next
     * pool-backed chars() call on the same scratch).
     */
    std::string_view chars(size_t i, Strand &scratch) const
    {
        if (vec_ != nullptr)
            return (*vec_)[i];
        pool_->unpackInto(i, scratch);
        return scratch;
    }

    /**
     * Copy strand @p i into @p out (resized; storage reused) — for
     * callers that need a real Strand rather than a view.
     */
    void materialize(size_t i, Strand &out) const
    {
        if (vec_ != nullptr)
            out = (*vec_)[i];
        else
            pool_->unpackInto(i, out);
    }

    /**
     * The packed words of strand @p i. Pool-backed views return the
     * arena span directly; vector-backed views pack into @p scratch.
     * Returns false for a vector-backed strand with non-ACGT
     * characters (pool strands are valid by construction).
     */
    bool packed(size_t i, std::vector<uint64_t> &scratch,
                std::span<const uint64_t> &words, size_t &len) const
    {
        if (pool_ != nullptr) {
            words = pool_->words(i);
            len = pool_->length(i);
            return true;
        }
        if (!packWordsInto((*vec_)[i], scratch))
            return false;
        len = (*vec_)[i].size();
        words = scratch;
        return true;
    }

  private:
    const std::vector<Strand> *vec_ = nullptr;
    const PackedStrandPool *pool_ = nullptr;
    size_t limit_ = SIZE_MAX;
};

/** Input formats understood by ingestToPool(). */
enum class IngestFormat
{
    Auto,  ///< sniff: evyat separator > FASTA '>' > plain lines
    Lines, ///< one strand per non-empty line
    Fasta, ///< '>' headers; sequence lines concatenated per record
    Evyat, ///< clustered dataset; copies ingested, references skipped
};

struct IngestOptions
{
    IngestFormat format = IngestFormat::Auto;
    /** Stop after this many ingested reads (0 = unlimited). */
    size_t max_reads = 0;
    /**
     * Evyat input only: write one little-endian u32 per ingested
     * read — the 0-based cluster index it came from — to this path
     * (atomically). Enables ground-truth purity scoring on pools.
     */
    std::string origins_path;
};

struct IngestResult
{
    size_t reads = 0;        ///< strands appended to the pool
    size_t skipped = 0;      ///< dropped: non-ACGT characters
    size_t clusters = 0;     ///< evyat only: clusters seen
    uint64_t total_bases = 0;
};

/**
 * Resolve IngestFormat::Auto for the file at @p path by peeking at
 * its first two non-empty lines ('>' header → Fasta, all-'*' second
 * line → Evyat, otherwise Lines). Never returns Auto.
 */
IngestFormat sniffIngestFormat(const std::string &path);

/** Stable lowercase name of an ingest format. */
const char *ingestFormatName(IngestFormat format);

/**
 * Stream the text input at @p input_path into a pool file at
 * @p pool_path in bounded memory. Returns false (setting @p error
 * when non-null) on I/O failure or malformed input; no pool file is
 * published in that case.
 */
bool ingestToPool(const std::string &input_path,
                  const std::string &pool_path,
                  const IngestOptions &options, IngestResult &result,
                  std::string *error = nullptr);

} // namespace dnasim

#endif // DNASIM_BASE_STRAND_POOL_HH

/**
 * @file
 * MinHash k-mer sketch index for sub-quadratic read clustering.
 *
 * The greedy clusterer's first probe tier — the anchor-prefix bucket
 * — only finds a read's cluster while the prefix survived the
 * channel. A linear scan over the most recently opened clusters as
 * the fallback would cost O(max_probes) edit-distance kernels per
 * read and stop finding anything once the true cluster is older
 * than the scan window, so clustering cost would grow as reads x
 * probes while recall decays with pool size.
 *
 * The sketch index is the fallback instead:
 * clustering-by-signature (Rashtchian et al. [18] style): every read
 * gets a MinHash signature over its k-mers, the signature is cut
 * into bands (classic banded LSH), and each band key maps to the
 * clusters whose representative shares it. Candidate clusters are
 * then the band collisions of the read, ranked by collision count —
 * a near-constant number of targeted probes per read instead of a
 * blind scan, each still verified by the caller with the exact
 * edit-distance gate, so placements remain distance-gated and the
 * index can only *propose*, never mis-place.
 *
 * Two hot-path choices keep the index cheaper than the probes it
 * saves. Signatures use one-permutation MinHash: a single hash per
 * k-mer whose high bits pick the signature slot and whose remixed
 * value competes for that slot's minimum, with rotation
 * densification for empty slots — O(1) work per k-mer instead of one
 * multiply per hash function. Band buckets live in a single
 * open-addressed table (band index is folded into the key) with the
 * per-bucket cluster ids in a shared chained pool, so a probe is a
 * handful of flat-array touches instead of node-based map traffic.
 *
 * Determinism: signatures are a pure function of the read bytes and
 * the sketch seed. The per-read signature pass runs through the
 * order-preserving par layer (one output slot per read index), band
 * maps are only mutated by the serial placement loop, and candidate
 * ranking breaks ties by cluster id — so the clustering is
 * byte-identical at any --threads value.
 *
 * K-mers are extracted word-wise from the 2-bit packed form
 * (base/packed.hh forEachPackedKmer); the character strand is never
 * re-scanned.
 */

#ifndef DNASIM_CLUSTER_SKETCH_INDEX_HH
#define DNASIM_CLUSTER_SKETCH_INDEX_HH

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "base/dna.hh"
#include "base/strand_pool.hh"

namespace dnasim
{

/** MinHash / LSH parameters of the sketch index. */
struct SketchOptions
{
    /// Signature-width cap: num_bands * rows_per_band one-permutation
    /// slots are tracked in a stack array of this size.
    static constexpr size_t kMaxHashes = 64;

    /// K-mer length in bases (1..32; codes are 2k-bit packed words).
    size_t kmer_length = 10;
    /// Number of LSH bands; each band is one bucket lookup per read.
    size_t num_bands = 16;
    /// MinHash rows hashed into one band key. Higher = fewer false
    /// candidates, lower recall per band.
    size_t rows_per_band = 2;
    /// Seed of the MinHash hash family (part of the clustering's
    /// deterministic identity, not a run-time random value).
    uint64_t seed = 0x5ee'dc0de;
};

/**
 * Epoch-stamped membership marks over dense ids [0, n). Replaces a
 * per-item std::find / clear() with O(1) stamps: begin() opens a new
 * epoch, test()/set() compare-or-write the current epoch. Used by
 * the clusterer to dedup candidate ids across probe tiers without
 * rescanning the candidate list.
 */
class EpochSeen
{
  public:
    /** Start a fresh epoch covering ids [0, n). */
    void
    begin(size_t n)
    {
        if (stamp_.size() < n)
            stamp_.resize(n, 0);
        ++epoch_;
    }

    bool test(size_t id) const { return stamp_[id] == epoch_; }

    void set(size_t id) { stamp_[id] = epoch_; }

    /** True if already seen this epoch; marks it seen either way. */
    bool
    testAndSet(size_t id)
    {
        if (stamp_[id] == epoch_)
            return true;
        stamp_[id] = epoch_;
        return false;
    }

  private:
    std::vector<uint64_t> stamp_;
    uint64_t epoch_ = 0;
};

/** Probe-side event counts, flushed to cluster.sketch.* stats. */
struct SketchCounters
{
    uint64_t bands_probed = 0;  ///< band-bucket lookups
    uint64_t collisions = 0;    ///< cluster ids scanned in hit buckets
    uint64_t candidates = 0;    ///< deduped candidates emitted
    uint64_t empty_signatures = 0; ///< reads with no sketchable k-mer
};

/**
 * The per-pool sketch index: signatures for every read (built once,
 * in parallel), and band-keyed buckets over the clusters opened so
 * far. The placement loop interleaves addCluster() (a read became a
 * representative) with appendCandidates() (rank this read's band
 * collisions); both are serial-loop operations.
 */
class SketchIndex
{
  public:
    /**
     * Compute signatures for every read of @p reads. Parallel over
     * reads through the order-preserving par layer; byte-identical
     * results at any thread count.
     */
    SketchIndex(const std::vector<Strand> &reads,
                const SketchOptions &options);

    /**
     * Same, over reads [offset, offset + count) of a pool view —
     * the shard-building path of the out-of-core clusterer. Read
     * indices passed to the other members are *local* to the range
     * (0 .. count). Pool-backed views sketch straight from the
     * mmap'd packed words; the character form is never materialized.
     */
    SketchIndex(const StrandPoolView &view, size_t offset,
                size_t count, const SketchOptions &options);

    const SketchOptions &options() const { return opts_; }

    /** False for reads with no k-mer (short or non-ACGT content). */
    bool
    hasSignature(size_t read_index) const
    {
        return has_sig_[read_index] != 0;
    }

    /** Index read @p read_index as the representative of @p cluster_id.
     *  Ids must be dense and increasing (the clusterer's invariant). */
    void addCluster(size_t read_index, size_t cluster_id);

    /**
     * Append candidate cluster ids for @p read_index to @p out:
     * every indexed cluster sharing at least one band key, ranked by
     * (collision count desc, cluster id asc), skipping ids already
     * marked in @p seen (and marking emitted ones), until @p out
     * reaches @p max_total entries.
     */
    void appendCandidates(size_t read_index, EpochSeen &seen,
                          size_t max_total, std::vector<size_t> &out);

    const SketchCounters &counters() const { return counters_; }

  private:
    /// Compute the num_bands band keys of @p read into @p out.
    /// False (out untouched) if the read has no sketchable k-mer.
    bool signatureInto(std::string_view read, uint64_t *out) const;

    /// Same, from an already 2-bit packed strand of @p len bases.
    bool signatureFromWords(std::span<const uint64_t> words,
                            size_t len, uint64_t *out) const;

    /// Shared ctor body: validate options, sketch the range, size
    /// the bucket table.
    void build(const StrandPoolView &view, size_t offset,
               size_t count);

    /// Slot holding @p key, or the empty slot where it belongs.
    size_t findSlot(uint64_t key) const;
    /// Double the open-addressing table and rehash every key.
    void growTable();

    SketchOptions opts_;
    /// Per-read band keys, num_bands per read, flat; valid iff the
    /// read's has_sig_ flag is set.
    std::vector<uint64_t> flat_keys_;
    std::vector<uint8_t> has_sig_;

    /// Open-addressed bucket table over all bands (the band index is
    /// folded into the key, key 0 = empty slot). A slot heads a chain
    /// of cluster ids in the shared node pool below; key and head
    /// share a 16-byte slot so a band probe costs one cache line.
    struct Slot
    {
        uint64_t key = 0;
        uint32_t head = 0;
        uint32_t pad = 0;
    };
    std::vector<Slot> table_;
    size_t table_mask_ = 0;
    size_t table_used_ = 0;
    std::vector<uint32_t> node_id_;
    std::vector<uint32_t> node_next_;

    /// Collision-ranking scratch, epoch-stamped per appendCandidates.
    std::vector<uint32_t> hits_;
    std::vector<uint64_t> hit_epoch_;
    uint64_t probe_epoch_ = 0;
    std::vector<uint32_t> touched_;

    SketchCounters counters_;
};

} // namespace dnasim

#endif // DNASIM_CLUSTER_SKETCH_INDEX_HH

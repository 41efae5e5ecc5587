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
 * order-preserving par layer (one output slot per read index).
 * Clusters are indexed in two steps: addCluster() stages a cluster
 * in a small table of its own, and publish() moves the staged
 * clusters into the main table in id order. The clusterer publishes
 * at the end of each block of reads, so while a block's reads rank
 * their candidates in parallel against the published table, nothing
 * writes to it. Ranking is const and breaks hit-count ties by
 * cluster id, so the clustering is byte-identical at any --threads
 * value.
 *
 * K-mers are extracted word-wise from the 2-bit packed form
 * (base/packed.hh forEachPackedKmer); the character strand is never
 * re-scanned.
 */

#ifndef DNASIM_CLUSTER_SKETCH_INDEX_HH
#define DNASIM_CLUSTER_SKETCH_INDEX_HH

#include <cstdint>
#include <span>
#include <utility>
#include <vector>

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

/** A candidate cluster and how many band keys it shares with a read. */
struct SketchCandidate
{
    uint32_t id = 0;
    uint32_t hits = 0;
};

/**
 * The sketch tier's probe order: more shared band keys first, ties to
 * the older cluster. A total, thread-independent order — greedy
 * semantics pick the first accepted candidate, so the order *is* the
 * clustering.
 */
inline bool
rankedBefore(const SketchCandidate &a, const SketchCandidate &b)
{
    return a.hits != b.hits ? a.hits > b.hits : a.id < b.id;
}

/**
 * Band key -> cluster ids: one open-addressed table over all bands
 * (the band index is folded into the key) whose slots head chains of
 * cluster ids in a shared node pool; key and head share a 16-byte
 * slot, so a band probe costs one cache line. A slot is live while
 * it carries the table's generation, which makes clear() O(1).
 */
class BandTable
{
  public:
    BandTable();

    /** Append @p id to the chain of @p key. */
    void add(uint64_t key, uint32_t id);

    /** Every id added under @p key since the last clear(). */
    template <typename Fn>
    void
    forEach(uint64_t key, Fn &&fn) const
    {
        const Slot &slot = slots_[findSlot(key)];
        if (slot.gen != gen_)
            return;
        for (uint32_t n = slot.head; n != kNoNode; n = next_[n])
            fn(ids_[n]);
    }

    /** Start loading the slot @p key hashes to. */
    void
    prefetch(uint64_t key) const
    {
        __builtin_prefetch(&slots_[static_cast<size_t>(key) & mask_]);
    }

    /** Drop every key; the slot array keeps its size. */
    void clear();

  private:
    static constexpr uint32_t kNoNode = 0xffffffffu;

    struct Slot
    {
        uint64_t key = 0;
        uint32_t head = kNoNode;
        uint32_t gen = 0;
    };

    /// Slot holding @p key, or the free slot where it belongs.
    size_t
    findSlot(uint64_t key) const
    {
        size_t slot = static_cast<size_t>(key) & mask_;
        while (slots_[slot].gen == gen_ && slots_[slot].key != key)
            slot = (slot + 1) & mask_;
        return slot;
    }

    /// Double the slot array and rehash every live key.
    void grow();

    std::vector<Slot> slots_;
    size_t mask_ = 0;
    size_t used_ = 0;
    uint32_t gen_ = 1;
    std::vector<uint32_t> ids_;
    std::vector<uint32_t> next_;
};

/**
 * The per-pool sketch index: signatures for every read (built once,
 * in parallel), and band-keyed buckets over the clusters indexed so
 * far — published ones, and staged ones that only the serial side of
 * the clusterer sees until publish().
 */
class SketchIndex
{
  public:
    /**
     * Compute signatures for reads [offset, offset + count) of a
     * pool view, in parallel through the order-preserving par layer
     * (byte-identical at any thread count). Read indices passed to
     * the other members are *local* to the range (0 .. count).
     * Pool-backed views sketch straight from the mmap'd packed
     * words; the character form is never materialized.
     */
    SketchIndex(const StrandPoolView &view, size_t offset, size_t count,
                const SketchOptions &options);

    /** False for reads shorter than the k-mer (no signature). */
    bool
    hasSignature(size_t read_index) const
    {
        return has_sig_[read_index] != 0;
    }

    /** The num_bands band keys of a read with a signature. */
    std::span<const uint64_t>
    bandKeys(size_t read_index) const
    {
        return {flat_keys_.data() + read_index * opts_.num_bands,
                opts_.num_bands};
    }

    /** Reads with no sketchable k-mer. */
    uint64_t emptySignatures() const { return empty_signatures_; }

    /** Stage read @p read_index as the representative of
     *  @p cluster_id. Ids must be dense and increasing. */
    void addCluster(size_t read_index, size_t cluster_id);

    /** Move the staged clusters into the published table, in id
     *  order. */
    void publish();

    /** Which clusters rankCandidates() looks at. */
    enum class Clusters
    {
        Published,
        Staged,
    };

    /**
     * Rank the @p which clusters that share at least one band key
     * with read @p read_index into @p out: by hit count descending,
     * then cluster id ascending, skipping the ids in @p exclude
     * (ascending), cut at @p max_total. Returns the collisions
     * scanned (every id in every matching band chain; 0 for a read
     * without a signature or a zero budget). Const: safe to call
     * from many threads while nothing stages or publishes.
     * @p scratch is reused storage.
     */
    size_t rankCandidates(Clusters which, size_t read_index,
                          std::span<const size_t> exclude,
                          size_t max_total,
                          std::vector<SketchCandidate> &out,
                          std::vector<uint32_t> &scratch) const;

  private:
    /// Compute the num_bands band keys of a 2-bit packed strand of
    /// @p len bases into @p out. False (out untouched) if it has no
    /// sketchable k-mer.
    bool signatureFromWords(std::span<const uint64_t> words,
                            size_t len, uint64_t *out) const;

    SketchOptions opts_;
    /// Per-read band keys, num_bands per read, flat; valid iff the
    /// read's has_sig_ flag is set.
    std::vector<uint64_t> flat_keys_;
    std::vector<uint8_t> has_sig_;
    uint64_t empty_signatures_ = 0;

    BandTable published_;
    BandTable staged_;
    /// (read index, cluster id) of every staged cluster, in id order.
    std::vector<std::pair<uint32_t, uint32_t>> staged_clusters_;
};

} // namespace dnasim

#endif // DNASIM_CLUSTER_SKETCH_INDEX_HH

#include "cluster/sketch_index.hh"

#include <algorithm>
#include <array>

#include "base/logging.hh"
#include "base/packed.hh"
#include "obs/trace.hh"
#include "par/thread_pool.hh"

namespace dnasim
{

namespace
{

/** splitmix64 finalizer: the k-mer hash and the densification mix. */
inline uint64_t
mix64(uint64_t x)
{
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    x *= 0xc4ceb9fe1a85ec53ULL;
    x ^= x >> 33;
    return x;
}

constexpr size_t kMaxHashes = SketchOptions::kMaxHashes;

/** Chain terminator in the cluster-id node pool. */
constexpr uint32_t kNoNode = 0xffffffffu;

} // anonymous namespace

SketchIndex::SketchIndex(const std::vector<Strand> &reads,
                         const SketchOptions &options)
    : opts_(options)
{
    build(StrandPoolView(reads), 0, reads.size());
}

SketchIndex::SketchIndex(const StrandPoolView &view, size_t offset,
                         size_t count, const SketchOptions &options)
    : opts_(options)
{
    build(view, offset, count);
}

void
SketchIndex::build(const StrandPoolView &view, size_t offset,
                   size_t count)
{
    DNASIM_ASSERT(opts_.kmer_length >= 1 &&
                      opts_.kmer_length <= PackedStrand::kBasesPerWord,
                  "sketch k-mer length out of [1, 32]");
    DNASIM_ASSERT(opts_.num_bands >= 1 && opts_.rows_per_band >= 1,
                  "sketch needs at least one band and one row");
    // The product can wrap; the quotient cannot.
    DNASIM_ASSERT(opts_.num_bands <= kMaxHashes / opts_.rows_per_band,
                  "sketch signature wider than ", kMaxHashes);
    DNASIM_ASSERT(offset + count <= view.size(),
                  "sketch range out of pool bounds");

    {
        obs::Span span("cluster.sketch.signatures", "cluster");
        // Per-read signatures through the order-preserving par
        // layer: every read writes its own index-determined slots of
        // the flat key array, so the result is byte-identical at any
        // thread count and the probe loop later touches one
        // contiguous stretch per read instead of a heap vector per
        // signature. Pool-backed views hand the mmap'd packed words
        // to the sketcher directly; vector-backed reads pack into a
        // reused per-thread arena first.
        flat_keys_.assign(count * opts_.num_bands, 0);
        has_sig_.assign(count, 0);
        par::parallelFor(
            0, count,
            [&](size_t i) {
                thread_local std::vector<uint64_t> scratch;
                std::span<const uint64_t> words;
                size_t len = 0;
                if (view.packed(offset + i, scratch, words, len) &&
                    signatureFromWords(words, len,
                                       flat_keys_.data() +
                                           i * opts_.num_bands))
                    has_sig_[i] = 1;
            },
            /*grain=*/16);
        for (size_t i = 0; i < count; ++i)
            if (!has_sig_[i])
                ++counters_.empty_signatures;
    }

    // Start the bucket table at a modest power of two; it doubles as
    // clusters are indexed.
    table_.assign(1024, Slot{0, kNoNode, 0});
    table_mask_ = table_.size() - 1;
}

bool
SketchIndex::signatureInto(std::string_view read, uint64_t *out) const
{
    // Pack into a reused per-thread arena; a non-ACGT read (none in
    // simulator output, possible in external pools) simply goes
    // unsketched and relies on the anchor tier.
    thread_local std::vector<uint64_t> words;
    size_t len = 0;
    if (!packWordsInto(read, read.size(), words, &len))
        return false;
    return signatureFromWords({words.data(),
                               PackedStrand::numWords(len)},
                              len, out);
}

bool
SketchIndex::signatureFromWords(std::span<const uint64_t> words,
                                size_t len, uint64_t *out) const
{
    if (len < opts_.kmer_length)
        return false;

    // One-permutation MinHash: one hash g per k-mer; its high bits
    // (multiplicative range reduction) pick the slot, a remix of g —
    // decorrelated from the slot-selecting bits — competes for the
    // slot minimum. O(1) per k-mer where classic MinHash pays one
    // multiply per hash function.
    const size_t slots = opts_.num_bands * opts_.rows_per_band;
    std::array<uint64_t, kMaxHashes> minh;
    minh.fill(~uint64_t{0});
    forEachPackedKmer(
        words, len, opts_.kmer_length, [&](uint64_t code) {
            const uint64_t g = mix64(code + opts_.seed);
            const size_t slot = static_cast<size_t>(
                (static_cast<unsigned __int128>(g) * slots) >> 64);
            const uint64_t v = mix64(g);
            if (v < minh[slot])
                minh[slot] = v;
        });

    // Rotation densification: an empty slot borrows the value of the
    // next occupied slot (cyclically), remixed with its own index so
    // two reads only agree on a borrowed slot when they agree on the
    // source minimum and the rotation distance.
    std::array<bool, kMaxHashes> occupied;
    for (size_t j = 0; j < slots; ++j)
        occupied[j] = minh[j] != ~uint64_t{0};
    for (size_t j = 0; j < slots; ++j) {
        if (occupied[j])
            continue;
        for (size_t t = 1; t < slots; ++t) {
            const size_t src = (j + t) % slots;
            if (occupied[src]) {
                minh[j] = mix64(minh[src] +
                                0x9e3779b97f4a7c15ULL * (j + 1));
                break;
            }
        }
    }

    // Fold each band's rows into one 64-bit band key; the band index
    // seeds the fold so the same rows in different bands cannot
    // alias, letting all bands share one bucket table. Key 0 is the
    // table's empty sentinel — remap the (1 in 2^64) collision.
    for (size_t b = 0; b < opts_.num_bands; ++b) {
        uint64_t key = 0x100001b3u + b;
        for (size_t r = 0; r < opts_.rows_per_band; ++r)
            key = mix64(key ^ minh[b * opts_.rows_per_band + r]);
        out[b] = key == 0 ? 1 : key;
    }
    return true;
}

size_t
SketchIndex::findSlot(uint64_t key) const
{
    size_t slot = static_cast<size_t>(key) & table_mask_;
    while (table_[slot].key != 0 && table_[slot].key != key)
        slot = (slot + 1) & table_mask_;
    return slot;
}

void
SketchIndex::growTable()
{
    std::vector<Slot> old = std::move(table_);
    table_.assign(old.size() * 2, Slot{0, kNoNode, 0});
    table_mask_ = table_.size() - 1;
    for (const Slot &s : old) {
        if (s.key == 0)
            continue;
        table_[findSlot(s.key)] = s;
    }
}

void
SketchIndex::addCluster(size_t read_index, size_t cluster_id)
{
    if (hits_.size() <= cluster_id) {
        hits_.resize(cluster_id + 1, 0);
        hit_epoch_.resize(cluster_id + 1, 0);
    }
    if (!has_sig_[read_index])
        return;
    const uint64_t *keys =
        flat_keys_.data() + read_index * opts_.num_bands;
    // The per-band slots are independent random accesses into a
    // table much larger than cache; issuing them all up front
    // overlaps the misses instead of serializing them.
    for (size_t b = 0; b < opts_.num_bands; ++b)
        __builtin_prefetch(
            &table_[static_cast<size_t>(keys[b]) & table_mask_]);
    for (size_t b = 0; b < opts_.num_bands; ++b) {
        size_t slot = findSlot(keys[b]);
        if (table_[slot].key == 0) {
            table_[slot].key = keys[b];
            table_[slot].head = kNoNode;
            ++table_used_;
            if (table_used_ * 3 > table_.size() * 2) {
                growTable();
                slot = findSlot(keys[b]);
            }
        }
        node_id_.push_back(static_cast<uint32_t>(cluster_id));
        node_next_.push_back(table_[slot].head);
        table_[slot].head = static_cast<uint32_t>(node_id_.size() - 1);
    }
}

void
SketchIndex::appendCandidates(size_t read_index, EpochSeen &seen,
                              size_t max_total,
                              std::vector<size_t> &out)
{
    if (!has_sig_[read_index] || out.size() >= max_total)
        return;
    const uint64_t *keys =
        flat_keys_.data() + read_index * opts_.num_bands;

    ++probe_epoch_;
    touched_.clear();
    // Overlap the independent per-band table misses (see
    // addCluster); the chain walks behind them are usually empty.
    for (size_t b = 0; b < opts_.num_bands; ++b)
        __builtin_prefetch(
            &table_[static_cast<size_t>(keys[b]) & table_mask_]);
    for (size_t b = 0; b < opts_.num_bands; ++b) {
        ++counters_.bands_probed;
        const size_t slot = findSlot(keys[b]);
        if (table_[slot].key == 0)
            continue;
        for (uint32_t n = table_[slot].head; n != kNoNode;
             n = node_next_[n]) {
            const uint32_t id = node_id_[n];
            ++counters_.collisions;
            if (hit_epoch_[id] != probe_epoch_) {
                hit_epoch_[id] = probe_epoch_;
                hits_[id] = 1;
                touched_.push_back(id);
            } else {
                ++hits_[id];
            }
        }
    }

    // Rank by collision count, ties to the older cluster: a stable,
    // thread-independent order (greedy semantics pick the first
    // accepted candidate, so the order *is* the clustering).
    std::sort(touched_.begin(), touched_.end(),
              [&](uint32_t a, uint32_t b) {
                  if (hits_[a] != hits_[b])
                      return hits_[a] > hits_[b];
                  return a < b;
              });
    for (uint32_t id : touched_) {
        if (out.size() >= max_total)
            break;
        if (seen.testAndSet(id))
            continue;
        out.push_back(id);
        ++counters_.candidates;
    }
}

} // namespace dnasim

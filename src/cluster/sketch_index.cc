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

} // anonymous namespace

BandTable::BandTable() : slots_(1024), mask_(slots_.size() - 1) {}

void
BandTable::add(uint64_t key, uint32_t id)
{
    size_t slot = findSlot(key);
    if (slots_[slot].gen != gen_) {
        slots_[slot] = Slot{key, kNoNode, gen_};
        ++used_;
        if (used_ * 3 > slots_.size() * 2) {
            grow();
            slot = findSlot(key);
        }
    }
    ids_.push_back(id);
    next_.push_back(slots_[slot].head);
    slots_[slot].head = static_cast<uint32_t>(ids_.size() - 1);
}

void
BandTable::grow()
{
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot{});
    mask_ = slots_.size() - 1;
    for (const Slot &s : old)
        if (s.gen == gen_)
            slots_[findSlot(s.key)] = s;
}

void
BandTable::clear()
{
    used_ = 0;
    ids_.clear();
    next_.clear();
    // A wrapped generation would revive slots stamped 2^32 clears
    // ago; start over from blank slots instead.
    if (++gen_ == 0) {
        slots_.assign(slots_.size(), Slot{});
        gen_ = 1;
    }
}

SketchIndex::SketchIndex(const StrandPoolView &view, size_t offset,
                         size_t count, const SketchOptions &options)
    : opts_(options)
{
    DNASIM_ASSERT(opts_.kmer_length >= 1 &&
                      opts_.kmer_length <= kBasesPerWord,
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
                ++empty_signatures_;
    }
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
    // alias, letting all bands share one bucket table.
    for (size_t b = 0; b < opts_.num_bands; ++b) {
        uint64_t key = 0x100001b3u + b;
        for (size_t r = 0; r < opts_.rows_per_band; ++r)
            key = mix64(key ^ minh[b * opts_.rows_per_band + r]);
        out[b] = key;
    }
    return true;
}

void
SketchIndex::addCluster(size_t read_index, size_t cluster_id)
{
    if (!has_sig_[read_index])
        return;
    for (uint64_t key : bandKeys(read_index))
        staged_.add(key, static_cast<uint32_t>(cluster_id));
    staged_clusters_.emplace_back(static_cast<uint32_t>(read_index),
                                  static_cast<uint32_t>(cluster_id));
}

void
SketchIndex::publish()
{
    for (const auto &[read_index, cluster_id] : staged_clusters_) {
        const std::span<const uint64_t> keys = bandKeys(read_index);
        // The per-band slots are independent random accesses into a
        // table much larger than cache; issuing them all up front
        // overlaps the misses instead of serializing them.
        for (uint64_t key : keys)
            published_.prefetch(key);
        for (uint64_t key : keys)
            published_.add(key, cluster_id);
    }
    staged_.clear();
    staged_clusters_.clear();
}

size_t
SketchIndex::rankCandidates(Clusters which, size_t read_index,
                            std::span<const size_t> exclude,
                            size_t max_total,
                            std::vector<SketchCandidate> &out,
                            std::vector<uint32_t> &scratch) const
{
    out.clear();
    if (!has_sig_[read_index] || max_total == 0)
        return 0;
    const BandTable &table =
        which == Clusters::Published ? published_ : staged_;
    const std::span<const uint64_t> keys = bandKeys(read_index);
    // Overlap the independent per-band table misses (see publish);
    // the chain walks behind them are usually empty.
    for (uint64_t key : keys)
        table.prefetch(key);
    scratch.clear();
    for (uint64_t key : keys)
        table.forEach(key, [&](uint32_t id) { scratch.push_back(id); });

    // One candidate per distinct id, its hits the length of its run
    // in the sorted collisions; the excluded ids go in the same
    // ascending walk.
    std::sort(scratch.begin(), scratch.end());
    size_t e = 0;
    for (size_t lo = 0; lo < scratch.size();) {
        size_t hi = lo + 1;
        while (hi < scratch.size() && scratch[hi] == scratch[lo])
            ++hi;
        while (e < exclude.size() && exclude[e] < scratch[lo])
            ++e;
        if (e == exclude.size() || exclude[e] != scratch[lo])
            out.push_back({scratch[lo], static_cast<uint32_t>(hi - lo)});
        lo = hi;
    }

    if (out.size() > max_total) {
        std::partial_sort(out.begin(),
                          out.begin() + static_cast<ptrdiff_t>(max_total),
                          out.end(), rankedBefore);
        out.resize(max_total);
    } else {
        std::sort(out.begin(), out.end(), rankedBefore);
    }
    return scratch.size();
}

} // namespace dnasim

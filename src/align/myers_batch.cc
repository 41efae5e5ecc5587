#include "align/myers_batch.hh"

#include <algorithm>
#include <cstring>
#include <limits>

#include "align/myers_batch_impl.hh"
#include "align/pattern_access.hh"
#include "align/simd_dispatch.hh"
#include "base/logging.hh"
#include "base/packed.hh"
#include "obs/stats.hh"

namespace dnasim
{

namespace
{

using align_detail::BatchState;
using align_detail::PatternAccess;

/// Widest lane count any kernel uses (AVX-512).
constexpr size_t kMaxLanes = 8;

/// Rows of the padded Peq table: the four bases plus the all-zero
/// pad row indexed by kLaneMajorPadCode.
constexpr size_t kPeqRows = kLaneMajorPadCode + 1;

/// Early-abandon bound cap: far above any real distance (score is
/// at most m + n), far below signed-64 overflow.
constexpr int64_t kLimitCap = std::numeric_limits<int64_t>::max() / 4;

struct BatchStats
{
    obs::Counter &batches;
    obs::Counter &lanes_filled;
    obs::Counter &scalar_tail;
    obs::Counter &allocs;

    static BatchStats &
    get()
    {
        auto &reg = obs::Registry::global();
        static BatchStats bs{
            reg.counter("align.simd.batches",
                        "vector batch-kernel invocations"),
            reg.counter("align.simd.lanes_filled",
                        "SIMD lanes carrying a real text across batch "
                        "invocations (occupancy = lanes_filled / "
                        "(batches * lane width))"),
            reg.counter("align.simd.scalar_tail",
                        "batch-API texts served by the scalar kernel "
                        "(scalar tier, empty pattern, or single-text "
                        "groups)"),
            reg.counter("align.batch.allocs",
                        "batch-scratch (re)allocations; zero in steady "
                        "state once thread-local capacity has grown"),
        };
        return bs;
    }
};

/**
 * Thread-local batch scratch (PR-4 allocation discipline): all
 * buffers grow to the working-set high-water mark and are then
 * reused allocation-free; align.batch.allocs counts every growth.
 */
struct BatchScratch
{
    std::vector<uint64_t> peq;   ///< kPeqRows x blocks padded table
    std::vector<uint8_t> codes;  ///< max_n x lanes lane-major codes
    std::vector<uint64_t> pv;    ///< blocks x lanes kernel scratch
    std::vector<uint64_t> mv;    ///< blocks x lanes kernel scratch
};

template <typename T>
void
ensureSize(std::vector<T> &v, size_t need, obs::Counter &allocs)
{
    if (v.capacity() < need)
        allocs.inc();
    v.resize(need);
}

BatchScratch &
batchScratch()
{
    thread_local BatchScratch scratch;
    return scratch;
}

#ifdef DNASIM_X86_SIMD_KERNELS

using KernelFn = void (*)(const BatchState &);

/// Dispatch table indexed by SimdTier; the scalar tier never
/// reaches the kernels.
constexpr KernelFn kKernels[] = {
    nullptr,
    &align_detail::runBatchAvx2,
    &align_detail::runBatchAvx512,
};

/**
 * Run one lane group (<= W texts) through the vector kernel.
 * Lanes the scalar kernel would resolve before its main loop —
 * empty texts (distance m + n) and length gaps beyond the limit
 * (certified lower bound) — are resolved here with the same values
 * and enter the kernel pre-done, as do idle lanes of a partial
 * group.
 */
void
runGroup(SimdTier tier, size_t lanes, const MyersPattern &pattern,
         std::span<const std::string_view> texts, size_t limit,
         std::span<size_t> out, BatchScratch &scratch)
{
    auto &bs = BatchStats::get();
    const size_t m = pattern.size();

    int64_t n[kMaxLanes];
    uint64_t result[kMaxLanes];
    uint8_t done[kMaxLanes];
    size_t live = 0;
    size_t max_n = 0;
    for (size_t l = 0; l < lanes; ++l) {
        n[l] = 0;
        result[l] = 0;
        done[l] = 1;
        if (l >= texts.size())
            continue;
        const size_t len = texts[l].size();
        const size_t diff = m > len ? m - len : len - m;
        if (len == 0) {
            result[l] = m;
        } else if (diff > limit) {
            result[l] = diff;
        } else {
            n[l] = static_cast<int64_t>(len);
            done[l] = 0;
            ++live;
            max_n = std::max(max_n, len);
        }
    }
    if (live > 0) {
        const size_t blocks = PatternAccess::blocks(pattern);
        const auto peq = PatternAccess::peq(pattern);
        ensureSize(scratch.peq, kPeqRows * blocks, bs.allocs);
        std::copy(peq.begin(), peq.end(), scratch.peq.begin());
        std::fill(scratch.peq.begin() + peq.size(), scratch.peq.end(),
                  0);
        if (scratch.codes.capacity() < max_n * lanes)
            bs.allocs.inc();
        packLaneMajorCodes(texts, lanes, max_n, scratch.codes);
        ensureSize(scratch.pv, blocks * lanes, bs.allocs);
        ensureSize(scratch.mv, blocks * lanes, bs.allocs);

        BatchState st;
        st.peq = scratch.peq.data();
        st.blocks = blocks;
        st.final_row = uint64_t{1} << ((m - 1) % 64);
        st.m = static_cast<int64_t>(m);
        st.codes = scratch.codes.data();
        st.max_n = max_n;
        st.n = n;
        st.limit = limit > static_cast<size_t>(kLimitCap)
                       ? kLimitCap
                       : static_cast<int64_t>(limit);
        st.result = result;
        st.done = done;
        st.pv = scratch.pv.data();
        st.mv = scratch.mv.data();
        kKernels[static_cast<int>(tier)](st);

        bs.batches.inc();
        bs.lanes_filled.add(texts.size());
    }

    for (size_t l = 0; l < texts.size(); ++l)
        out[l] = static_cast<size_t>(result[l]);
}

#endif // DNASIM_X86_SIMD_KERNELS

} // anonymous namespace

void
myersBatchDistanceBounded(const MyersPattern &pattern,
                          std::span<const std::string_view> texts,
                          size_t limit, std::span<size_t> out)
{
    DNASIM_ASSERT(out.size() >= texts.size(),
                  "batch output span too small: ", out.size(), " < ",
                  texts.size());
    if (texts.empty())
        return;

    SimdTier tier = activeSimdTier();
#ifndef DNASIM_X86_SIMD_KERNELS
    tier = SimdTier::Scalar;
#endif
    if (tier == SimdTier::Scalar || pattern.size() == 0) {
        BatchStats::get().scalar_tail.add(texts.size());
        for (size_t i = 0; i < texts.size(); ++i)
            out[i] = pattern.distanceBounded(texts[i], limit);
        return;
    }

#ifdef DNASIM_X86_SIMD_KERNELS
    // Both kernels take 8 texts per invocation: AVX-512 as one
    // 8-lane vector, AVX2 as two interleaved 4-lane halves whose
    // independent carry chains overlap in the out-of-order core.
    const size_t lanes = 8;
    auto &scratch = batchScratch();
    for (size_t base = 0; base < texts.size(); base += lanes) {
        const size_t group =
            std::min(lanes, texts.size() - base);
        if (group == 1) {
            // A lone text gains nothing from gather-based lanes.
            BatchStats::get().scalar_tail.inc();
            out[base] = pattern.distanceBounded(texts[base], limit);
            continue;
        }
        runGroup(tier, lanes, pattern, texts.subspan(base, group),
                 limit, out.subspan(base, group), scratch);
    }
#endif
}

size_t
myersBatchTotalDistance(const MyersPattern &pattern,
                        std::span<const std::string_view> texts)
{
    if (texts.empty())
        return 0;
    thread_local std::vector<size_t> dists;
    ensureSize(dists, texts.size(), BatchStats::get().allocs);
    myersBatchDistanceBounded(pattern, texts,
                              std::numeric_limits<size_t>::max(),
                              dists);
    size_t total = 0;
    for (size_t i = 0; i < texts.size(); ++i)
        total += dists[i];
    return total;
}

} // namespace dnasim

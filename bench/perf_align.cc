/**
 * @file
 * Microbenchmarks of the alignment substrate: Levenshtein distance,
 * edit-operation backtraces, gestalt matching, Hamming profiling.
 */

#include <string_view>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_report.hh"
#include "align/edit_distance.hh"
#include "align/edit_script.hh"
#include "align/gestalt.hh"
#include "align/hamming.hh"
#include "align/myers_batch.hh"
#include "base/rng.hh"
#include "core/ids_model.hh"
#include "data/strand_factory.hh"

using namespace dnasim;

namespace
{

struct Fixture
{
    Strand ref;
    Strand copy;

    explicit Fixture(size_t len, double error_rate)
    {
        Rng rng = benchRng(0xbe5e);
        StrandFactory factory;
        ref = factory.make(len, rng);
        ErrorProfile profile = ErrorProfile::uniform(error_rate, len);
        IdsChannelModel model = IdsChannelModel::naive(profile);
        copy = model.transmit(ref, rng);
    }
};

void
BM_Levenshtein(benchmark::State &state)
{
    Fixture f(static_cast<size_t>(state.range(0)), 0.06);
    for (auto _ : state)
        benchmark::DoNotOptimize(levenshtein(f.ref, f.copy));
}

/**
 * Edit-script recovery across the engine's whole operating envelope:
 * strand length x error rate x tie-break mode. rng_mode 0 is the
 * deterministic consensus shape, rng_mode 1 the profiler's random
 * tie-break shape; both are one bit-vector walk. Each row also
 * records its per-script cell-equivalent count (from
 * align.editops.cells) as an `editops.cells/...` report metric, so
 * the report shows work-done changes even when time is noisy.
 */
void
BM_EditOps(benchmark::State &state)
{
    const auto len = static_cast<size_t>(state.range(0));
    const auto err_pct = static_cast<int>(state.range(1));
    const bool use_rng = state.range(2) != 0;
    Fixture f(len, static_cast<double>(err_pct) / 100.0);
    Rng rng = benchRng(7);
    std::vector<EditOp> ops;
    auto &cells = align_detail::EditOpsStats::get().cells;
    const uint64_t cells_before = cells.value();
    for (auto _ : state) {
        editOpsInto(f.ref, f.copy, use_rng ? &rng : nullptr, ops);
        benchmark::DoNotOptimize(ops.data());
    }
    if (state.iterations() > 0) {
        BenchReport::global().addMetric(
            "editops.cells/" + std::to_string(len) + "/" +
                std::to_string(err_pct) +
                (use_rng ? "/rng" : "/det"),
            static_cast<double>(cells.value() - cells_before) /
                static_cast<double>(state.iterations()));
    }
}

/**
 * The pinned flat-DP twin of BM_EditOps at the same inputs — the
 * in-place denominator for the engine speedup ratio.
 */
void
BM_EditOpsReference(benchmark::State &state)
{
    const auto len = static_cast<size_t>(state.range(0));
    const auto err_pct = static_cast<int>(state.range(1));
    const bool use_rng = state.range(2) != 0;
    Fixture f(len, static_cast<double>(err_pct) / 100.0);
    Rng rng = benchRng(7);
    std::vector<EditOp> ops;
    for (auto _ : state) {
        align_detail::editOpsReference(
            f.ref, f.copy, use_rng ? &rng : nullptr, ops);
        benchmark::DoNotOptimize(ops.data());
    }
}

void
editOpsArgs(benchmark::internal::Benchmark *b)
{
    for (int64_t rng_mode : {0, 1})
        for (int64_t len : {100, 150, 300})
            for (int64_t err_pct : {1, 3, 10})
                b->Args({len, err_pct, rng_mode});
}

void
BM_GestaltScore(benchmark::State &state)
{
    Fixture f(static_cast<size_t>(state.range(0)), 0.06);
    for (auto _ : state)
        benchmark::DoNotOptimize(gestaltScore(f.ref, f.copy));
}

void
BM_GestaltErrorPositions(benchmark::State &state)
{
    Fixture f(static_cast<size_t>(state.range(0)), 0.06);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            gestaltErrorPositions(f.ref, f.copy));
}

void
BM_HammingErrorPositions(benchmark::State &state)
{
    Fixture f(static_cast<size_t>(state.range(0)), 0.06);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            hammingErrorPositions(f.ref, f.copy));
}

void
BM_MyersPatternReuse(benchmark::State &state)
{
    // One pattern queried against many texts (the clusterReads
    // shape) vs. rebuilding the match tables per call, which is what
    // levenshtein() does.
    Fixture f(static_cast<size_t>(state.range(0)), 0.06);
    MyersPattern pattern{std::string_view(f.ref)};
    for (auto _ : state)
        benchmark::DoNotOptimize(pattern.distance(f.copy));
}

void
BM_MyersPatternBounded(benchmark::State &state)
{
    // Thresholded query with an unrelated text: the early-abandon
    // path that dominates cluster probing of non-members.
    Fixture f(static_cast<size_t>(state.range(0)), 0.06);
    Rng rng = benchRng(0x0ff);
    StrandFactory factory;
    Strand other = factory.make(f.ref.size(), rng);
    MyersPattern pattern{std::string_view(f.ref)};
    const size_t limit = f.ref.size() / 8;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            pattern.distanceBounded(other, limit));
}

/**
 * One pattern verified against N candidate texts — the clusterReads
 * probe shape the batch kernel was built for.  accept=1 holds noisy
 * copies of the pattern (every lane runs to the end of its text, the
 * full-cost case); accept=0 holds unrelated strands under a tight
 * limit (the early-abandon case that dominates probing non-members).
 */
struct BatchFixture
{
    Strand ref;
    std::vector<Strand> store;
    std::vector<std::string_view> texts;
    MyersPattern pattern;
    size_t limit = 0;

    BatchFixture(size_t len, size_t n, bool accept)
    {
        Rng rng = benchRng(accept ? 0xacce97 : 0x4e9ec7);
        StrandFactory factory;
        ref = factory.make(len, rng);
        pattern.assign(ref);
        store.reserve(n);
        if (accept) {
            ErrorProfile profile = ErrorProfile::uniform(0.06, len);
            IdsChannelModel model = IdsChannelModel::naive(profile);
            for (size_t i = 0; i < n; ++i)
                store.push_back(model.transmit(ref, rng));
            limit = len / 2;
        } else {
            for (size_t i = 0; i < n; ++i)
                store.push_back(factory.make(len, rng));
            limit = len / 8;
        }
        texts.reserve(n);
        for (const auto &s : store)
            texts.emplace_back(s);
    }
};

void
BM_MyersBatchVerify(benchmark::State &state)
{
    BatchFixture f(static_cast<size_t>(state.range(0)),
                   static_cast<size_t>(state.range(1)),
                   state.range(2) != 0);
    std::vector<size_t> out(f.texts.size());
    for (auto _ : state) {
        myersBatchDistanceBounded(f.pattern, f.texts, f.limit, out);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) * state.range(1));
}

void
BM_MyersScalarVerify(benchmark::State &state)
{
    // The scalar twin of BM_MyersBatchVerify: one distanceBounded
    // call per text, same inputs, for the batch speedup ratio.
    BatchFixture f(static_cast<size_t>(state.range(0)),
                   static_cast<size_t>(state.range(1)),
                   state.range(2) != 0);
    std::vector<size_t> out(f.texts.size());
    for (auto _ : state) {
        for (size_t i = 0; i < f.texts.size(); ++i)
            out[i] = f.pattern.distanceBounded(f.texts[i], f.limit);
        benchmark::DoNotOptimize(out.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(
        static_cast<int64_t>(state.iterations()) * state.range(1));
}

void
batchVerifyArgs(benchmark::internal::Benchmark *b)
{
    for (int64_t accept : {0, 1})
        for (int64_t len : {100, 150, 300})
            for (int64_t n : {4, 8, 64, 256})
                b->Args({len, n, accept});
}

} // anonymous namespace

BENCHMARK(BM_Levenshtein)->Arg(110)->Arg(220);
BENCHMARK(BM_EditOps)->Apply(editOpsArgs);
BENCHMARK(BM_EditOpsReference)->Apply(editOpsArgs);
BENCHMARK(BM_GestaltScore)->Arg(110)->Arg(220);
BENCHMARK(BM_GestaltErrorPositions)->Arg(110);
BENCHMARK(BM_HammingErrorPositions)->Arg(110);
BENCHMARK(BM_MyersPatternReuse)->Arg(110)->Arg(150);
BENCHMARK(BM_MyersPatternBounded)->Arg(110)->Arg(150);
BENCHMARK(BM_MyersBatchVerify)->Apply(batchVerifyArgs);
BENCHMARK(BM_MyersScalarVerify)->Apply(batchVerifyArgs);

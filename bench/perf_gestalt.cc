/**
 * @file
 * Microbenchmarks of the gestalt (Ratcliff-Obershelp) kernels on
 * paper-scale read pairs: 110-mers (the payload length used across
 * chapter 3) and 150-mers (Illumina read length). The dominant cost
 * is the recursive longest-common-substring search, so these rows
 * track the run-length doubling LCS kernel. The one-row scalar
 * kernel runs only on sub-problems too large for the scratch cap,
 * which paper-scale pairs never reach.
 */

#include <string>
#include <string_view>

#include <benchmark/benchmark.h>

#include "bench_report.hh"
#include "align/gestalt.hh"
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
        Rng rng = benchRng(0x6e5f);
        StrandFactory factory;
        ref = factory.make(len, rng);
        ErrorProfile profile = ErrorProfile::uniform(error_rate, len);
        IdsChannelModel model = IdsChannelModel::naive(profile);
        copy = model.transmit(ref, rng);
    }
};

void
BM_MatchingBlocks(benchmark::State &state)
{
    Fixture f(static_cast<size_t>(state.range(0)), 0.06);
    for (auto _ : state)
        benchmark::DoNotOptimize(matchingBlocks(f.ref, f.copy));
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
BM_GestaltScoreHighNoise(benchmark::State &state)
{
    // Heavier noise fragments the match structure, deepening the
    // recursion — the worst case for per-subrange overhead.
    Fixture f(static_cast<size_t>(state.range(0)), 0.20);
    for (auto _ : state)
        benchmark::DoNotOptimize(gestaltScore(f.ref, f.copy));
}

} // anonymous namespace

BENCHMARK(BM_MatchingBlocks)->Arg(110)->Arg(150);
BENCHMARK(BM_GestaltScore)->Arg(110)->Arg(150);
BENCHMARK(BM_GestaltErrorPositions)->Arg(110)->Arg(150);
BENCHMARK(BM_GestaltScoreHighNoise)->Arg(110);

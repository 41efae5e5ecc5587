#include "bench_common.hh"

#include <cstdlib>
#include <iostream>

#include "align/simd_dispatch.hh"
#include "base/logging.hh"
#include "bench_report.hh"
#include "core/ids_model.hh"
#include "par/thread_pool.hh"
#include "reconstruct/bma.hh"
#include "reconstruct/iterative.hh"

namespace dnasim
{

namespace
{

std::string
harnessName(const char *argv0)
{
    std::string name = argv0 ? argv0 : "bench";
    auto slash = name.find_last_of('/');
    if (slash != std::string::npos)
        name = name.substr(slash + 1);
    return name;
}

} // anonymous namespace

BenchEnv
makeBenchEnv(int argc, char **argv, size_t default_clusters)
{
    Args args(argc - 1, argv + 1);

    BenchEnv env;
    if (const char *from_env = std::getenv("DNASIM_BENCH_CLUSTERS"))
        default_clusters =
            static_cast<size_t>(std::strtoull(from_env, nullptr, 10));
    env.clusters = args.getCount("clusters", default_clusters, 1);
    env.seed = args.getSeed("seed", 0xbe9c);
    par::setThreads(args.getCount("threads", 0, 0, par::kMaxThreads));
    const std::string simd = args.get("simd", "auto");
    if (!applySimdOverride(simd.empty() ? "auto" : simd)) {
        DNASIM_FATAL("--simd must be auto, scalar, avx2 or avx512, "
                     "got '", simd, "'");
    }

    auto &report = BenchReport::global();
    report.init(harnessName(argc > 0 ? argv[0] : nullptr), env.seed);
    report.setConfig("clusters", static_cast<uint64_t>(env.clusters));
    report.setConfig("seed", env.seed);
    report.setConfig("threads",
                     static_cast<uint64_t>(par::numThreads()));
    report.setConfig("simd",
                     std::string(simdTierName(activeSimdTier())));

    env.wetlab_config.num_clusters = env.clusters;
    NanoporeDatasetGenerator generator(env.wetlab_config);
    Rng gen_rng = env.rng(0x3e7);
    env.wetlab = generator.generate(gen_rng);

    ErrorProfiler profiler;
    env.profile = profiler.calibrate(env.wetlab);

    auto stats = env.wetlab.stats();
    report.addMetric("wetlab_mean_coverage", stats.mean_coverage);
    report.addMetric("wetlab_aggregate_error_rate",
                     stats.aggregate_error_rate);
    std::cout << "# wetlab dataset: " << stats.num_clusters
              << " clusters, " << stats.num_copies
              << " copies, mean coverage "
              << fmtDouble(stats.mean_coverage)
              << ", aggregate error "
              << fmtPercent(stats.aggregate_error_rate)
              << "% (paper: 10000 clusters, 269709 copies, "
              << "coverage 26.97, error 5.9%)\n\n";
    return env;
}

std::string
paperVsMeasured(double paper_percent, double measured_ratio)
{
    return fmtPercent(measured_ratio) + " (paper " +
           fmtDouble(paper_percent) + ")";
}

Dataset
realAtCoverage(const BenchEnv &env, size_t n)
{
    Dataset shuffled = env.wetlab;
    Rng rng = env.rng(0x5b0f);
    shuffled.shuffleWithinClusters(rng);
    return shuffled.fixedCoverage(n, /*min_coverage=*/10);
}

std::vector<Strand>
wetlabReferences(const BenchEnv &env)
{
    return env.wetlab.references();
}

Dataset
modelDataset(const BenchEnv &env, const ErrorModel &model, size_t n,
             uint64_t salt)
{
    ChannelSimulator sim(model);
    FixedCoverage coverage(n);
    Rng rng = env.rng(salt);
    return sim.simulate(wetlabReferences(env), coverage, rng);
}

int
runProgressiveTable(int argc, char **argv, size_t coverage,
                    const std::vector<ProgressiveRow> &rows)
{
    std::cout << "=== Table 3." << (coverage == 5 ? 1 : 2)
              << ": progressive model refinement at N = " << coverage
              << " ===\n\n";
    BenchEnv env = makeBenchEnv(argc, argv, 500);

    // The real data at the fixed coverage, then one simulated
    // dataset per model of the paper's ladder, all calibrated from
    // the real data.
    IdsChannelModel naive = IdsChannelModel::naive(env.profile);
    IdsChannelModel conditional =
        IdsChannelModel::conditional(env.profile);
    IdsChannelModel skew = IdsChannelModel::skew(env.profile);
    IdsChannelModel second = IdsChannelModel::secondOrder(env.profile);

    std::vector<Dataset> datasets;
    datasets.push_back(realAtCoverage(env, coverage));
    datasets.push_back(modelDataset(env, naive, coverage, 0x401));
    datasets.push_back(modelDataset(env, conditional, coverage,
                                    0x402));
    datasets.push_back(modelDataset(env, skew, coverage, 0x403));
    datasets.push_back(modelDataset(env, second, coverage, 0x404));
    DNASIM_ASSERT(rows.size() == datasets.size(),
                  "row/dataset mismatch");

    BmaLookahead bma;
    Iterative iterative;

    TextTable table("accuracy % (measured, paper in parentheses)");
    table.setHeader({"data", "BMA strand", "BMA char", "Iter strand",
                     "Iter char"});
    std::vector<double> bma_strand, iter_strand, bma_char, iter_char;
    for (size_t i = 0; i < datasets.size(); ++i) {
        Rng r1 = env.rng(0x501 + i), r2 = env.rng(0x601 + i);
        AccuracyResult a_bma =
            evaluateAccuracy(datasets[i], bma, r1);
        AccuracyResult a_iter =
            evaluateAccuracy(datasets[i], iterative, r2);
        bma_strand.push_back(a_bma.perStrand());
        bma_char.push_back(a_bma.perChar());
        iter_strand.push_back(a_iter.perStrand());
        iter_char.push_back(a_iter.perChar());
        auto &report = BenchReport::global();
        report.addMetric(rows[i].label + ".bma_strand",
                         a_bma.perStrand());
        report.addMetric(rows[i].label + ".bma_char", a_bma.perChar());
        report.addMetric(rows[i].label + ".iter_strand",
                         a_iter.perStrand());
        report.addMetric(rows[i].label + ".iter_char",
                         a_iter.perChar());
        table.addRow({rows[i].label,
                      paperVsMeasured(rows[i].paper_bma_strand,
                                      a_bma.perStrand()),
                      paperVsMeasured(rows[i].paper_bma_char,
                                      a_bma.perChar()),
                      paperVsMeasured(rows[i].paper_iter_strand,
                                      a_iter.perStrand()),
                      paperVsMeasured(rows[i].paper_iter_char,
                                      a_iter.perChar())});
    }
    table.print(std::cout);

    // The abstract's headline: the refined simulator's BMA gap to
    // real data vs the naive/DNASimulator-style gap.
    double full_gap =
        (bma_strand.back() - bma_strand.front()) * 100.0;
    double naive_gap = (bma_strand[1] - bma_strand.front()) * 100.0;
    BenchReport::global().setConfig("coverage",
                                    static_cast<uint64_t>(coverage));
    BenchReport::global().addMetric("bma_strand_gap_naive_pp",
                                    naive_gap);
    BenchReport::global().addMetric("bma_strand_gap_refined_pp",
                                    full_gap);
    std::cout << "BMA per-strand gap to real data: naive "
              << fmtDouble(naive_gap) << "pp vs refined "
              << fmtDouble(full_gap)
              << "pp (paper: 38pp vs 15pp)\n";
    double char_full_gap = (bma_char.back() - bma_char.front()) * 100.0;
    double char_naive_gap = (bma_char[1] - bma_char.front()) * 100.0;
    std::cout << "BMA per-char gap to real data: naive "
              << fmtDouble(char_naive_gap) << "pp vs refined "
              << fmtDouble(char_full_gap)
              << "pp (paper: 6pp vs 1pp)\n";
    std::cout << "shape checks: BMA accuracy should fall toward the "
                 "real row as the model refines;\nIterative should "
                 "over-correct once spatial skew is added (drop to "
                 "or below the real row).\n";
    return 0;
}

void
printProfile(const Histogram &profile, size_t positions,
             const std::string &title, size_t buckets)
{
    TextTable table(title);
    table.setHeader({"positions", "errors", "share%"});
    for (const auto &b : bucketProfile(profile, positions, buckets)) {
        table.addRow({std::to_string(b.lo) + "-" +
                          std::to_string(b.hi - 1),
                      std::to_string(b.errors), fmtPercent(b.share)});
    }
    table.print(std::cout);
}

} // namespace dnasim

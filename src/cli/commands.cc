#include "cli/commands.hh"

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iostream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <sstream>

#include "analysis/accuracy.hh"
#include "analysis/error_positions.hh"
#include "analysis/lineage.hh"
#include "analysis/second_order.hh"
#include "base/logging.hh"
#include "base/packed.hh"
#include "base/strand_pool.hh"
#include "base/table.hh"
#include "cluster/greedy_cluster.hh"
#include "cluster/recluster.hh"
#include "cluster/shard_cluster.hh"
#include "core/channel_simulator.hh"
#include "core/dnasimulator_model.hh"
#include "core/ids_model.hh"
#include "core/profile_io.hh"
#include "core/profiler.hh"
#include "core/wetlab.hh"
#include "data/io.hh"
#include "obs/outfile.hh"
#include "pipeline/archival_pipeline.hh"
#include "pipeline/checkpoint.hh"
#include "reconstruct/bma.hh"
#include "reconstruct/divider_bma.hh"
#include "reconstruct/iterative.hh"
#include "reconstruct/majority.hh"
#include "reconstruct/twoway_iterative.hh"
#include "reconstruct/weighted_iterative.hh"

namespace dnasim
{

std::unique_ptr<Reconstructor>
makeReconstructor(const std::string &name)
{
    if (name == "bma")
        return std::make_unique<BmaLookahead>();
    if (name == "bma-oneway")
        return std::make_unique<BmaLookahead>(BmaOptions{false});
    if (name == "divbma")
        return std::make_unique<DividerBma>();
    if (name == "iterative")
        return std::make_unique<Iterative>();
    if (name == "iterative-2way")
        return std::make_unique<TwoWayIterative>();
    if (name == "iterative-weighted")
        return std::make_unique<WeightedIterative>();
    if (name == "majority")
        return std::make_unique<MajorityVote>();
    DNASIM_FATAL("unknown algorithm '", name,
                 "'; expected bma, bma-oneway, divbma, iterative, "
                 "iterative-2way, iterative-weighted, or majority");
}

std::unique_ptr<ErrorModel>
makeModel(const std::string &name, const ErrorProfile &profile)
{
    if (name == "naive")
        return std::make_unique<IdsChannelModel>(
            IdsChannelModel::naive(profile));
    if (name == "conditional")
        return std::make_unique<IdsChannelModel>(
            IdsChannelModel::conditional(profile));
    if (name == "skew")
        return std::make_unique<IdsChannelModel>(
            IdsChannelModel::skew(profile));
    if (name == "second-order")
        return std::make_unique<IdsChannelModel>(
            IdsChannelModel::secondOrder(profile));
    if (name == "dnasimulator")
        return std::make_unique<DnaSimulatorModel>(
            DnaSimulatorModel::fromProfile(profile));
    DNASIM_FATAL("unknown model '", name,
                 "'; expected naive, conditional, skew, second-order, "
                 "or dnasimulator");
}

/**
 * Clusterer settings shared by the cluster, roundtrip and explain
 * commands: the distance gate, the probe bounds, and the sketch
 * tier's MinHash/LSH shape.
 */
ClusterOptions
clusterOptionsFromArgs(const Args &args)
{
    ClusterOptions options;
    options.distance_threshold =
        args.getCount("distance-threshold", options.distance_threshold);
    options.anchor_length =
        args.getCount("anchor-length", options.anchor_length, 1);
    options.max_probes = args.getCount("max-probes", options.max_probes);
    options.sketch.kmer_length = args.getCount(
        "sketch-kmer", options.sketch.kmer_length, 1,
        kBasesPerWord);
    options.sketch.num_bands =
        args.getCount("sketch-bands", options.sketch.num_bands, 1);
    options.sketch.rows_per_band =
        args.getCount("sketch-rows", options.sketch.rows_per_band, 1);
    // bands x rows slots must fit the signature; compare against the
    // quotient, since the product of two counts can wrap.
    if (options.sketch.num_bands >
        SketchOptions::kMaxHashes / options.sketch.rows_per_band)
        DNASIM_FATAL("--sketch-bands ", options.sketch.num_bands,
                     " x --sketch-rows ", options.sketch.rows_per_band,
                     " exceeds the sketch signature's ",
                     SketchOptions::kMaxHashes, " slots");
    return options;
}

ErrorProfile
errorProfileFromArgs(const Args &args, const Dataset &dataset)
{
    // Use a previously saved profile when given; otherwise calibrate
    // from the dataset itself.
    const std::string profile_path = args.get("error-profile");
    if (!profile_path.empty())
        return readProfileFile(profile_path);
    ErrorProfiler profiler;
    return profiler.calibrate(dataset);
}

namespace
{

/** Flags of clusterOptionsFromArgs(), read by three commands. */
const std::string kClusterFlags =
    " distance-threshold anchor-length max-probes sketch-kmer"
    " sketch-bands sketch-rows";

/**
 * Every flag each command reads, space separated. checkFlags()
 * rejects any other flag, so printUsage() must list only these
 * (a test keeps the two in step).
 */
const std::map<std::string, std::string> kCommandFlags = {
    {"generate", "clusters length error-rate coverage seed out"},
    {"calibrate", "top-k out"},
    {"simulate", "model out error-profile max-reads checkpoint-dir "
                 "lineage-out seed"},
    {"reconstruct", "algo coverage checkpoint-dir seed"},
    {"analyze", "buckets top-k"},
    {"ingest", "format out checkpoint-dir origins max-reads"},
    {"cluster", "shards max-reads origins checkpoint-dir out "
                "lineage-out seed" + kClusterFlags},
    {"explain", "error-profile model algo coverage recluster json "
                "buckets lineage-out seed" + kClusterFlags},
    {"roundtrip", "coverage error-rate algo recluster max-reads "
                  "lineage-out seed" + kClusterFlags},
    {"bench", "out"},
    {"help", ""},
};

/** Flags every command accepts; main() reads them. */
const std::string kGlobalFlags =
    "stats-out stats trace-out profile progress threads simd";

/** Flags that take no value. */
const std::string kBooleanFlags = "recluster json stats profile";

/** True when @p name is a word of the space-separated @p list. */
bool
listed(const std::string &list, const std::string &name)
{
    std::istringstream words(list);
    std::string word;
    while (words >> word)
        if (word == name)
            return true;
    return false;
}

void
printProfileTable(const Histogram &profile, size_t positions,
                  const std::string &title, size_t buckets)
{
    TextTable table(title);
    table.setHeader({"positions", "errors", "share%"});
    for (const auto &b : bucketProfile(profile, positions, buckets)) {
        table.addRow({std::to_string(b.lo) + "-" +
                          std::to_string(b.hi - 1),
                      std::to_string(b.errors),
                      fmtPercent(b.share)});
    }
    table.print(std::cout);
}

/**
 * Checkpoint files are untrusted: fatal unless every id read from
 * @p path is below @p bound, the count of the @p what it indexes.
 */
void
checkIdsBelow(const std::vector<uint32_t> &ids, size_t bound,
              const std::string &path, const char *what)
{
    for (size_t i = 0; i < ids.size(); ++i) {
        if (ids[i] >= bound) {
            DNASIM_FATAL("checkpoint: ", path, ": entry ", i, " is ",
                         ids[i], ", out of range for ", bound, " ",
                         what);
        }
    }
}

/**
 * The out-of-core simulate stage: pack the references into
 * <dir>/refs.dnapool, stream simulated reads straight into
 * <dir>/reads.dnapool (origins to <dir>/origins.u32) in bounded
 * memory, and commit the stage by writing the manifest last. If a
 * manifest already exists the stage completed in an earlier process
 * and the command is a no-op — the resume contract.
 */
int
simulateToCheckpoint(const Args &args, const Dataset &real,
                     const ChannelSimulator &sim, Rng &rng,
                     size_t max_reads)
{
    if (args.has("lineage-out")) {
        DNASIM_FATAL("--lineage-out is not supported with "
                     "--checkpoint-dir (the pool path records no "
                     "lineage)");
    }
    CheckpointDir ckpt(args.get("checkpoint-dir"));
    std::string error;
    if (ckpt.hasManifest()) {
        CheckpointManifest done;
        if (!ckpt.readManifest(done, &error))
            DNASIM_FATAL("checkpoint: ", error);
        std::cout << "checkpoint " << ckpt.dir()
                  << " already at stage '" << done.stage << "' ("
                  << done.num_reads << " reads); nothing to do\n";
        return 0;
    }

    PackedStrandPoolBuilder refs_builder;
    if (!refs_builder.open(ckpt.refsPath(), &error))
        DNASIM_FATAL("checkpoint: ", error);
    for (const auto &cluster : real) {
        if (!refs_builder.append(cluster.reference))
            DNASIM_FATAL("checkpoint: non-ACGT reference strand");
    }
    if (!refs_builder.finish(&error))
        DNASIM_FATAL("checkpoint: ", error);

    PackedStrandPool refs;
    if (!refs.open(ckpt.refsPath(), &error))
        DNASIM_FATAL("checkpoint: ", error);

    PackedStrandPoolBuilder reads_builder;
    if (!reads_builder.open(ckpt.readsPath(), &error))
        DNASIM_FATAL("checkpoint: ", error);
    obs::AtomicFile origins;
    if (!origins.open(ckpt.originsPath(), &error))
        DNASIM_FATAL("checkpoint: ", error);

    CustomCoverage coverage(real.coverages());
    PoolSimulateResult sim_result =
        sim.simulateToPool(StrandPoolView(refs), coverage, rng,
                           reads_builder, &origins.stream(), max_reads);

    if (!reads_builder.finish(&error) || !origins.commit(&error))
        DNASIM_FATAL("checkpoint: ", error);

    CheckpointManifest manifest;
    manifest.stage = "simulate";
    manifest.seed = args.getSeed("seed", 0x51a70);
    manifest.num_refs = refs.size();
    manifest.num_reads = sim_result.reads;
    manifest.config = {
        {"model", sim.model().name()},
        {"max_reads", std::to_string(max_reads)},
    };
    if (!ckpt.writeManifest(manifest, &error))
        DNASIM_FATAL("checkpoint: ", error);

    std::cout << "checkpoint " << ckpt.dir() << ": simulated "
              << sim_result.reads << " reads from " << refs.size()
              << " references (model " << sim.model().name() << ")"
              << (sim_result.truncated ? ", truncated by --max-reads"
                                       : "")
              << "\n";
    return 0;
}

/** Attribute a simulation's injected lineage to --lineage-out. */
void
writeInjectedLineage(const Args &args, const Dataset &simulated,
                     const LineageLog &lineage)
{
    LineageInputs inputs;
    inputs.truth = &simulated;
    inputs.lineage = &lineage;
    LineageReport report = attributeLineage(inputs);
    const std::string lineage_out = args.get("lineage-out");
    std::string error;
    if (!writeLineageJsonl(lineage_out, inputs, report, &error))
        DNASIM_FATAL("lineage: ", error);
    inform("lineage: wrote ", lineage_out, " (",
           report.injected.total(), " injected events)");
}

/**
 * Atomically publish the byte-comparable clustering artifact: one
 * line per cluster, representative then member read indices in
 * placement order — what the determinism checks diff across
 * --threads, --simd and --shards settings.
 */
void
writeClustersOut(const std::string &path,
                 const std::vector<ReadCluster> &clusters)
{
    obs::AtomicFile out;
    std::string error;
    if (!out.open(path, &error))
        DNASIM_FATAL("cluster: ", error);
    std::ostream &os = out.stream();
    for (const auto &cluster : clusters) {
        os << cluster.representative;
        for (size_t member : cluster.members)
            os << ' ' << member;
        os << '\n';
    }
    if (!out.commit(&error))
        DNASIM_FATAL("cluster: ", error);
}

void
printClusterTable(size_t num_reads, size_t num_clusters,
                  const ClusterPurity *purity, double secs)
{
    TextTable table("clustering");
    table.setHeader({"reads", "clusters", "purity%", "reads/s"});
    table.addRow(
        {std::to_string(num_reads), std::to_string(num_clusters),
         purity != nullptr ? fmtPercent(purity->purity())
                           : std::string("-"),
         std::to_string(static_cast<uint64_t>(
             secs > 0.0
                 ? static_cast<double>(num_reads) / secs
                 : 0.0))});
    table.print(std::cout);
}

/**
 * The out-of-core cluster stage: shard-cluster an mmap'd pool (a
 * .dnapool positional or a checkpoint's reads.dnapool), score purity
 * when ground-truth origins exist, and — in checkpoint mode — commit
 * assignments + representatives with the manifest written last. When
 * the manifest already says "cluster" the stage completed in an
 * earlier process; the clustering is rebuilt from the snapshot, so a
 * resumed --out is byte-identical to an uninterrupted run.
 */
int
clusterPool(const Args &args, const ClusterOptions &options,
            size_t shards, size_t max_reads)
{
    if (args.has("lineage-out")) {
        DNASIM_FATAL("--lineage-out needs an evyat dataset input "
                     "(lineage attribution requires ground truth)");
    }
    std::string error;
    const bool from_checkpoint = args.has("checkpoint-dir");
    CheckpointDir ckpt(args.get("checkpoint-dir"));

    std::string pool_path;
    std::string origins_path = args.get("origins");
    bool resume = false;
    uint64_t prior_seed = 0;
    uint64_t prior_refs = 0;
    if (from_checkpoint) {
        CheckpointManifest manifest;
        if (!ckpt.readManifest(manifest, &error))
            DNASIM_FATAL("checkpoint: ", error);
        pool_path = ckpt.readsPath();
        resume = manifest.stage == "cluster";
        prior_seed = manifest.seed;
        prior_refs = manifest.num_refs;
        if (origins_path.empty() &&
            std::ifstream(ckpt.originsPath()).good())
            origins_path = ckpt.originsPath();
    } else {
        pool_path = args.positional()[1];
    }

    PackedStrandPool pool;
    if (!pool.open(pool_path, &error))
        DNASIM_FATAL("cluster: ", error);
    StrandPoolView view(pool);
    view.truncate(max_reads);
    pool.advise(MapAccess::Random);

    std::vector<ReadCluster> clusters;
    double secs = 0.0;
    size_t num_reads = view.size();
    if (resume) {
        std::vector<uint32_t> assignments;
        if (!readU32File(ckpt.assignmentsPath(), assignments,
                         &error))
            DNASIM_FATAL("checkpoint: ", error);
        PackedStrandPool reps;
        if (!reps.open(ckpt.representativesPath(), &error))
            DNASIM_FATAL("checkpoint: ", error);
        checkIdsBelow(assignments, reps.size(), ckpt.assignmentsPath(),
                      "representatives");
        // Members grouped by assignment in read order is exactly the
        // order the clusterer appends them, so the rebuilt clustering
        // matches the committed run byte for byte.
        clusters.resize(reps.size());
        for (size_t c = 0; c < reps.size(); ++c)
            reps.unpackInto(c, clusters[c].representative);
        for (size_t r = 0; r < assignments.size(); ++r) {
            DNASIM_ASSERT(assignments[r] < clusters.size(),
                          "assignment out of range");
            clusters[assignments[r]].members.push_back(r);
        }
        num_reads = assignments.size();
        inform("checkpoint ", ckpt.dir(),
               ": cluster stage already complete; reusing snapshot");
    } else {
        auto start = std::chrono::steady_clock::now();
        clusters = clusterReadsSharded(view, options, shards);
        secs = std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
                   .count();
        if (from_checkpoint) {
            std::vector<uint32_t> assignments(view.size(), 0);
            for (size_t c = 0; c < clusters.size(); ++c)
                for (size_t m : clusters[c].members)
                    assignments[m] = static_cast<uint32_t>(c);
            PackedStrandPoolBuilder reps;
            if (!reps.open(ckpt.representativesPath(), &error))
                DNASIM_FATAL("checkpoint: ", error);
            for (const auto &cluster : clusters) {
                if (!reps.append(cluster.representative))
                    DNASIM_FATAL(
                        "checkpoint: non-ACGT representative");
            }
            if (!reps.finish(&error))
                DNASIM_FATAL("checkpoint: ", error);
            if (!writeU32File(ckpt.assignmentsPath(), assignments,
                              &error))
                DNASIM_FATAL("checkpoint: ", error);
            CheckpointManifest manifest;
            manifest.stage = "cluster";
            manifest.seed = prior_seed;
            manifest.num_refs = prior_refs;
            manifest.num_reads = view.size();
            manifest.num_clusters = clusters.size();
            manifest.config = {
                {"shards", std::to_string(shards)},
                {"distance_threshold",
                 std::to_string(options.distance_threshold)},
                {"max_reads", std::to_string(max_reads)},
            };
            if (!ckpt.writeManifest(manifest, &error))
                DNASIM_FATAL("checkpoint: ", error);
        }
    }

    const ClusterPurity *purity_ptr = nullptr;
    ClusterPurity purity;
    if (!origins_path.empty()) {
        std::vector<uint32_t> origins32;
        if (!readU32File(origins_path, origins32, &error))
            DNASIM_FATAL("cluster: ", error);
        if (origins32.size() < num_reads) {
            DNASIM_FATAL("cluster: ", origins_path, " has ",
                         origins32.size(), " origins for ", num_reads,
                         " reads");
        }
        std::vector<size_t> origins(origins32.begin(),
                                    origins32.end());
        purity = scoreClustering(clusters, origins);
        purity_ptr = &purity;
    }

    if (args.has("out"))
        writeClustersOut(args.get("out"), clusters);

    printClusterTable(num_reads, clusters.size(), purity_ptr, secs);
    return 0;
}

} // anonymous namespace

int
cmdGenerate(const Args &args)
{
    WetlabConfig config;
    config.num_clusters = args.getCount("clusters", 1000, 1);
    config.strand_length = args.getCount("length", 110, 5);
    config.total_error_rate =
        args.getDouble("error-rate", 0.059, 0.0, 0.5);
    config.mean_coverage =
        args.getDouble("coverage", 26.97, 0.0,
                       std::numeric_limits<double>::infinity(),
                       /*min_exclusive=*/true);
    std::string out = args.get("out", "wetlab.evyat");
    Rng rng(args.getSeed("seed", 0xd7a5707a));

    NanoporeDatasetGenerator generator(config);
    Dataset dataset = generator.generate(rng);
    writeEvyatFile(dataset, out);

    auto stats = dataset.stats();
    std::cout << "wrote " << out << ": " << stats.num_clusters
              << " clusters, " << stats.num_copies << " copies, mean "
              << "coverage " << fmtDouble(stats.mean_coverage)
              << ", aggregate error "
              << fmtPercent(stats.aggregate_error_rate) << "%\n";
    return 0;
}

int
cmdCalibrate(const Args &args)
{
    if (args.positional().size() < 2) {
        DNASIM_FATAL("usage: dnasim calibrate <dataset.evyat> "
                     "[--top-k K] [--out profile.txt]");
    }
    Dataset dataset = readEvyatFile(args.positional()[1]);
    ProfilerOptions options;
    options.top_second_order =
        args.getCount("top-k", options.top_second_order);
    ErrorProfiler profiler(options);
    ErrorProfile profile = profiler.calibrate(dataset);
    std::cout << profile.str() << "\n";
    if (args.has("out")) {
        std::string out = args.get("out");
        writeProfileFile(profile, out);
        std::cout << "wrote calibrated profile to " << out << "\n";
    }
    return 0;
}

int
cmdSimulate(const Args &args)
{
    if (args.positional().size() < 2) {
        DNASIM_FATAL("usage: dnasim simulate <dataset.evyat> "
                     "[--model skew] [--out sim.evyat] "
                     "[--max-reads N] [--checkpoint-dir DIR]");
    }
    Dataset real = readEvyatFile(args.positional()[1]);
    std::string model_name = args.get("model", "second-order");
    std::string out = args.get("out", "simulated.evyat");
    const size_t max_reads = args.getCount("max-reads", 0);
    Rng rng(args.getSeed("seed", 0x51a70));

    ErrorProfile profile = errorProfileFromArgs(args, real);
    auto model = makeModel(model_name, profile);
    ChannelSimulator sim(*model);

    if (args.has("checkpoint-dir"))
        return simulateToCheckpoint(args, real, sim, rng, max_reads);

    // Recording is observational: the simulated dataset is
    // byte-identical with lineage on or off.
    LineageLog lineage;
    const bool want_lineage = args.has("lineage-out");
    Dataset simulated = sim.simulateLike(
        real, rng, want_lineage ? &lineage : nullptr);
    if (max_reads > 0)
        simulated.truncateReads(max_reads);
    writeEvyatFile(simulated, out);

    if (want_lineage)
        writeInjectedLineage(args, simulated, lineage);

    auto stats = simulated.stats();
    std::cout << "wrote " << out << " (model " << model->name()
              << "): " << stats.num_clusters << " clusters, "
              << stats.num_copies << " copies, aggregate error "
              << fmtPercent(stats.aggregate_error_rate) << "%\n";
    return 0;
}

int
cmdReconstruct(const Args &args)
{
    const bool from_checkpoint = args.has("checkpoint-dir");
    if (args.positional().size() < 2 && !from_checkpoint) {
        DNASIM_FATAL("usage: dnasim reconstruct <dataset.evyat> "
                     "[--algo bma] [--coverage N] "
                     "[--checkpoint-dir DIR]");
    }
    std::string algo_name = args.get("algo", "bma");
    Rng rng(args.getSeed("seed", 0x4ec0));
    auto algo = makeReconstructor(algo_name);
    AccuracyResult result;

    if (from_checkpoint) {
        // Out-of-core stage 3: reconstruct each assigned cluster from
        // the mmap'd read pool against the true references, holding
        // one cluster per worker in RAM.
        CheckpointDir ckpt(args.get("checkpoint-dir"));
        CheckpointManifest manifest;
        std::string error;
        if (!ckpt.readManifest(manifest, &error))
            DNASIM_FATAL("checkpoint: ", error);
        if (manifest.stage != "cluster") {
            DNASIM_FATAL("checkpoint ", ckpt.dir(), " is at stage '",
                         manifest.stage,
                         "'; run dnasim cluster --checkpoint-dir "
                         "first");
        }
        PackedStrandPool reads;
        PackedStrandPool refs;
        if (!reads.open(ckpt.readsPath(), &error))
            DNASIM_FATAL("checkpoint: ", error);
        if (!refs.open(ckpt.refsPath(), &error)) {
            DNASIM_FATAL("checkpoint has no usable refs.dnapool "
                         "(ingested rather than simulated?); "
                         "reconstruction needs the references: ",
                         error);
        }
        std::vector<uint32_t> assignments;
        std::vector<uint32_t> origins;
        if (!readU32File(ckpt.assignmentsPath(), assignments, &error))
            DNASIM_FATAL("checkpoint: ", error);
        if (!readU32File(ckpt.originsPath(), origins, &error))
            DNASIM_FATAL("checkpoint: ", error);
        if (assignments.size() > reads.size()) {
            DNASIM_FATAL("checkpoint: ", ckpt.assignmentsPath(), " has ",
                         assignments.size(), " entries for ",
                         reads.size(), " reads");
        }
        if (origins.size() < assignments.size()) {
            DNASIM_FATAL("checkpoint: ", ckpt.originsPath(), " has ",
                         origins.size(), " origins for ",
                         assignments.size(), " assigned reads");
        }
        // --max-reads at the cluster stage shrinks the clustered
        // prefix; score against the same prefix of the origins.
        origins.resize(assignments.size());
        // No more clusters than assigned reads, so ids bound the
        // per-cluster tables by the file's size.
        checkIdsBelow(assignments, assignments.size(),
                      ckpt.assignmentsPath(), "assigned reads");
        checkIdsBelow(origins, refs.size(), ckpt.originsPath(),
                      "references");
        StrandPoolView reads_view(reads);
        reads_view.truncate(assignments.size());
        reads.advise(MapAccess::Random);
        result = evaluatePoolAccuracy(reads_view, assignments,
                                      origins, StrandPoolView(refs),
                                      *algo, rng);
    } else {
        Dataset dataset = readEvyatFile(args.positional()[1]);
        const size_t coverage = args.getCount("coverage", 0);
        if (coverage > 0) {
            dataset.shuffleWithinClusters(rng);
            dataset = dataset.fixedCoverage(coverage);
        }
        result = evaluateAccuracy(dataset, *algo, rng);
    }

    TextTable table("reconstruction accuracy");
    table.setHeader({"algorithm", "clusters", "per-strand%",
                     "per-char%"});
    table.addRow({algo->name(), std::to_string(result.num_clusters),
                  fmtPercent(result.perStrand()),
                  fmtPercent(result.perChar())});
    table.print(std::cout);
    return 0;
}

int
cmdAnalyze(const Args &args)
{
    if (args.positional().size() < 2)
        DNASIM_FATAL("usage: dnasim analyze <dataset.evyat>");
    const size_t buckets = args.getCount("buckets", 11, 1);
    const size_t top_k = args.getCount("top-k", 10);
    Dataset dataset = readEvyatFile(args.positional()[1]);

    size_t positions = 0;
    for (const auto &c : dataset)
        positions = std::max(positions, c.reference.size());

    printProfileTable(hammingProfilePre(dataset), positions + 10,
                      "Hamming error positions (pre-reconstruction)",
                      buckets);
    printProfileTable(gestaltProfilePre(dataset), positions,
                      "gestalt-aligned error positions "
                      "(pre-reconstruction)",
                      buckets);

    auto census = secondOrderCensus(dataset);
    TextTable table("second-order error census");
    table.setHeader({"error", "count", "share%", "head%", "tail%"});
    for (size_t i = 0;
         i < std::min(top_k, census.entries.size()); ++i) {
        const auto &e = census.entries[i];
        auto b = bucketProfile(e.positions, positions, 3);
        table.addRow({e.key.str(), std::to_string(e.count),
                      fmtPercent(e.share), fmtPercent(b.front().share),
                      fmtPercent(b.back().share)});
    }
    table.print(std::cout);
    std::cout << "top-" << top_k << " errors cover "
              << fmtPercent(census.topShare(top_k))
              << "% of all errors\n";
    return 0;
}

int
cmdCluster(const Args &args)
{
    const bool from_checkpoint = args.has("checkpoint-dir");
    if (args.positional().size() < 2 && !from_checkpoint) {
        DNASIM_FATAL("usage: dnasim cluster "
                     "<dataset.evyat|pool.dnapool> "
                     "[--distance-threshold D] [--anchor-length A] "
                     "[--max-probes P] [--sketch-kmer K] "
                     "[--sketch-bands B] [--sketch-rows R] "
                     "[--shards S] [--max-reads N] "
                     "[--origins origins.u32] "
                     "[--checkpoint-dir DIR] [--out clusters.txt]");
    }
    ClusterOptions options = clusterOptionsFromArgs(args);
    const size_t shards = args.getCount("shards", 1);
    const size_t max_reads = args.getCount("max-reads", 0);

    // Packed pools (and checkpoint directories) take the out-of-core
    // path: mmap'd reads, sharded clustering, bounded RSS.
    const std::string input = args.positional().size() >= 2
                                  ? args.positional()[1]
                                  : std::string();
    if (from_checkpoint || input.ends_with(".dnapool"))
        return clusterPool(args, options, shards, max_reads);

    Dataset dataset = readEvyatFile(input);
    Rng rng(args.getSeed("seed", 0xc105));

    // Pool every copy with its true origin and shuffle: the
    // clusterer sees a wetlab-shaped unordered pool, the scorer
    // still knows the ground truth. Assignment provenance is
    // captured only on demand; placements are identical either way.
    const bool want_lineage = args.has("lineage-out");
    std::vector<ReadAssignment> assignments;
    auto start = std::chrono::steady_clock::now();
    // The lineage still reads the dataset; otherwise its reads move
    // into the pool.
    ReclusteredPool reclustered = poolAndRecluster(
        want_lineage ? Dataset(dataset) : std::move(dataset), options,
        rng, /*with_identity=*/true,
        want_lineage ? &assignments : nullptr, max_reads,
        std::max<size_t>(shards, 1));
    double secs = std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
    const std::vector<ReadCluster> &clusters = reclustered.clusters;
    std::vector<size_t> origins;
    origins.reserve(reclustered.identity.size());
    for (const ReadIdentity &id : reclustered.identity)
        origins.push_back(id.origin_cluster);
    ClusterPurity purity = scoreClustering(clusters, origins);

    if (want_lineage) {
        LineageInputs inputs;
        inputs.truth = &dataset;
        inputs.clusters = &clusters;
        inputs.pool = &reclustered.pool;
        inputs.identity = &reclustered.identity;
        inputs.assignments = &assignments;
        LineageReport report = attributeLineage(inputs);
        const std::string lineage_out = args.get("lineage-out");
        std::string error;
        if (!writeLineageJsonl(lineage_out, inputs, report, &error))
            DNASIM_FATAL("lineage: ", error);
        inform("lineage: wrote ", lineage_out, " (",
               report.misclustered.size(), " misclustered reads)");
    }

    if (args.has("out"))
        writeClustersOut(args.get("out"), clusters);

    printClusterTable(purity.num_reads, purity.num_clusters, &purity,
                      secs);
    return 0;
}

int
cmdRoundtrip(const Args &args)
{
    if (args.positional().size() < 2) {
        DNASIM_FATAL("usage: dnasim roundtrip <file> "
                     "[--coverage N] [--error-rate p] "
                     "[--algo iterative] [--max-reads N]");
    }
    const size_t coverage_n = args.getCount("coverage", 6, 1);
    const double error_rate =
        args.getDouble("error-rate", 0.04, 0.0, 0.5);
    std::string algo_name = args.get("algo", "iterative");
    Rng rng(args.getSeed("seed", 0x3071));

    PipelineConfig pipeline_config;
    pipeline_config.max_reads = args.getCount("max-reads", 0);
    pipeline_config.recluster = args.has("recluster");
    pipeline_config.cluster = clusterOptionsFromArgs(args);
    ArchivalPipeline pipeline(pipeline_config);

    const std::string &path = args.positional()[1];
    std::ifstream in(path, std::ios::binary);
    if (!in)
        DNASIM_FATAL("cannot open '", path, "'");
    Bytes file((std::istreambuf_iterator<char>(in)),
               std::istreambuf_iterator<char>());

    ErrorProfile channel_profile =
        NanoporeDatasetGenerator::groundTruthProfile(
            pipeline.strandLength(), error_rate);
    IdsChannelModel channel =
        IdsChannelModel::full(channel_profile, "nanopore-like");
    FixedCoverage coverage(coverage_n);
    auto algo = makeReconstructor(algo_name);

    const bool want_lineage = args.has("lineage-out");
    LineageLog lineage;
    Dataset simulated;
    StoredObject object;
    RetrievedObject result = pipeline.roundTrip(
        file, channel, coverage, *algo, rng,
        want_lineage ? &lineage : nullptr,
        want_lineage ? &simulated : nullptr, &object);
    std::cout << "encoded " << file.size() << " bytes into "
              << object.strands.size() << " strands of length "
              << pipeline.strandLength() << "\n";
    if (want_lineage)
        writeInjectedLineage(args, simulated, lineage);
    std::cout << "retrieval " << (result.success ? "OK" : "FAILED")
              << ": erasures=" << result.stats.erasure_clusters
              << " crc-rejects="
              << result.stats.crc_failures +
                     result.stats.undecodable_strands
              << " frames-recovered="
              << result.stats.frames_recovered
              << " payload-intact="
              << (result.data == file ? "yes" : "NO") << "\n";
    return result.success && result.data == file ? 0 : 1;
}

void
checkFlags(const Args &args)
{
    if (args.positional().empty())
        return;
    const std::string &command = args.positional()[0];
    const auto it = kCommandFlags.find(command);
    if (it == kCommandFlags.end())
        return; // dispatch reports the unknown command
    for (const auto &[name, value] : args.options()) {
        if (!listed(it->second, name) && !listed(kGlobalFlags, name))
            DNASIM_FATAL("unknown flag --", name, " for 'dnasim ",
                         command, "'");
        if (!value.empty() && listed(kBooleanFlags, name))
            DNASIM_FATAL("--", name, " takes no value, got '", value,
                         "'");
    }
}

void
printUsage()
{
    std::cout <<
        "dnasim — DNA storage noisy-channel simulator\n"
        "\n"
        "usage: dnasim <command> [args]\n"
        "\n"
        "commands:\n"
        "  generate     generate a synthetic wetlab dataset\n"
        "               [--clusters N] [--length L] [--error-rate p]\n"
        "               [--coverage c] [--seed s] [--out file]\n"
        "  calibrate    fit an error profile from a dataset\n"
        "               <dataset.evyat> [--top-k K] [--out file]\n"
        "  simulate     calibrate from a dataset and re-simulate it\n"
        "               <dataset.evyat> [--model naive|conditional|\n"
        "               skew|second-order|dnasimulator] [--out file]\n"
        "               [--error-profile profile.txt]\n"
        "               [--max-reads N] [--checkpoint-dir DIR]\n"
        "               [--lineage-out lineage.jsonl]\n"
        "  ingest       pack a text read set into an mmap-backed\n"
        "               .dnapool file in bounded memory\n"
        "               <reads.{txt,fasta,evyat}>\n"
        "               [--format auto|lines|fasta|evyat]\n"
        "               [--out pool.dnapool | --checkpoint-dir DIR]\n"
        "               [--origins origins.u32] [--max-reads N]\n"
        "  explain      simulate with ground-truth lineage, "
        "reconstruct,\n"
        "               and attribute every residual error to its\n"
        "               cause <dataset.evyat> [--model M] [--algo A]\n"
        "               [--coverage N] [--recluster] [--json]\n"
        "               [--buckets B] [--lineage-out lineage.jsonl]\n"
        "  reconstruct  run trace reconstruction and report accuracy\n"
        "               <dataset.evyat> [--algo bma|bma-oneway|divbma|\n"
        "               iterative|iterative-2way|iterative-weighted|\n"
        "               majority] [--coverage N]\n"
        "               [--checkpoint-dir DIR]\n"
        "  analyze      positional error profiles and second-order\n"
        "               census <dataset.evyat> [--buckets B]\n"
        "  cluster      re-cluster a read pool and score purity\n"
        "               <dataset.evyat|pool.dnapool>\n"
        "               [--distance-threshold D] [--anchor-length A]\n"
        "               [--max-probes P] [--sketch-kmer K]\n"
        "               [--sketch-bands B] [--sketch-rows R]\n"
        "               [--shards S] [--max-reads N]\n"
        "               [--origins origins.u32]\n"
        "               [--checkpoint-dir DIR] [--out clusters.txt]\n"
        "               [--lineage-out lineage.jsonl]\n"
        "  roundtrip    store a file in simulated DNA and read it\n"
        "               back <file> [--coverage N] [--error-rate p]\n"
        "               [--algo iterative] [--recluster]\n"
        "               [--max-reads N]\n"
        "               [--lineage-out lineage.jsonl]\n"
        "  bench        noise-aware perf diff of bench reports\n"
        "               diff <baseline> <candidate> [--out FILE]\n"
        "               (exit 2 on regression)\n"
        "\n"
        "global flags (any command):\n"
        "  --stats-out FILE  write a JSON stats snapshot on exit\n"
        "  --stats           dump the stats snapshot to stderr\n"
        "  --trace-out FILE  record a Chrome/Perfetto trace JSON\n"
        "  --profile         print the hierarchical phase profile\n"
        "                    (inclusive/exclusive tree + RSS peaks)\n"
        "  --progress {auto,always,never}  live stderr status line\n"
        "                    (default auto: only on a TTY)\n"
        "  --threads N       worker threads for parallel loops,\n"
        "                    at most 1024 (default: DNASIM_THREADS\n"
        "                    env var or hardware concurrency; output\n"
        "                    is identical for every N)\n"
        "  --simd {auto,scalar,avx2,avx512}  batch alignment\n"
        "                    kernel tier (default: DNASIM_SIMD env\n"
        "                    var or the widest tier the CPU\n"
        "                    supports; output is identical for\n"
        "                    every tier)\n";
}

} // namespace dnasim

#include "core/channel_simulator.hh"

#include <ostream>

#include "base/logging.hh"
#include "obs/progress.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"
#include "par/thread_pool.hh"

namespace dnasim
{

ChannelSimulator::ChannelSimulator(const ErrorModel &model)
    : model_(model)
{}

Cluster
ChannelSimulator::simulateCluster(const Strand &reference, size_t n,
                                  Rng &rng,
                                  ClusterLineage *lineage) const
{
    Cluster cluster;
    cluster.reference = reference;
    cluster.copies.reserve(n);
    // Steady-state heap traffic here is the output strands only:
    // per-transmit scratch (e.g. the contextual channel's
    // homopolymer mask) lives in thread_local buffers inside the
    // models, sized once per worker.
    if (lineage == nullptr) {
        for (size_t k = 0; k < n; ++k)
            cluster.copies.push_back(model_.transmit(reference, rng));
        return cluster;
    }
    lineage->read_event_end.reserve(n);
    for (size_t k = 0; k < n; ++k) {
        LineageRecorder recorder(&lineage->events);
        cluster.copies.push_back(
            model_.transmit(reference, rng, recorder));
        lineage->read_event_end.push_back(
            static_cast<uint32_t>(lineage->events.size()));
    }
    return cluster;
}

namespace
{

struct SimStats
{
    obs::Counter &clusters;
    obs::Timer &time;
    obs::Distribution &cluster_size;

    static SimStats &
    get()
    {
        auto &reg = obs::Registry::global();
        static SimStats ss{
            reg.counter("channel.clusters",
                        "clusters simulated by ChannelSimulator"),
            reg.timer("channel.simulate_time",
                      "wall time in ChannelSimulator::simulate*"),
            reg.distribution("channel.cluster_size",
                             "copies per simulated cluster"),
        };
        return ss;
    }
};

} // anonymous namespace

Dataset
ChannelSimulator::simulate(const std::vector<Strand> &references,
                           const CoverageModel &coverage, Rng &rng,
                           LineageLog *lineage) const
{
    SimStats &ss = SimStats::get();
    obs::Span span("channel.simulate", "channel", ss.time);

    // Per-cluster streams: cluster i draws from rng.fork(i)
    // regardless of which thread simulates it, so the output is
    // bit-identical to the serial run for any --threads.
    // Lineage arenas are per cluster too, each touched only by the
    // worker that owns that cluster — the log needs no merge step
    // and no locks to come out identical at any thread count.
    std::vector<Cluster> clusters(references.size());
    if (lineage != nullptr)
        lineage->beginRun(references.size());
    obs::ProgressScope progress("simulate", references.size());
    par::parallelFor(0, references.size(), [&](size_t i) {
        Rng cluster_rng = rng.fork(i);
        size_t n = coverage.sample(i, cluster_rng);
        clusters[i] = simulateCluster(
            references[i], n, cluster_rng,
            lineage != nullptr ? &lineage->cluster(i) : nullptr);
        ss.clusters.inc();
        ss.cluster_size.record(n);
        progress.advance();
    });
    return Dataset(std::move(clusters));
}

PoolSimulateResult
ChannelSimulator::simulateToPool(const StrandPoolView &references,
                                 const CoverageModel &coverage,
                                 Rng &rng,
                                 PackedStrandPoolBuilder &reads_out,
                                 std::ostream *origins_out,
                                 const PoolSimulateOptions &options) const
{
    SimStats &ss = SimStats::get();
    obs::Span span("channel.simulateToPool", "channel", ss.time);
    DNASIM_ASSERT(options.chunk_clusters > 0, "zero chunk size");

    PoolSimulateResult result;
    const size_t n = references.size();
    std::vector<Cluster> chunk;
    obs::ProgressScope progress("simulate", n);
    for (size_t lo = 0; lo < n && !result.truncated;
         lo += options.chunk_clusters) {
        const size_t len = std::min(options.chunk_clusters, n - lo);
        chunk.assign(len, Cluster{});
        par::parallelFor(0, len, [&](size_t k) {
            // Streams are forked by *global* cluster index, so
            // cluster i draws exactly the numbers simulate() would —
            // chunking is invisible in the output.
            Rng cluster_rng = rng.fork(lo + k);
            thread_local Strand ref;
            references.materialize(lo + k, ref);
            const size_t copies = coverage.sample(lo + k, cluster_rng);
            chunk[k] = simulateCluster(ref, copies, cluster_rng);
            ss.clusters.inc();
            ss.cluster_size.record(copies);
            progress.advance();
        });
        // Serial drain keeps builder appends in cluster order.
        for (size_t k = 0; k < len && !result.truncated; ++k) {
            const auto origin = static_cast<uint32_t>(lo + k);
            bool contributed = false;
            for (const Strand &copy : chunk[k].copies) {
                if (options.max_reads != 0 &&
                    result.reads >= options.max_reads) {
                    result.truncated = true;
                    break;
                }
                const bool ok = reads_out.append(copy);
                DNASIM_ASSERT(ok, "channel emitted a non-ACGT read");
                if (origins_out != nullptr) {
                    origins_out->write(
                        reinterpret_cast<const char *>(&origin),
                        sizeof(origin));
                }
                ++result.reads;
                contributed = true;
            }
            if (contributed || chunk[k].copies.empty())
                ++result.clusters;
        }
    }
    return result;
}

Dataset
ChannelSimulator::simulateLike(const Dataset &shape, Rng &rng,
                               LineageLog *lineage) const
{
    SimStats &ss = SimStats::get();
    obs::Span span("channel.simulateLike", "channel", ss.time);

    std::vector<Cluster> clusters(shape.size());
    if (lineage != nullptr)
        lineage->beginRun(shape.size());
    obs::ProgressScope progress("simulate", shape.size());
    par::parallelFor(0, shape.size(), [&](size_t i) {
        Rng cluster_rng = rng.fork(i);
        clusters[i] = simulateCluster(
            shape[i].reference, shape[i].coverage(), cluster_rng,
            lineage != nullptr ? &lineage->cluster(i) : nullptr);
        ss.clusters.inc();
        ss.cluster_size.record(shape[i].coverage());
        progress.advance();
    });
    return Dataset(std::move(clusters));
}

} // namespace dnasim

#include "core/channel_simulator.hh"

#include <ostream>

#include "base/logging.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"
#include "par/thread_pool.hh"

namespace dnasim
{

ChannelSimulator::ChannelSimulator(const ErrorModel &model)
    : model_(model)
{}

Cluster
ChannelSimulator::simulateCluster(std::string_view reference, size_t n,
                                  Rng &rng,
                                  ClusterLineage *lineage) const
{
    Cluster cluster;
    cluster.reference.assign(reference);
    cluster.copies.reserve(n);
    // Steady-state heap traffic here is the output strands only:
    // per-transmit scratch (e.g. the contextual channel's
    // homopolymer mask) lives in thread_local buffers inside the
    // models, sized once per worker.
    if (lineage == nullptr) {
        for (size_t k = 0; k < n; ++k)
            cluster.copies.push_back(
                model_.transmit(cluster.reference, rng));
        return cluster;
    }
    lineage->read_event_end.reserve(n);
    for (size_t k = 0; k < n; ++k) {
        LineageRecorder recorder(&lineage->events);
        cluster.copies.push_back(
            model_.transmit(cluster.reference, rng, recorder));
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

/// Clusters simulateToPool() holds in RAM at a time.
constexpr size_t kPoolChunkClusters = 4096;

/**
 * The one per-cluster loop behind every driver: cluster lo + k lands
 * in out[k] and draws from rng.fork(lo + k) whichever worker runs
 * it, so the output is bit-identical to the serial run at any
 * --threads and however the run is chunked. Each lineage arena is
 * touched only by the worker that owns its cluster, so the log needs
 * no merge and no locks either.
 */
void
simulateRange(const ChannelSimulator &sim,
              const StrandPoolView &references, size_t lo,
              const CoverageModel &coverage, const Rng &rng,
              LineageLog *lineage, std::vector<Cluster> &out,
              obs::Span &span)
{
    SimStats &ss = SimStats::get();
    par::parallelFor(0, out.size(), [&](size_t k) {
        const size_t i = lo + k;
        thread_local Strand scratch;
        Rng cluster_rng = rng.fork(i);
        const size_t n = coverage.sample(i, cluster_rng);
        out[k] = sim.simulateCluster(
            references.chars(i, scratch), n, cluster_rng,
            lineage != nullptr ? &lineage->cluster(i) : nullptr);
        ss.clusters.inc();
        ss.cluster_size.record(n);
        span.advance();
    });
}

} // anonymous namespace

Dataset
ChannelSimulator::simulate(const std::vector<Strand> &references,
                           const CoverageModel &coverage, Rng &rng,
                           LineageLog *lineage) const
{
    obs::Span span("channel.simulate", "channel", SimStats::get().time,
                   references.size());
    std::vector<Cluster> clusters(references.size());
    if (lineage != nullptr)
        lineage->beginRun(references.size());
    simulateRange(*this, StrandPoolView(references), 0, coverage, rng,
                  lineage, clusters, span);
    return Dataset(std::move(clusters));
}

PoolSimulateResult
ChannelSimulator::simulateToPool(const StrandPoolView &references,
                                 const CoverageModel &coverage,
                                 Rng &rng,
                                 PackedStrandPoolBuilder &reads_out,
                                 std::ostream *origins_out,
                                 size_t max_reads) const
{
    const size_t n = references.size();
    obs::Span span("channel.simulateToPool", "channel",
                   SimStats::get().time, n);
    PoolSimulateResult result;
    std::vector<Cluster> chunk;
    for (size_t lo = 0; lo < n && !result.truncated;
         lo += kPoolChunkClusters) {
        chunk.assign(std::min(kPoolChunkClusters, n - lo), Cluster{});
        simulateRange(*this, references, lo, coverage, rng, nullptr,
                      chunk, span);
        // Serial drain keeps builder appends in cluster order.
        for (size_t k = 0; k < chunk.size() && !result.truncated; ++k) {
            const auto origin = static_cast<uint32_t>(lo + k);
            bool contributed = false;
            for (const Strand &copy : chunk[k].copies) {
                if (max_reads != 0 && result.reads >= max_reads) {
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
    return simulate(shape.references(), CustomCoverage(shape.coverages()),
                    rng, lineage);
}

} // namespace dnasim

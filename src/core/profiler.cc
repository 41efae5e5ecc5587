#include "core/profiler.hh"

#include <algorithm>
#include <map>

#include "align/edit_distance.hh"
#include "align/gestalt.hh"
#include "base/logging.hh"
#include "core/channel_simulator.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"
#include "par/thread_pool.hh"
#include "stats/histogram.hh"

namespace dnasim
{

namespace
{

/// Smoothing floor for the aggregate spatial profile, relative to
/// the mean positional mass.
constexpr double kSpatialFloor = 0.05;
/// Smoothing floor for per-second-order-error spatial profiles
/// (sparser data, stronger floor).
constexpr double kSecondOrderFloor = 0.10;
/// Copies with more edit errors than this fraction of the reference
/// length are clustering artifacts, not channel observations.
constexpr double kMaxCopyErrorFrac = 0.30;
/// Clusters per calibration accumulator. A constant, so the
/// partition never depends on the thread count. Small enough that a
/// few dozen clusters still spread over the workers, large enough
/// that the serial merge of a 2,000-cluster run is 250 partials.
constexpr size_t kCalibrateChunkClusters = 8;

/** Ordering for use as a map key. */
struct KeyLess
{
    bool
    operator()(const SecondOrderKey &a, const SecondOrderKey &b) const
    {
        if (a.type != b.type)
            return a.type < b.type;
        if (a.base != b.base)
            return a.base < b.base;
        return a.repl < b.repl;
    }
};

struct SecondOrderCount
{
    uint64_t count = 0;
    Histogram positions;
};

struct ProfilerStats
{
    obs::Timer &calibrate_time;
    obs::Counter &pairs_profiled;
    obs::Counter &pairs_skipped;

    static ProfilerStats &
    get()
    {
        auto &reg = obs::Registry::global();
        static ProfilerStats ps{
            reg.timer("profiler.calibrate_time",
                      "wall time in calibrate()"),
            reg.counter("profiler.pairs",
                        "(reference, copy) pairs profiled"),
            reg.counter("profiler.pairs_skipped",
                        "pairs dropped as clustering artifacts"),
        };
        return ps;
    }
};

/**
 * Everything calibrate() counts, gathered per chunk of clusters and
 * merged in chunk order. Every field is an integer sum, a max or a
 * keyed map of sums, so merging partial accumulators reproduces the
 * serial totals exactly regardless of how clusters were partitioned.
 */
struct CalibrationAccum
{
    std::array<uint64_t, kNumBases> base_occurrences{};
    std::array<uint64_t, kNumBases> sub_counts{};
    std::array<uint64_t, kNumBases> ins_counts{};
    std::array<uint64_t, kNumBases> single_del_counts{};
    std::array<std::array<uint64_t, kNumBases>, kNumBases> confusion{};
    std::array<uint64_t, kNumBases> insert_base_counts{};
    uint64_t total_positions = 0;
    uint64_t total_subs = 0, total_ins = 0, total_deleted_bases = 0;
    uint64_t long_del_starts = 0;
    Histogram long_del_lengths;
    Histogram spatial;
    uint64_t positions_in_runs = 0, positions_outside_runs = 0;
    uint64_t errors_in_runs = 0, errors_outside_runs = 0;
    std::map<SecondOrderKey, SecondOrderCount, KeyLess> census;
    size_t design_length = 0;

    void absorbCluster(const Cluster &cluster, Rng &rng);
    void merge(CalibrationAccum &&other);
};

void
CalibrationAccum::absorbCluster(const Cluster &cluster, Rng &rng)
{
    ProfilerStats &ps = ProfilerStats::get();

    const Strand &ref = cluster.reference;
    if (ref.empty() || cluster.copies.empty())
        return;
    design_length = std::max(design_length, ref.size());

    auto ref_bases = baseCounts(ref);
    auto run_mask = homopolymerRunMask(
        ref, ErrorProfile::kHomopolymerRunLength);
    size_t run_positions = 0;
    for (bool b : run_mask)
        run_positions += b ? 1 : 0;

    // One Peq table build for the cluster reference, shared by every
    // copy's forward pass.
    thread_local MyersPattern pattern;
    thread_local std::vector<EditOp> ops;
    pattern.assign(ref);
    for (const Strand &copy : cluster.copies) {
        editOpsInto(pattern, ref, copy, &rng, ops);
        if (static_cast<double>(numErrors(ops)) >
            kMaxCopyErrorFrac * static_cast<double>(ref.size())) {
            // Alien or truncated read — a clustering artifact,
            // not a channel observation.
            ps.pairs_skipped.inc();
            continue;
        }
        ps.pairs_profiled.inc();
        total_positions += ref.size();
        for (size_t b = 0; b < kNumBases; ++b)
            base_occurrences[b] += ref_bases[b];
        positions_in_runs += run_positions;
        positions_outside_runs += ref.size() - run_positions;
        for (const auto &op : ops) {
            if (op.type == EditOpType::Equal)
                continue;
            size_t pos = std::min(op.ref_pos, ref.size() - 1);
            if (run_mask[pos])
                ++errors_in_runs;
            else
                ++errors_outside_runs;
        }

        for (size_t pos : gestaltErrorPositions(ref, copy))
            spatial.add(pos);

        auto clamp_pos = [&](size_t p) {
            return std::min(p, ref.size() - 1);
        };

        // Non-deletion ops first; deletions handled per run.
        for (const auto &op : ops) {
            switch (op.type) {
              case EditOpType::Equal:
              case EditOpType::Delete:
                break;
              case EditOpType::Substitute: {
                size_t b = baseIndex(op.ref_base);
                size_t r = baseIndex(op.copy_base);
                ++sub_counts[b];
                ++confusion[b][r];
                ++total_subs;
                SecondOrderKey key{EditOpType::Substitute,
                                   op.ref_base, op.copy_base};
                auto &entry = census[key];
                ++entry.count;
                entry.positions.add(op.ref_pos);
                break;
              }
              case EditOpType::Insert: {
                size_t pos = clamp_pos(op.ref_pos);
                size_t b = baseIndex(ref[pos]);
                ++ins_counts[b];
                ++insert_base_counts[baseIndex(op.copy_base)];
                ++total_ins;
                SecondOrderKey key{EditOpType::Insert, op.copy_base,
                                   '\0'};
                auto &entry = census[key];
                ++entry.count;
                entry.positions.add(pos);
                break;
              }
            }
        }

        for (const auto &run : deletionRuns(ops)) {
            total_deleted_bases += run.length;
            if (run.length == 1) {
                size_t b = baseIndex(ref[run.ref_pos]);
                ++single_del_counts[b];
                SecondOrderKey key{EditOpType::Delete,
                                   ref[run.ref_pos], '\0'};
                auto &entry = census[key];
                ++entry.count;
                entry.positions.add(run.ref_pos);
            } else {
                ++long_del_starts;
                long_del_lengths.add(run.length);
            }
        }
    }
}

void
CalibrationAccum::merge(CalibrationAccum &&other)
{
    for (size_t b = 0; b < kNumBases; ++b) {
        base_occurrences[b] += other.base_occurrences[b];
        sub_counts[b] += other.sub_counts[b];
        ins_counts[b] += other.ins_counts[b];
        single_del_counts[b] += other.single_del_counts[b];
        insert_base_counts[b] += other.insert_base_counts[b];
        for (size_t r = 0; r < kNumBases; ++r)
            confusion[b][r] += other.confusion[b][r];
    }
    total_positions += other.total_positions;
    total_subs += other.total_subs;
    total_ins += other.total_ins;
    total_deleted_bases += other.total_deleted_bases;
    long_del_starts += other.long_del_starts;
    long_del_lengths.merge(other.long_del_lengths);
    spatial.merge(other.spatial);
    positions_in_runs += other.positions_in_runs;
    positions_outside_runs += other.positions_outside_runs;
    errors_in_runs += other.errors_in_runs;
    errors_outside_runs += other.errors_outside_runs;
    for (auto &[key, entry] : other.census) {
        auto &mine = census[key];
        mine.count += entry.count;
        mine.positions.merge(entry.positions);
    }
    design_length = std::max(design_length, other.design_length);
}

} // anonymous namespace

ErrorProfiler::ErrorProfiler(ProfilerOptions options)
    : options_(options)
{}

ErrorProfile
ErrorProfiler::calibrate(const Dataset &data) const
{
    ProfilerStats &ps = ProfilerStats::get();
    obs::Span span("profiler.calibrate", "profiler", ps.calibrate_time);

    // One tie-breaking stream per cluster, forked by cluster index,
    // so pair alignment parallelizes without the backtrace draws
    // depending on the processing order.
    const Rng root(kProfilerSeed);

    // One accumulator per fixed chunk of clusters, merged in chunk
    // order: identical totals for any thread count.
    const size_t chunks =
        (data.size() + kCalibrateChunkClusters - 1) /
        kCalibrateChunkClusters;
    std::vector<CalibrationAccum> partials = par::parallelTransform(
        chunks, [&](size_t chunk) {
            const size_t begin = chunk * kCalibrateChunkClusters;
            const size_t end =
                std::min(data.size(), begin + kCalibrateChunkClusters);
            CalibrationAccum local;
            for (size_t i = begin; i < end; ++i) {
                Rng cluster_rng = root.fork(i);
                local.absorbCluster(data[i], cluster_rng);
            }
            return local;
        });
    CalibrationAccum acc;
    for (auto &partial : partials)
        acc.merge(std::move(partial));

    if (acc.total_positions == 0)
        DNASIM_FATAL("cannot calibrate: dataset has no "
                     "(reference, copy) pairs");

    ErrorProfile p;
    p.design_length = acc.design_length;

    auto rate = [](uint64_t num, uint64_t den) {
        return den == 0 ? 0.0
                        : static_cast<double>(num) /
                              static_cast<double>(den);
    };

    p.p_sub = rate(acc.total_subs, acc.total_positions);
    p.p_ins = rate(acc.total_ins, acc.total_positions);
    p.p_del = rate(acc.total_deleted_bases, acc.total_positions);

    for (size_t b = 0; b < kNumBases; ++b) {
        p.p_sub_given[b] =
            rate(acc.sub_counts[b], acc.base_occurrences[b]);
        p.p_ins_given[b] =
            rate(acc.ins_counts[b], acc.base_occurrences[b]);
        p.p_del_given[b] =
            rate(acc.single_del_counts[b], acc.base_occurrences[b]);
        for (size_t r = 0; r < kNumBases; ++r)
            p.confusion[b][r] =
                rate(acc.confusion[b][r], acc.sub_counts[b]);
    }

    uint64_t total_inserted = 0;
    for (uint64_t c : acc.insert_base_counts)
        total_inserted += c;
    for (size_t b = 0; b < kNumBases; ++b)
        p.insert_base[b] =
            rate(acc.insert_base_counts[b], total_inserted);

    p.p_long_del = rate(acc.long_del_starts, acc.total_positions);
    if (acc.long_del_lengths.numBins() > 2) {
        // Bin i of the histogram is run length i; weights start at 2.
        for (size_t len = 2; len < acc.long_del_lengths.numBins();
             ++len) {
            p.long_del_len_weights.push_back(static_cast<double>(
                acc.long_del_lengths.count(len)));
        }
    }

    p.spatial = PositionProfile::fromHistogram(
        acc.spatial, acc.design_length, kSpatialFloor);

    if (acc.positions_in_runs > 0 && acc.positions_outside_runs > 0 &&
        acc.errors_outside_runs > 0) {
        double rate_in =
            rate(acc.errors_in_runs, acc.positions_in_runs);
        double rate_out =
            rate(acc.errors_outside_runs, acc.positions_outside_runs);
        p.homopolymer_mult = rate_in / rate_out;
    }

    // Top-K second-order errors by count. stable_sort keeps the
    // KeyLess order among equal counts, so the selection is
    // deterministic.
    std::vector<std::pair<SecondOrderKey, const SecondOrderCount *>>
        ranked;
    ranked.reserve(acc.census.size());
    for (const auto &[key, entry] : acc.census)
        ranked.emplace_back(key, &entry);
    std::stable_sort(ranked.begin(), ranked.end(),
                     [](const auto &a, const auto &b) {
                         return a.second->count > b.second->count;
                     });
    size_t keep = std::min(options_.top_second_order, ranked.size());
    for (size_t i = 0; i < keep; ++i) {
        const auto &[key, entry] = ranked[i];
        SecondOrderSpec spec;
        spec.key = key;
        spec.count = entry->count;
        if (key.type == EditOpType::Insert) {
            spec.rate = rate(entry->count, acc.total_positions);
        } else {
            spec.rate =
                rate(entry->count,
                     acc.base_occurrences[baseIndex(key.base)]);
        }
        spec.spatial = PositionProfile::fromHistogram(
            entry->positions, acc.design_length, kSecondOrderFloor);
        p.second_order.push_back(std::move(spec));
    }

    return p;
}

} // namespace dnasim

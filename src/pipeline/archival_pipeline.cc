#include "pipeline/archival_pipeline.hh"

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <optional>

#include "base/logging.hh"
#include "cluster/recluster.hh"
#include "codec/reed_solomon.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"
#include "par/thread_pool.hh"

namespace dnasim
{

namespace
{

struct PipelineStats
{
    obs::Counter &frames_encoded;
    obs::Counter &strands_encoded;
    obs::Counter &clusters_retrieved;
    obs::Counter &erasures;
    obs::Counter &undecodable;
    obs::Counter &crc_failures;
    obs::Counter &frames_recovered;
    obs::Counter &frames_corrected;
    obs::Counter &stripes_failed;
    obs::Timer &store_time;
    obs::Timer &retrieve_time;
    obs::Distribution &reconstruct_us;

    static PipelineStats &
    get()
    {
        auto &reg = obs::Registry::global();
        static PipelineStats ps{
            reg.counter("pipeline.frames_encoded",
                        "frames (data + parity) encoded by store()"),
            reg.counter("pipeline.strands_encoded",
                        "DNA strands emitted by store()"),
            reg.counter("pipeline.clusters_retrieved",
                        "clusters processed by retrieve()"),
            reg.counter("pipeline.erasure_clusters",
                        "clusters lost entirely in the channel"),
            reg.counter("pipeline.undecodable_strands",
                        "reconstructed strands the codec rejected"),
            reg.counter("pipeline.crc_failures",
                        "frames dropped by CRC/unpack checks"),
            reg.counter("pipeline.frames_recovered",
                        "frames rebuilt from logical redundancy"),
            reg.counter("pipeline.frames_corrected",
                        "received frames whose bytes logical redundancy "
                        "corrected"),
            reg.counter("pipeline.rs_decode_failures",
                        "redundancy stripes that failed to decode"),
            reg.timer("pipeline.store_time",
                      "wall time in ArchivalPipeline::store"),
            reg.timer("pipeline.retrieve_time",
                      "wall time in ArchivalPipeline::retrieve"),
            reg.distribution("pipeline.reconstruct_us",
                             "per-cluster reconstruct latency in "
                             "retrieve(), microseconds"),
        };
        return ps;
    }
};

/// What retrieve() made of one cluster.
struct ClusterYield
{
    enum Outcome
    {
        Erasure,     ///< no copies to reconstruct from
        Undecodable, ///< the codec rejected the estimate
        CrcFailure,  ///< decoded, but the frame failed its checks
        Decoded,     ///< frame holds a CRC-valid frame
    };
    Outcome outcome = Erasure;
    Frame frame;
};

/// A stripe's data slot past the last data frame: zero padding.
constexpr size_t kPadding = SIZE_MAX;

/// RS stripes over @p d data frames, @p k per stripe (none without
/// parity).
size_t
numStripes(size_t d, size_t k, size_t parity)
{
    return parity > 0 ? (d + k - 1) / k : 0;
}

/**
 * Frame index of slot j of RS stripe @p stripe — k data slots, then
 * @p parity parity slots — or kPadding past the last of @p d data
 * frames.
 */
size_t
stripeFrame(size_t stripe, size_t j, size_t k, size_t parity, size_t d)
{
    if (j >= k)
        return d + stripe * parity + (j - k);
    const size_t frame = stripe * k + j;
    return frame < d ? frame : kPadding;
}

/// Frames by index; an empty slot was lost.
using FrameTable = std::vector<std::optional<Frame>>;

/**
 * Logical-redundancy recovery. Byte b of an RS stripe's frames is one
 * codeword, and every stripe is decoded for errors as well as
 * erasures, the stripes in parallel. A stripe that decodes rebuilds
 * its lost data frames in @p received and writes its corrections
 * back into the received ones; a stripe past the code's reach, or
 * whose decode puts a non-zero byte into a padding slot, fails.
 * Counts rebuilt frames, corrected frames and failed stripes into
 * @p stats, and returns how many stripes failed with every data
 * frame present: wrong data that nothing could locate.
 */
size_t
recoverStripes(FrameTable &received, size_t d, size_t k, size_t parity,
               size_t payload, RetrievalStats &stats)
{
    obs::Span span("pipeline.recover", "pipeline");
    const size_t stripes = numStripes(d, k, parity);
    if (stripes == 0)
        return 0;
    struct StripeOutcome
    {
        size_t recovered = 0;
        size_t corrected = 0;
        bool failed = false;
        bool data_present = false;
    };
    const ReedSolomon rs(parity);
    // Each stripe reads and writes only its own frames' slots.
    const std::vector<StripeOutcome> outcomes =
        par::parallelTransform(stripes, [&](size_t stripe) {
            StripeOutcome out;
            // Each slot's received frame (null when lost or padding)
            // and the lost slots in slot order, data first.
            std::vector<Frame *> slots(k + parity, nullptr);
            std::vector<size_t> erasures;
            for (size_t j = 0; j < k + parity; ++j) {
                const size_t f = stripeFrame(stripe, j, k, parity, d);
                if (f == kPadding)
                    continue;
                if (received[f])
                    slots[j] = &*received[f];
                else
                    erasures.push_back(j);
            }
            out.data_present = erasures.empty() || erasures.front() >= k;
            out.failed = erasures.size() > parity;

            // Decode column by column into the stripe's data payloads.
            std::vector<Bytes> decoded(k, Bytes(payload, 0));
            std::vector<uint8_t> codeword(k + parity);
            for (size_t b = 0; b < payload && !out.failed; ++b) {
                for (size_t j = 0; j < k + parity; ++j)
                    codeword[j] =
                        slots[j] != nullptr ? slots[j]->payload[b] : 0;
                const auto column = rs.decode(codeword, erasures);
                out.failed = !column.has_value();
                for (size_t j = 0; j < k && !out.failed; ++j)
                    decoded[j][b] = (*column)[j];
            }
            for (size_t j = 0; j < k && !out.failed; ++j) {
                if (stripeFrame(stripe, j, k, parity, d) == kPadding &&
                    std::any_of(decoded[j].begin(), decoded[j].end(),
                                [](uint8_t v) { return v != 0; }))
                    out.failed = true;
            }
            if (out.failed)
                return out;

            for (size_t j = 0; j < k; ++j) {
                const size_t f = stripeFrame(stripe, j, k, parity, d);
                if (f == kPadding)
                    continue;
                if (slots[j] == nullptr) {
                    received[f] = Frame{static_cast<uint32_t>(f),
                                        std::move(decoded[j])};
                    ++out.recovered;
                } else if (slots[j]->payload != decoded[j]) {
                    slots[j]->payload = std::move(decoded[j]);
                    ++out.corrected;
                }
            }
            return out;
        });

    size_t undetectable = 0;
    for (const StripeOutcome &out : outcomes) {
        stats.frames_recovered += out.recovered;
        stats.frames_corrected += out.corrected;
        if (out.failed) {
            ++stats.stripes_failed;
            if (out.data_present)
                ++undetectable;
        }
    }
    return undetectable;
}

} // anonymous namespace

ArchivalPipeline::ArchivalPipeline(PipelineConfig config)
    : config_(config),
      frame_codec_(config.payload_bytes, config.index_bytes)
{
    if (config_.rs_parity > 0) {
        DNASIM_ASSERT(config_.rs_stripe_data > 0,
                      "bad RS stripe configuration");
        DNASIM_ASSERT(config_.rs_stripe_data + config_.rs_parity <= 255,
                      "RS stripe exceeds 255 symbols");
    }
}

size_t
ArchivalPipeline::strandLength() const
{
    return codec_.encodedLength(frame_codec_.frameBytes());
}

StoredObject
ArchivalPipeline::store(const Bytes &file) const
{
    PipelineStats &ps = PipelineStats::get();
    obs::Span span("pipeline.store", "pipeline", ps.store_time);

    StoredObject object;
    object.file_size = file.size();

    std::vector<Frame> frames = frame_codec_.split(file);
    object.num_data_frames = frames.size();
    const size_t d = frames.size();
    const size_t payload = config_.payload_bytes;

    // Every parity frame sits at its final index up front, so each
    // stripe fills only its own, column-wise, in parallel.
    const size_t k = config_.rs_stripe_data;
    const size_t parity = config_.rs_parity;
    const size_t stripes = numStripes(d, k, parity);
    for (size_t f = d; f < d + stripes * parity; ++f)
        frames.push_back(
            Frame{static_cast<uint32_t>(f), Bytes(payload, 0)});
    par::parallelFor(0, stripes, [&](size_t stripe) {
        const ReedSolomon rs(parity);
        std::vector<uint8_t> column(k);
        for (size_t b = 0; b < payload; ++b) {
            for (size_t i = 0; i < k; ++i) {
                const size_t f = stripeFrame(stripe, i, k, parity, d);
                column[i] = f == kPadding ? 0 : frames[f].payload[b];
            }
            const auto codeword = rs.encode(column);
            for (size_t p = 0; p < parity; ++p)
                frames[d + stripe * parity + p].payload[b] =
                    codeword[k + p];
        }
    });

    object.num_total_frames = frames.size();
    object.strands = par::parallelTransform(frames.size(), [&](size_t i) {
        return codec_.encode(frame_codec_.pack(frames[i]));
    });
    ps.frames_encoded.add(frames.size());
    ps.strands_encoded.add(object.strands.size());
    return object;
}

RetrievedObject
ArchivalPipeline::retrieve(const Dataset &clusters,
                           const Reconstructor &algo,
                           const StoredObject &object, Rng &rng) const
{
    PipelineStats &ps = PipelineStats::get();
    obs::Span span("pipeline.retrieve", "pipeline", ps.retrieve_time,
                   clusters.size());

    RetrievedObject result;
    auto &stats = result.stats;
    stats.clusters = clusters.size();
    ps.clusters_retrieved.add(clusters.size());

    const size_t d = object.num_data_frames;
    const size_t total = object.num_total_frames;
    const size_t payload = config_.payload_bytes;
    const size_t k = config_.rs_stripe_data;
    const size_t parity = config_.rs_parity;
    const size_t stripes = numStripes(d, k, parity);
    DNASIM_ASSERT(total == d + stripes * parity,
                  "stored object does not match the pipeline's "
                  "stripe layout");

    // Reconstruct, decode and parse every cluster in parallel. Each
    // cluster's Rng is forked by its index, so the yields are the
    // serial run's at any thread count.
    std::vector<ClusterYield> yields;
    {
        obs::Span reconstruct_span("pipeline.reconstruct", "pipeline");
        const size_t design_len = strandLength();
        yields = par::parallelTransform(clusters.size(), [&](size_t i) {
            span.advance();
            ClusterYield yield;
            if (clusters[i].isErasure())
                return yield;
            Rng cluster_rng = rng.fork(i);
            const auto start = std::chrono::steady_clock::now();
            Strand estimate = algo.reconstruct(clusters[i].copies,
                                               design_len, cluster_rng);
            ps.reconstruct_us.record(static_cast<uint64_t>(
                std::chrono::duration_cast<std::chrono::microseconds>(
                    std::chrono::steady_clock::now() - start)
                    .count()));
            auto raw = codec_.decode(estimate,
                                     frame_codec_.frameBytes());
            yield.outcome = ClusterYield::Undecodable;
            if (!raw)
                return yield;
            auto frame = frame_codec_.unpack(*raw);
            yield.outcome = ClusterYield::CrcFailure;
            if (!frame)
                return yield;
            yield.outcome = ClusterYield::Decoded;
            yield.frame = std::move(*frame);
            return yield;
        });
    }

    // Fold the yields in cluster order into a table of frames by
    // index: the first cluster to yield an index keeps it.
    FrameTable received(total);
    for (ClusterYield &yield : yields) {
        switch (yield.outcome) {
          case ClusterYield::Erasure:
            ++stats.erasure_clusters;
            break;
          case ClusterYield::Undecodable:
            ++stats.undecodable_strands;
            break;
          case ClusterYield::CrcFailure:
            ++stats.crc_failures;
            break;
          case ClusterYield::Decoded:
            if (yield.frame.index < total && !received[yield.frame.index])
                received[yield.frame.index] = std::move(yield.frame);
            break;
        }
    }
    ps.erasures.add(stats.erasure_clusters);
    ps.undecodable.add(stats.undecodable_strands);
    ps.crc_failures.add(stats.crc_failures);

    const size_t wrong_stripes =
        recoverStripes(received, d, k, parity, payload, stats);
    ps.frames_recovered.add(stats.frames_recovered);
    ps.frames_corrected.add(stats.frames_corrected);
    ps.stripes_failed.add(stats.stripes_failed);

    // Reassemble the data frames.
    std::vector<Frame> data_frames;
    data_frames.reserve(d);
    for (size_t i = 0; i < d; ++i)
        if (received[i])
            data_frames.push_back(std::move(*received[i]));
    std::vector<uint32_t> missing;
    Bytes stream = frame_codec_.reassemble(data_frames, d, &missing);
    stream.resize(object.file_size);
    result.data = std::move(stream);
    result.success = missing.empty() && wrong_stripes == 0;
    return result;
}

RetrievedObject
ArchivalPipeline::roundTrip(const Bytes &file, const ErrorModel &model,
                            const CoverageModel &coverage,
                            const Reconstructor &algo, Rng &rng,
                            LineageLog *lineage, Dataset *simulated,
                            StoredObject *stored) const
{
    StoredObject object = store(file);
    ChannelSimulator sim(model);
    Rng channel_rng = rng.fork(0xc4a);
    Dataset clusters =
        sim.simulate(object.strands, coverage, channel_rng, lineage);
    if (config_.max_reads > 0)
        clusters.truncateReads(config_.max_reads);
    if (simulated != nullptr)
        *simulated = clusters;
    if (config_.recluster) {
        // Throw away the simulator's pseudo-clustering: pool the
        // reads, shuffle them into wetlab order, and re-group them by
        // edit-distance similarity. Retrieval does not need the true
        // origins — frames carry their own indices — so imperfect
        // clusters only cost decode attempts, not correctness.
        obs::Span cluster_span("pipeline.recluster", "pipeline");
        Rng shuffle_rng = rng.fork(0x5eed);
        clusters = poolAndRecluster(std::move(clusters), config_.cluster,
                                    shuffle_rng)
                       .regrouped();
    }
    Rng decode_rng = rng.fork(0xdec0de);
    RetrievedObject result = retrieve(clusters, algo, object, decode_rng);
    if (stored != nullptr)
        *stored = std::move(object);
    return result;
}

} // namespace dnasim

#include "pipeline/archival_pipeline.hh"

#include <algorithm>
#include <cstdint>
#include <map>

#include "base/logging.hh"
#include "cluster/recluster.hh"
#include "codec/reed_solomon.hh"
#include "obs/stats.hh"
#include "obs/trace.hh"

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
    obs::Counter &stripes_failed;
    obs::Timer &store_time;
    obs::Timer &retrieve_time;

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
            reg.counter("pipeline.rs_decode_failures",
                        "redundancy stripes that failed to decode"),
            reg.timer("pipeline.store_time",
                      "wall time in ArchivalPipeline::store"),
            reg.timer("pipeline.retrieve_time",
                      "wall time in ArchivalPipeline::retrieve"),
        };
        return ps;
    }
};

/// A stripe's data slot past the last data frame: zero padding.
constexpr size_t kPadding = SIZE_MAX;

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

const DnaCodec &
ArchivalPipeline::codec() const
{
    if (config_.rotating_codec)
        return rotating_;
    return trivial_;
}

size_t
ArchivalPipeline::strandLength() const
{
    return codec().encodedLength(frame_codec_.frameBytes());
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

    const size_t k = config_.rs_stripe_data;
    const size_t parity = config_.rs_parity;
    if (parity > 0) {
        ReedSolomon rs(parity);
        for (size_t stripe = 0; stripe < (d + k - 1) / k; ++stripe) {
            // Parity frames for this stripe, filled column-wise.
            const size_t first = frames.size();
            for (size_t p = 0; p < parity; ++p)
                frames.push_back(Frame{static_cast<uint32_t>(first + p),
                                       Bytes(payload, 0)});
            for (size_t b = 0; b < payload; ++b) {
                std::vector<uint8_t> column(k, 0);
                for (size_t i = 0; i < k; ++i) {
                    const size_t f = stripeFrame(stripe, i, k, parity, d);
                    if (f != kPadding)
                        column[i] = frames[f].payload[b];
                }
                const auto codeword = rs.encode(column);
                for (size_t p = 0; p < parity; ++p)
                    frames[first + p].payload[b] = codeword[k + p];
            }
        }
    }

    object.num_total_frames = frames.size();
    object.strands.reserve(frames.size());
    for (const auto &f : frames)
        object.strands.push_back(codec().encode(frame_codec_.pack(f)));
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

    // Reconstruct and parse every cluster into frames by index.
    std::map<uint32_t, Frame> received;
    const size_t design_len = strandLength();
    for (size_t i = 0; i < clusters.size(); ++i) {
        span.advance();
        if (clusters[i].isErasure()) {
            ++stats.erasure_clusters;
            ps.erasures.inc();
            continue;
        }
        Rng cluster_rng = rng.fork(i);
        Strand estimate = algo.reconstruct(clusters[i].copies,
                                           design_len, cluster_rng);
        auto raw = codec().decode(estimate,
                                  frame_codec_.frameBytes());
        if (!raw) {
            ++stats.undecodable_strands;
            ps.undecodable.inc();
            continue;
        }
        auto frame = frame_codec_.unpack(*raw);
        if (!frame) {
            ++stats.crc_failures;
            ps.crc_failures.inc();
            continue;
        }
        if (frame->index < total)
            received.emplace(frame->index, std::move(*frame));
    }

    // Logical-redundancy recovery (none when rs_parity is 0): byte b
    // of a stripe's frames is one RS codeword.
    const size_t k = config_.rs_stripe_data;
    const size_t parity = config_.rs_parity;
    const size_t stripes = parity > 0 ? (d + k - 1) / k : 0;
    for (size_t stripe = 0; stripe < stripes; ++stripe) {
        // Each slot's received payload (null when lost or padding)
        // and the lost slots in slot order, data first.
        std::vector<const Bytes *> slots(k + parity, nullptr);
        std::vector<size_t> erasures;
        for (size_t j = 0; j < k + parity; ++j) {
            const size_t f = stripeFrame(stripe, j, k, parity, d);
            if (f == kPadding)
                continue;
            auto it = received.find(static_cast<uint32_t>(f));
            if (it == received.end())
                erasures.push_back(j);
            else
                slots[j] = &it->second.payload;
        }
        const size_t lost_data = static_cast<size_t>(
            std::lower_bound(erasures.begin(), erasures.end(), k) -
            erasures.begin());
        if (lost_data == 0)
            continue;
        bool stripe_ok = erasures.size() <= parity;

        // Rebuild the missing data frames column by column.
        const ReedSolomon rs(parity);
        std::vector<Frame> rebuilt;
        for (size_t r = 0; r < lost_data; ++r)
            rebuilt.push_back(Frame{static_cast<uint32_t>(stripeFrame(
                                        stripe, erasures[r], k, parity, d)),
                                    Bytes(payload, 0)});
        for (size_t b = 0; b < payload && stripe_ok; ++b) {
            std::vector<uint8_t> codeword(k + parity, 0);
            for (size_t j = 0; j < k + parity; ++j)
                if (slots[j] != nullptr)
                    codeword[j] = (*slots[j])[b];
            const auto decoded = rs.decode(codeword, erasures);
            stripe_ok = decoded.has_value();
            for (size_t r = 0; r < lost_data && stripe_ok; ++r)
                rebuilt[r].payload[b] = (*decoded)[erasures[r]];
        }
        if (!stripe_ok) {
            ++stats.stripes_failed;
            ps.stripes_failed.inc();
            continue;
        }
        for (auto &f : rebuilt) {
            ++stats.frames_recovered;
            ps.frames_recovered.inc();
            received.emplace(f.index, std::move(f));
        }
    }

    // Reassemble the data frames.
    std::vector<Frame> data_frames;
    data_frames.reserve(d);
    bool all_present = true;
    for (size_t i = 0; i < d; ++i) {
        auto it = received.find(static_cast<uint32_t>(i));
        if (it == received.end()) {
            all_present = false;
            continue;
        }
        data_frames.push_back(it->second);
    }
    std::vector<uint32_t> missing;
    Bytes stream = frame_codec_.reassemble(data_frames, d, &missing);
    stream.resize(object.file_size);
    result.data = std::move(stream);
    result.success = all_present && missing.empty();
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
        clusters = poolAndRecluster(clusters, config_.cluster, shuffle_rng)
                       .regrouped();
    }
    Rng decode_rng = rng.fork(0xdec0de);
    RetrievedObject result = retrieve(clusters, algo, object, decode_rng);
    if (stored != nullptr)
        *stored = std::move(object);
    return result;
}

} // namespace dnasim

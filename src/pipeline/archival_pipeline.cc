#include "pipeline/archival_pipeline.hh"

#include <algorithm>
#include <map>

#include "base/logging.hh"
#include "codec/reed_solomon.hh"
#include "obs/progress.hh"
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

} // anonymous namespace

ArchivalPipeline::ArchivalPipeline(PipelineConfig config)
    : config_(config),
      frame_codec_(config.payload_bytes, config.index_bytes)
{
    if (config_.redundancy == RedundancyScheme::ReedSolomon) {
        DNASIM_ASSERT(config_.rs_stripe_data > 0 &&
                          config_.rs_parity > 0,
                      "bad RS stripe configuration");
        DNASIM_ASSERT(config_.rs_stripe_data + config_.rs_parity <= 255,
                      "RS stripe exceeds 255 symbols");
    }
    if (config_.redundancy == RedundancyScheme::XorGroups)
        DNASIM_ASSERT(config_.xor_group > 0, "bad XOR group size");
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

    switch (config_.redundancy) {
      case RedundancyScheme::None:
        break;

      case RedundancyScheme::XorGroups: {
        const size_t g = config_.xor_group;
        const size_t groups = (d + g - 1) / g;
        for (size_t grp = 0; grp < groups; ++grp) {
            Frame parity;
            parity.index = static_cast<uint32_t>(d + grp);
            parity.payload.assign(payload, 0);
            for (size_t i = grp * g; i < std::min(d, (grp + 1) * g);
                 ++i) {
                for (size_t b = 0; b < payload; ++b)
                    parity.payload[b] ^= frames[i].payload[b];
            }
            frames.push_back(std::move(parity));
        }
        break;
      }

      case RedundancyScheme::ReedSolomon: {
        const size_t k = config_.rs_stripe_data;
        const size_t stripes = (d + k - 1) / k;
        ReedSolomon rs(config_.rs_parity);
        for (size_t stripe = 0; stripe < stripes; ++stripe) {
            // Parity frames for this stripe, filled column-wise.
            std::vector<Frame> parity(config_.rs_parity);
            for (size_t p = 0; p < parity.size(); ++p) {
                parity[p].index = static_cast<uint32_t>(
                    d + stripe * config_.rs_parity + p);
                parity[p].payload.assign(payload, 0);
            }
            for (size_t b = 0; b < payload; ++b) {
                std::vector<uint8_t> column(k, 0);
                for (size_t i = 0; i < k; ++i) {
                    size_t frame_idx = stripe * k + i;
                    if (frame_idx < d)
                        column[i] = frames[frame_idx].payload[b];
                }
                auto codeword = rs.encode(column);
                for (size_t p = 0; p < config_.rs_parity; ++p)
                    parity[p].payload[b] = codeword[k + p];
            }
            for (auto &f : parity)
                frames.push_back(std::move(f));
        }
        break;
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
    obs::Span span("pipeline.retrieve", "pipeline", ps.retrieve_time);

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
    obs::ProgressScope progress("retrieve", clusters.size());
    for (size_t i = 0; i < clusters.size(); ++i) {
        progress.advance();
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

    auto have = [&](size_t idx) {
        return received.find(static_cast<uint32_t>(idx)) !=
               received.end();
    };
    auto payload_of = [&](size_t idx) -> const Bytes & {
        return received.at(static_cast<uint32_t>(idx)).payload;
    };

    // Logical-redundancy recovery.
    switch (config_.redundancy) {
      case RedundancyScheme::None:
        break;

      case RedundancyScheme::XorGroups: {
        const size_t g = config_.xor_group;
        const size_t groups = (d + g - 1) / g;
        for (size_t grp = 0; grp < groups; ++grp) {
            size_t lo = grp * g;
            size_t hi = std::min(d, lo + g);
            size_t parity_idx = d + grp;
            std::vector<size_t> missing;
            for (size_t i = lo; i < hi; ++i)
                if (!have(i))
                    missing.push_back(i);
            if (missing.empty())
                continue;
            if (missing.size() > 1 || !have(parity_idx)) {
                ++stats.stripes_failed;
                ps.stripes_failed.inc();
                continue;
            }
            Frame rebuilt;
            rebuilt.index = static_cast<uint32_t>(missing[0]);
            rebuilt.payload = payload_of(parity_idx);
            for (size_t i = lo; i < hi; ++i) {
                if (i == missing[0])
                    continue;
                for (size_t b = 0; b < payload; ++b)
                    rebuilt.payload[b] ^= payload_of(i)[b];
            }
            received.emplace(rebuilt.index, std::move(rebuilt));
            ++stats.frames_recovered;
            ps.frames_recovered.inc();
        }
        break;
      }

      case RedundancyScheme::ReedSolomon: {
        const size_t k = config_.rs_stripe_data;
        const size_t stripes = (d + k - 1) / k;
        ReedSolomon rs(config_.rs_parity);
        for (size_t stripe = 0; stripe < stripes; ++stripe) {
            // Which stripe slots are missing? Virtual zero-padding
            // frames past d count as present.
            std::vector<size_t> erasures;
            bool any_data_missing = false;
            for (size_t i = 0; i < k; ++i) {
                size_t frame_idx = stripe * k + i;
                if (frame_idx < d && !have(frame_idx)) {
                    erasures.push_back(i);
                    any_data_missing = true;
                }
            }
            for (size_t p = 0; p < config_.rs_parity; ++p) {
                size_t frame_idx = d + stripe * config_.rs_parity + p;
                if (!have(frame_idx))
                    erasures.push_back(k + p);
            }
            if (!any_data_missing)
                continue;
            if (erasures.size() > config_.rs_parity) {
                ++stats.stripes_failed;
                ps.stripes_failed.inc();
                continue;
            }

            // Rebuild the missing data frames column by column.
            std::vector<Frame> rebuilt;
            for (size_t i = 0; i < k; ++i) {
                size_t frame_idx = stripe * k + i;
                if (frame_idx < d && !have(frame_idx)) {
                    Frame f;
                    f.index = static_cast<uint32_t>(frame_idx);
                    f.payload.assign(payload, 0);
                    rebuilt.push_back(std::move(f));
                }
            }
            bool stripe_ok = true;
            for (size_t b = 0; b < payload && stripe_ok; ++b) {
                std::vector<uint8_t> codeword(k + config_.rs_parity,
                                              0);
                for (size_t i = 0; i < k; ++i) {
                    size_t frame_idx = stripe * k + i;
                    if (frame_idx < d && have(frame_idx))
                        codeword[i] = payload_of(frame_idx)[b];
                }
                for (size_t p = 0; p < config_.rs_parity; ++p) {
                    size_t frame_idx =
                        d + stripe * config_.rs_parity + p;
                    if (have(frame_idx))
                        codeword[k + p] = payload_of(frame_idx)[b];
                }
                auto decoded = rs.decode(codeword, erasures);
                if (!decoded) {
                    stripe_ok = false;
                    break;
                }
                size_t r = 0;
                for (size_t i = 0; i < k; ++i) {
                    size_t frame_idx = stripe * k + i;
                    if (frame_idx < d && !have(frame_idx))
                        rebuilt[r++].payload[b] = (*decoded)[i];
                }
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
        break;
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
        std::vector<Strand> pool = clusters.pooledReads();
        Rng shuffle_rng = rng.fork(0x5eed);
        shuffle_rng.shuffle(pool);
        std::vector<ReadCluster> regrouped =
            clusterReads(pool, config_.cluster);
        std::vector<Cluster> rebuilt;
        rebuilt.reserve(regrouped.size());
        for (auto &rc : regrouped) {
            Cluster c;
            c.reference = std::move(rc.representative);
            c.copies.reserve(rc.members.size());
            for (size_t m : rc.members)
                c.copies.push_back(pool[m]);
            rebuilt.push_back(std::move(c));
        }
        clusters = Dataset(std::move(rebuilt));
    }
    Rng decode_rng = rng.fork(0xdec0de);
    RetrievedObject result = retrieve(clusters, algo, object, decode_rng);
    if (stored != nullptr)
        *stored = std::move(object);
    return result;
}

} // namespace dnasim

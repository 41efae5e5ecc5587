/**
 * @file
 * The end-to-end archival pipeline of section 1.1: encode a byte
 * stream into addressable strands with logical redundancy,
 * transmit them through a noisy channel at some physical redundancy
 * (coverage), reconstruct, and decode with erasure/corruption
 * accounting.
 *
 * Logical redundancy runs *across* strands: frames are grouped into
 * stripes and each stripe gains Reed-Solomon parity frames, so
 * strands lost to erasures or rejected by their CRC can be
 * regenerated (section 1.1.3). One parity frame per stripe is
 * Bornholt et al.'s XOR-group parity: the code's generator is then
 * x + 1, so the parity byte is the XOR of its column.
 */

#ifndef DNASIM_PIPELINE_ARCHIVAL_PIPELINE_HH
#define DNASIM_PIPELINE_ARCHIVAL_PIPELINE_HH

#include <memory>
#include <string>
#include <vector>

#include "cluster/greedy_cluster.hh"
#include "codec/dna_codec.hh"
#include "codec/framing.hh"
#include "core/channel_simulator.hh"
#include "core/coverage.hh"
#include "core/error_model.hh"
#include "data/dataset.hh"
#include "reconstruct/reconstructor.hh"

namespace dnasim
{

/** Pipeline configuration. */
struct PipelineConfig
{
    /// Payload bytes carried per strand.
    size_t payload_bytes = 18;
    /// Width of the frame index field.
    size_t index_bytes = 2;

    /// Data frames per RS stripe.
    size_t rs_stripe_data = 32;
    /// Parity frames per RS stripe: 0 stores no logical redundancy
    /// (erasures are unrecoverable), 1 is XOR-group parity (Bornholt
    /// et al. [4]), and more correct more losses per stripe (Grass
    /// et al. [12]).
    size_t rs_parity = 8;

    /// Keep only the first max_reads simulated reads, in cluster
    /// order (0 = all). Clusters past the cap become erasures — a
    /// cheap prefix subsample for bounded smoke runs.
    size_t max_reads = 0;

    /// Discard the simulator's pseudo-clustering (section 3.1): pool
    /// the reads, shuffle them, and re-cluster with
    /// poolAndRecluster() before reconstruction — the full
    /// wetlab-shaped pipeline.
    bool recluster = false;
    /// Clusterer settings used when recluster is on.
    ClusterOptions cluster;
};

/** Outcome counters of a retrieval. */
struct RetrievalStats
{
    size_t clusters = 0;
    size_t erasure_clusters = 0;   ///< empty clusters
    size_t undecodable_strands = 0; ///< codec failures
    size_t crc_failures = 0;
    size_t frames_recovered = 0;    ///< via logical redundancy
    size_t frames_corrected = 0;    ///< received, then corrected
    size_t stripes_failed = 0;      ///< redundancy exceeded
};

/** A stored object: the strand library plus its directory entry. */
struct StoredObject
{
    std::vector<Strand> strands;
    size_t file_size = 0;
    size_t num_data_frames = 0;
    size_t num_total_frames = 0;
};

/** Result of a retrieval. */
struct RetrievedObject
{
    Bytes data;
    bool success = false;
    RetrievalStats stats;
};

/** The archival pipeline. */
class ArchivalPipeline
{
  public:
    explicit ArchivalPipeline(PipelineConfig config = {});

    const PipelineConfig &config() const { return config_; }

    /** The strand length this configuration produces. */
    size_t strandLength() const;

    /** Encode @p file into a strand library. */
    StoredObject store(const Bytes &file) const;

    /**
     * Decode a clustered read-out of a stored object.
     *
     * @param clusters clustered noisy copies, one cluster per strand
     *                 (order need not match; frames carry indices)
     * @param algo     trace-reconstruction algorithm
     * @param object   the directory entry produced by store()
     */
    RetrievedObject retrieve(const Dataset &clusters,
                             const Reconstructor &algo,
                             const StoredObject &object,
                             Rng &rng) const;

    /**
     * Convenience: store, transmit through @p model at @p coverage,
     * reconstruct with @p algo, and decode.
     *
     * A non-null @p lineage records the channel's injected error
     * events; a non-null @p simulated receives a copy of the
     * pseudo-clustered dataset the channel produced (the ground
     * truth the lineage log indexes); a non-null @p stored receives
     * the object store() encoded. None affects the retrieval — the
     * decoded bytes are identical either way.
     */
    RetrievedObject roundTrip(const Bytes &file,
                              const ErrorModel &model,
                              const CoverageModel &coverage,
                              const Reconstructor &algo, Rng &rng,
                              LineageLog *lineage = nullptr,
                              Dataset *simulated = nullptr,
                              StoredObject *stored = nullptr) const;

  private:
    PipelineConfig config_;
    FrameCodec frame_codec_;
    RotatingCodec codec_;
};

} // namespace dnasim

#endif // DNASIM_PIPELINE_ARCHIVAL_PIPELINE_HH

/**
 * @file
 * Stage checkpoints for out-of-core runs (dnasim.checkpoint.v1).
 *
 * A checkpoint directory lets simulate → cluster → reconstruct run
 * as separate bounded-RSS processes over mmap-backed snapshots:
 *
 * @verbatim
 * <dir>/refs.dnapool             reference strands
 * <dir>/reads.dnapool            simulated / ingested read pool
 * <dir>/origins.u32              per-read true cluster (LE u32)
 * <dir>/assignments.u32          per-read assigned cluster (LE u32)
 * <dir>/representatives.dnapool  cluster representatives
 * <dir>/manifest.json            dnasim.checkpoint.v1
 * @endverbatim
 *
 * The manifest carries the completed stage, the seed, the counts, an
 * echo of the stage configuration and the shared build-provenance
 * block. Every file is published through OutputFile (a regular file
 * by temp-and-rename) and the manifest is written *last*, so a
 * killed run leaves the directory describing the previous completed
 * stage — resuming re-runs the interrupted stage from its inputs
 * and, because every stage is deterministic, produces output
 * byte-identical to an uninterrupted run.
 */

#ifndef DNASIM_PIPELINE_CHECKPOINT_HH
#define DNASIM_PIPELINE_CHECKPOINT_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dnasim
{

/** Contents of a dnasim.checkpoint.v1 manifest. */
struct CheckpointManifest
{
    /// Last completed stage: "simulate" or "cluster".
    std::string stage;
    uint64_t seed = 0;
    uint64_t num_refs = 0;
    uint64_t num_reads = 0;
    uint64_t num_clusters = 0; ///< cluster stage only
    /// Echo of the stage configuration (ordered key/value strings),
    /// for humans and for resume-time mismatch warnings.
    std::vector<std::pair<std::string, std::string>> config;
};

/** Path layout and manifest I/O of one checkpoint directory. */
class CheckpointDir
{
  public:
    explicit CheckpointDir(std::string dir) : dir_(std::move(dir)) {}

    const std::string &dir() const { return dir_; }

    std::string refsPath() const { return join("refs.dnapool"); }
    std::string readsPath() const { return join("reads.dnapool"); }
    std::string originsPath() const { return join("origins.u32"); }
    std::string assignmentsPath() const
    {
        return join("assignments.u32");
    }
    std::string representativesPath() const
    {
        return join("representatives.dnapool");
    }
    std::string manifestPath() const { return join("manifest.json"); }

    /** True when a manifest exists (some stage completed here). */
    bool hasManifest() const;

    /**
     * Parse the manifest. Returns false (setting @p error when
     * non-null) when missing, unreadable, or not a
     * dnasim.checkpoint.v1 document.
     */
    bool readManifest(CheckpointManifest &out,
                      std::string *error = nullptr) const;

    /**
     * Serialize and publish the manifest — the commit point of a
     * stage; call only after its data files are in place.
     */
    bool writeManifest(const CheckpointManifest &manifest,
                       std::string *error = nullptr) const;

  private:
    std::string join(const char *name) const
    {
        return dir_ + "/" + name;
    }

    std::string dir_;
};

} // namespace dnasim

#endif // DNASIM_PIPELINE_CHECKPOINT_HH

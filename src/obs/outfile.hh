/**
 * @file
 * Output-file plumbing shared by the exporters that take a --*-out
 * path (--stats-out, --trace-out) and the checkpoint manifest:
 *
 *  - prepareOutputPath() creates missing parent directories up
 *    front, so "out/run1/stats.json" works without a manual mkdir,
 *    and turns the previously opaque open failure into a diagnostic
 *    naming the path and the errno cause.
 *  - writeFileAtomic() writes through a temporary sibling and
 *    renames it into place, so a reader (a resumed run reading the
 *    checkpoint manifest) never observes a half-written document.
 */

#ifndef DNASIM_OBS_OUTFILE_HH
#define DNASIM_OBS_OUTFILE_HH

#include <fstream>
#include <string>

namespace dnasim
{
namespace obs
{

/**
 * Create the missing parent directories of @p path. Returns false
 * (and sets @p error when non-null) when a parent cannot be created;
 * the error names the directory and the cause.
 */
bool prepareOutputPath(const std::string &path,
                       std::string *error = nullptr);

/**
 * Atomically replace @p path with @p content: parent directories are
 * created, the content goes to "<path>.tmp", and a rename publishes
 * it. Returns false (and sets @p error) on any failure.
 */
bool writeFileAtomic(const std::string &path,
                     const std::string &content,
                     std::string *error = nullptr);

/**
 * The streaming counterpart of writeFileAtomic() for artifacts too
 * large to assemble in one string (cluster dumps, lineage JSONL,
 * checkpoint arrays): open() starts "<path>.tmp", the caller streams
 * into stream(), and commit() flushes and renames it into place.
 * Destruction without commit() — including mid-write process death,
 * since the target path is only ever touched by the final rename —
 * leaves no torn file at the target, only a stale .tmp.
 */
class AtomicFile
{
  public:
    AtomicFile() = default;
    ~AtomicFile();

    AtomicFile(const AtomicFile &) = delete;
    AtomicFile &operator=(const AtomicFile &) = delete;

    /**
     * Create parent directories and open "<path>.tmp" (binary,
     * truncated). Returns false and sets @p error on failure.
     */
    bool open(const std::string &path, std::string *error = nullptr);

    bool isOpen() const { return out_.is_open(); }

    /** The stream to write through (valid while open). */
    std::ofstream &stream() { return out_; }

    /**
     * Flush, close and rename over the target path. Returns false
     * (and sets @p error) if any write failed — including earlier
     * stream errors — in which case the temporary is removed and
     * the target is untouched.
     */
    bool commit(std::string *error = nullptr);

    /** Close and remove the temporary without publishing. */
    void abort();

  private:
    std::string path_;
    std::string tmp_;
    std::ofstream out_;
};

} // namespace obs
} // namespace dnasim

#endif // DNASIM_OBS_OUTFILE_HH

/**
 * @file
 * The one way dnasim writes an output file: evyat datasets, pools,
 * `.u32` sidecars, checkpoint manifests, profiles, cluster and
 * lineage dumps, stats, traces and bench reports all go through
 * OutputFile.
 *
 * The target decides how a file is published:
 *
 *  - an absent path, or an existing regular file, is written to
 *    "<path>.tmp" and renamed over the path on commit, so a reader
 *    (a resumed stage, a harness diffing outputs) never sees a torn
 *    file and a failed write keeps the old content;
 *  - any other existing path — a device, a FIFO, or a symlink such
 *    as /dev/stdout — is opened and written in place, so the node
 *    keeps its type (a rename would replace it with a regular file);
 *  - a directory is refused.
 *
 * Missing parent directories are created first. Every error names
 * the path and the cause.
 */

#ifndef DNASIM_BASE_OUTPUT_FILE_HH
#define DNASIM_BASE_OUTPUT_FILE_HH

#include <fstream>
#include <string>
#include <string_view>

namespace dnasim
{

class OutputFile
{
  public:
    OutputFile() = default;
    ~OutputFile();

    OutputFile(const OutputFile &) = delete;
    OutputFile &operator=(const OutputFile &) = delete;

    /**
     * Create missing parent directories and open @p path for
     * writing (binary, truncated) by the rule above. Returns false
     * and sets @p error on failure.
     */
    bool open(const std::string &path, std::string *error = nullptr);

    /** The stream to write through (valid while open). */
    std::ofstream &stream() { return out_; }

    /**
     * Flush and close; a temporary is renamed over the target.
     * Returns false (and sets @p error) if any write failed, in
     * which case a temporary is removed and a regular target keeps
     * its old content.
     */
    bool commit(std::string *error = nullptr);

    /** Close without publishing; a temporary is removed. */
    void abort();

    /** open(), write @p content, commit(). */
    static bool write(const std::string &path, std::string_view content,
                      std::string *error = nullptr);

  private:
    std::string path_;
    /// "<path>.tmp" while publishing by rename; empty in place.
    std::string tmp_;
    std::ofstream out_;
};

} // namespace dnasim

#endif // DNASIM_BASE_OUTPUT_FILE_HH

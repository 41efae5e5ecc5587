/**
 * @file
 * A minimal command-line flag parser for the dnasim tool and the
 * bench harnesses: --flag value and --flag=value forms, with typed
 * accessors and defaults.
 */

#ifndef DNASIM_CLI_ARGS_HH
#define DNASIM_CLI_ARGS_HH

#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <vector>

namespace dnasim
{

/** Parsed command line: positionals plus --key value options. */
class Args
{
  public:
    /** Parse argv (excluding argv[0]). Fatal on malformed flags. */
    Args(int argc, const char *const *argv);

    /** Positional arguments, in order. */
    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

    /** True iff --name was supplied (with or without a value). */
    bool has(const std::string &name) const;

    /** String value of --name, or @p fallback. */
    std::string get(const std::string &name,
                    const std::string &fallback = "") const;

    /** Integer value of --name, or @p fallback (fatal if not a
     *  number). */
    int64_t getInt(const std::string &name, int64_t fallback) const;

    /** Double value of --name, or @p fallback. */
    double getDouble(const std::string &name, double fallback) const;

    /**
     * Double value of --name, or @p fallback; fatal unless it lies in
     * [@p min, @p max), or in (@p min, @p max) when @p min_exclusive.
     */
    double getDouble(const std::string &name, double fallback,
                     double min, double max,
                     bool min_exclusive = false) const;

    /**
     * Count value of --name, or @p fallback; fatal when the value is
     * negative or outside [@p min, @p max].
     */
    size_t getCount(const std::string &name, size_t fallback,
                    size_t min = 0,
                    size_t max = std::numeric_limits<size_t>::max()) const;

    /** Unsigned 64-bit value (for seeds). */
    uint64_t getSeed(const std::string &name, uint64_t fallback) const;

    /** Every --name given, with its value ("" when bare). */
    const std::map<std::string, std::string> &options() const
    {
        return options_;
    }

  private:
    std::vector<std::string> positional_;
    std::map<std::string, std::string> options_;
};

} // namespace dnasim

#endif // DNASIM_CLI_ARGS_HH

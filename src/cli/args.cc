#include "cli/args.hh"

#include <cstdlib>

#include "base/logging.hh"

namespace dnasim
{

Args::Args(int argc, const char *const *argv)
{
    for (int i = 0; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0) {
            positional_.push_back(arg);
            continue;
        }
        std::string body = arg.substr(2);
        if (body.empty())
            DNASIM_FATAL("bare '--' is not a valid flag");
        auto eq = body.find('=');
        if (eq != std::string::npos) {
            options_[body.substr(0, eq)] = body.substr(eq + 1);
            continue;
        }
        // --flag value, unless the next token is another flag.
        if (i + 1 < argc &&
            std::string(argv[i + 1]).rfind("--", 0) != 0) {
            options_[body] = argv[++i];
        } else {
            options_[body] = "";
        }
    }
}

bool
Args::has(const std::string &name) const
{
    return options_.count(name) > 0;
}

std::string
Args::get(const std::string &name, const std::string &fallback) const
{
    auto it = options_.find(name);
    return it == options_.end() ? fallback : it->second;
}

int64_t
Args::getInt(const std::string &name, int64_t fallback) const
{
    auto it = options_.find(name);
    if (it == options_.end())
        return fallback;
    char *end = nullptr;
    int64_t value = std::strtoll(it->second.c_str(), &end, 10);
    if (end == it->second.c_str() || *end != '\0')
        DNASIM_FATAL("--", name, " expects an integer, got '",
                     it->second, "'");
    return value;
}

double
Args::getDouble(const std::string &name, double fallback) const
{
    auto it = options_.find(name);
    if (it == options_.end())
        return fallback;
    char *end = nullptr;
    double value = std::strtod(it->second.c_str(), &end);
    if (end == it->second.c_str() || *end != '\0')
        DNASIM_FATAL("--", name, " expects a number, got '",
                     it->second, "'");
    return value;
}

double
Args::getDouble(const std::string &name, double fallback, double min,
                double max, bool min_exclusive) const
{
    if (!has(name))
        return fallback;
    const double value = getDouble(name, fallback);
    const bool above = min_exclusive ? value > min : value >= min;
    if (!above || !(value < max)) {
        DNASIM_FATAL("--", name, " must be in ", min_exclusive ? "(" : "[",
                     min, ", ", max, "), got ", get(name));
    }
    return value;
}

size_t
Args::getCount(const std::string &name, size_t fallback, size_t min,
               size_t max) const
{
    if (!has(name))
        return fallback;
    const int64_t value = getInt(name, 0);
    if (value < 0 || static_cast<uint64_t>(value) < min) {
        DNASIM_FATAL("--", name, " must be an integer >= ", min,
                     ", got ", get(name));
    }
    if (static_cast<uint64_t>(value) > max)
        DNASIM_FATAL("--", name, " must be at most ", max, ", got ",
                     get(name));
    return static_cast<size_t>(value);
}

uint64_t
Args::getSeed(const std::string &name, uint64_t fallback) const
{
    auto it = options_.find(name);
    if (it == options_.end())
        return fallback;
    char *end = nullptr;
    uint64_t value = std::strtoull(it->second.c_str(), &end, 0);
    if (end == it->second.c_str() || *end != '\0')
        DNASIM_FATAL("--", name, " expects an unsigned integer, got '",
                     it->second, "'");
    return value;
}

} // namespace dnasim

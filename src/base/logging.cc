#include "base/logging.hh"

#include <cstdlib>
#include <iostream>
#include <mutex>
#include <set>
#include <utility>

namespace dnasim
{

namespace
{

// Guards stderr ordering, the warn_once seen-set, and the sink
// pointer. The sink itself is always invoked with the lock released
// so it can log or install sinks without deadlocking.
std::mutex log_mutex;
std::set<std::string> seen_warnings;
LogSink log_sink;

void
dispatch(LogLevel level, const std::string &msg)
{
    LogSink sink;
    {
        std::lock_guard<std::mutex> lock(log_mutex);
        if (!log_sink) {
            std::cerr << (level == LogLevel::Warn ? "warn: " : "info: ")
                      << msg << std::endl;
            return;
        }
        sink = log_sink;
    }
    sink(level, msg);
}

} // anonymous namespace

LogSink
setLogSink(LogSink sink)
{
    std::lock_guard<std::mutex> lock(log_mutex);
    std::swap(log_sink, sink);
    return sink;
}

namespace detail
{

void
panicImpl(const char *file, int line, const std::string &msg)
{
    {
        std::lock_guard<std::mutex> lock(log_mutex);
        std::cerr << "panic: " << msg << "\n @ " << file << ":" << line
                  << std::endl;
    }
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    throw FatalError(msg, file, line);
}

void
warnImpl(const std::string &msg, bool once)
{
    if (once) {
        std::lock_guard<std::mutex> lock(log_mutex);
        if (!seen_warnings.insert(msg).second)
            return;
    }
    dispatch(LogLevel::Warn, msg);
}

void
informImpl(const std::string &msg)
{
    dispatch(LogLevel::Info, msg);
}

} // namespace detail
} // namespace dnasim

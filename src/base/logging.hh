/**
 * @file
 * Logging and error-reporting helpers, in the spirit of gem5's
 * base/logging.hh.
 *
 * Two classes of failure are distinguished:
 *  - panic(): an internal invariant was violated (a dnasim bug);
 *    aborts the process so a debugger or core dump can be used.
 *  - fatal(): the simulation cannot continue because of a user error
 *    (bad configuration, malformed input file); throws FatalError,
 *    which carries the message and where it was raised. Nothing is
 *    printed: a library caller that handles the error stays quiet,
 *    and the CLI's main prints the one "fatal:" line and exits 1.
 *
 * Non-terminating status helpers: inform(), warn(), warn_once().
 */

#ifndef DNASIM_BASE_LOGGING_HH
#define DNASIM_BASE_LOGGING_HH

#include <functional>
#include <sstream>
#include <stdexcept>
#include <string>

namespace dnasim
{

/** Severity of a non-terminating log message. */
enum class LogLevel { Info, Warn };

/**
 * Pluggable destination for inform()/warn()/warn_once() messages.
 * The sink is invoked without internal locks held, so it may log or
 * allocate freely; it must be thread-safe itself.
 */
using LogSink = std::function<void(LogLevel, const std::string &)>;

/**
 * Replace the sink behind inform()/warn()/warn_once(); returns the
 * previous sink. An empty sink restores the default (stderr with an
 * "info:"/"warn:" prefix). warn_once() deduplication happens before
 * the sink, so a sink sees each once-message a single time.
 */
LogSink setLogSink(LogSink sink);

/** Exception thrown by fatal(): the message and where it was raised. */
class FatalError : public std::runtime_error
{
  public:
    FatalError(const std::string &msg, const char *file, int line)
        : std::runtime_error(msg), file_(file), line_(line)
    {}

    const char *file() const { return file_; }
    int line() const { return line_; }

  private:
    const char *file_;
    int line_;
};

namespace detail
{

/** Concatenate a pack of streamable arguments into one string. */
template <typename... Args>
std::string
concat(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

[[noreturn]] void panicImpl(const char *file, int line,
                            const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line,
                            const std::string &msg);
void warnImpl(const std::string &msg, bool once);
void informImpl(const std::string &msg);

} // namespace detail

/** Abort on an internal invariant violation (a dnasim bug). */
#define DNASIM_PANIC(...)                                                  \
    ::dnasim::detail::panicImpl(__FILE__, __LINE__,                        \
                                ::dnasim::detail::concat(__VA_ARGS__))

/** Terminate on an unrecoverable user error (throws FatalError). */
#define DNASIM_FATAL(...)                                                  \
    ::dnasim::detail::fatalImpl(__FILE__, __LINE__,                        \
                                ::dnasim::detail::concat(__VA_ARGS__))

/** Panic if @p cond is false. Active in all build types. */
#define DNASIM_ASSERT(cond, ...)                                           \
    do {                                                                   \
        if (!(cond)) {                                                     \
            ::dnasim::detail::panicImpl(                                   \
                __FILE__, __LINE__,                                        \
                ::dnasim::detail::concat("assertion '" #cond "' failed: ", \
                                         ##__VA_ARGS__));                  \
        }                                                                  \
    } while (0)

/** Print a warning to stderr. */
template <typename... Args>
void
warn(Args &&...args)
{
    detail::warnImpl(detail::concat(std::forward<Args>(args)...), false);
}

/** Print a warning to stderr only the first time this message occurs. */
template <typename... Args>
void
warn_once(Args &&...args)
{
    detail::warnImpl(detail::concat(std::forward<Args>(args)...), true);
}

/** Print an informational message to stderr. */
template <typename... Args>
void
inform(Args &&...args)
{
    detail::informImpl(detail::concat(std::forward<Args>(args)...));
}

} // namespace dnasim

#endif // DNASIM_BASE_LOGGING_HH

/**
 * @file
 * The `dnasim watch` subcommand: tail a dnasim.telemetry.v1 JSONL
 * stream (written by a run started with --telemetry-out) and render
 * each sample as one human-readable line — elapsed time, RSS,
 * progress of the active phases and the hottest counter rates — with
 * event lines (phase transitions, warnings) interleaved. With
 * --follow it keeps polling the file like `tail -f` and exits when
 * the producing run writes its final sample.
 */

#include <algorithm>
#include <chrono>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <thread>
#include <vector>

#include "base/logging.hh"
#include "cli/commands.hh"
#include "obs/json.hh"
#include "obs/report.hh"

namespace dnasim
{

namespace
{

std::string
fmtRate(double per_sec)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(1);
    if (per_sec >= 1e9)
        os << per_sec / 1e9 << "G/s";
    else if (per_sec >= 1e6)
        os << per_sec / 1e6 << "M/s";
    else if (per_sec >= 1e3)
        os << per_sec / 1e3 << "k/s";
    else
        os << per_sec << "/s";
    return os.str();
}

std::string
fmtMebibytes(uint64_t bytes)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(1)
       << static_cast<double>(bytes) / (1ull << 20) << " MB";
    return os.str();
}

std::string
fmtElapsed(uint64_t ns)
{
    std::ostringstream os;
    os << std::fixed << std::setprecision(1)
       << static_cast<double>(ns) / 1e9 << "s";
    return os.str();
}

/** Render one "sample" document as a status line. */
std::string
renderSample(const obs::JsonValue &doc)
{
    std::ostringstream os;
    uint64_t ts_ns =
        doc.find("ts_ns") ? doc.find("ts_ns")->asUint() : 0;
    os << "[" << std::setw(7) << fmtElapsed(ts_ns) << "]";

    if (const obs::JsonValue *rss = doc.find("rss_bytes")) {
        if (rss->asUint() > 0)
            os << " rss " << fmtMebibytes(rss->asUint());
    }

    if (const obs::JsonValue *progress = doc.find("progress")) {
        for (const auto &p : progress->array()) {
            const obs::JsonValue *phase = p.find("phase");
            uint64_t done =
                p.find("done") ? p.find("done")->asUint() : 0;
            uint64_t total =
                p.find("total") ? p.find("total")->asUint() : 0;
            os << "  " << (phase ? phase->asString() : "?") << " "
               << done;
            if (total > 0) {
                os << "/" << total << " ("
                   << std::fixed << std::setprecision(1)
                   << 100.0 * static_cast<double>(done) /
                          static_cast<double>(total)
                   << "%)";
            }
        }
    }

    // The hottest counters this interval, busiest first.
    struct Hot
    {
        std::string name;
        double per_sec;
    };
    std::vector<Hot> hot;
    if (const obs::JsonValue *counters = doc.find("counters")) {
        for (const auto &c : counters->array()) {
            const obs::JsonValue *name = c.find("name");
            const obs::JsonValue *per_sec = c.find("per_sec");
            if (!name || !per_sec || per_sec->asDouble() <= 0.0)
                continue;
            hot.push_back(Hot{name->asString(),
                              per_sec->asDouble()});
        }
    }
    std::sort(hot.begin(), hot.end(), [](const Hot &a, const Hot &b) {
        return a.per_sec > b.per_sec;
    });
    const size_t shown = std::min<size_t>(hot.size(), 3);
    for (size_t i = 0; i < shown; ++i) {
        os << (i == 0 ? "  | " : ", ") << hot[i].name << " "
           << fmtRate(hot[i].per_sec);
    }

    if (doc.find("final") && doc.find("final")->asBool())
        os << "  (final)";
    return os.str();
}

/** Render one "event" document. */
std::string
renderEvent(const obs::JsonValue &doc)
{
    std::ostringstream os;
    uint64_t ts_ns =
        doc.find("ts_ns") ? doc.find("ts_ns")->asUint() : 0;
    const obs::JsonValue *event = doc.find("event");
    const obs::JsonValue *name = doc.find("name");
    os << "[" << std::setw(7) << fmtElapsed(ts_ns) << "] "
       << (event ? event->asString() : "event") << " "
       << (name ? name->asString() : "");
    if (const obs::JsonValue *fields = doc.find("fields")) {
        for (const auto &[key, value] : fields->object())
            os << " " << key << "=" << value.asString();
    }
    return os.str();
}

/** Process one complete JSONL line; returns true on a final sample. */
bool
processLine(const std::string &text, size_t line_no,
            uint64_t &parse_errors)
{
    if (text.empty())
        return false;
    obs::JsonValue doc;
    std::string error;
    if (!obs::parseJson(text, doc, &error)) {
        if (++parse_errors <= 3) {
            warn("watch: line ", line_no, ": ", error);
        }
        return false;
    }
    const obs::JsonValue *kind = doc.find("kind");
    if (kind && kind->asString() == "event") {
        std::cout << renderEvent(doc) << "\n";
        return false;
    }
    if (kind && kind->asString() == "sample") {
        std::cout << renderSample(doc) << "\n";
        return doc.find("final") && doc.find("final")->asBool();
    }
    return false;
}

} // anonymous namespace

int
cmdWatch(const Args &args)
{
    if (args.positional().size() < 2) {
        DNASIM_FATAL("usage: dnasim watch <telemetry.jsonl> "
                     "[--follow] [--interval MS]");
    }
    const std::string &path = args.positional()[1];
    const bool follow = args.has("follow");
    const uint64_t interval_ms = args.getCount("interval", 500, 1);

    std::ifstream in(path, std::ios::binary);
    if (!in)
        DNASIM_FATAL("cannot open '", path, "'");

    std::string partial;
    size_t line_no = 0;
    uint64_t parse_errors = 0;
    bool saw_final = false;
    for (;;) {
        std::string chunk;
        while (std::getline(in, chunk)) {
            if (in.eof()) {
                // Line without a trailing newline: the producer may
                // still be writing it, keep it for the next poll.
                partial += chunk;
                break;
            }
            ++line_no;
            saw_final |= processLine(partial + chunk, line_no,
                                     parse_errors);
            partial.clear();
        }
        std::cout.flush();
        if (!follow || saw_final)
            break;
        in.clear();
        std::this_thread::sleep_for(
            std::chrono::milliseconds(interval_ms));
    }
    // A final partial line only matters when the producer is done.
    if (!partial.empty() && !follow) {
        ++line_no;
        processLine(partial, line_no, parse_errors);
    }
    if (parse_errors > 3) {
        warn("watch: ", parse_errors,
             " lines failed to parse in total");
    }
    return 0;
}

} // namespace dnasim

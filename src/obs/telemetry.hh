/**
 * @file
 * The dnasim.telemetry.v1 JSONL stream: an append-only file with one
 * compact JSON document per line, written by the telemetry sampler.
 *
 * Two line kinds share the stream, discriminated by "kind":
 *
 *   {"schema":"dnasim.telemetry.v1","kind":"sample","seq":3,
 *    "ts_ns":...,"interval_ns":...,"final":false,"rss_bytes":...,
 *    "counters":[{"name":...,"value":...,"delta":...,
 *                 "per_sec":...}, ...],
 *    "gauges":[{"name":...,"value":...}, ...],
 *    "timers":[{"name":...,"count":...,"total_ns":...,"p50_ns":...,
 *               "p90_ns":...,"p99_ns":...,"p999_ns":...}, ...],
 *    "progress":[{"phase":...,"done":...,"total":...}, ...]}
 *
 *   {"schema":"dnasim.telemetry.v1","kind":"event","seq":...,
 *    "ts_ns":...,"event":"phase_begin","name":"channel.simulate",
 *    "fields":{...}}
 *
 * Event lines are interleaved before the sample that collected them,
 * in journal order. The file is append-only so `dnasim watch
 * --follow` and `tail -f` can stream it live; every line is a
 * self-contained document (a truncated final line is the only
 * possible corruption after a crash).
 */

#ifndef DNASIM_OBS_TELEMETRY_HH
#define DNASIM_OBS_TELEMETRY_HH

#include <cstdio>
#include <string>

#include "obs/snapshot.hh"

namespace dnasim
{
namespace obs
{

/** One "sample" line (no trailing newline). */
std::string telemetrySampleLine(const IntervalSample &sample);

/** One "event" line (no trailing newline). */
std::string telemetryEventLine(const Event &event);

/**
 * The "meta" line opening every stream: the shared build-provenance
 * header (git rev, compiler, SIMD tier, thread count). No trailing
 * newline.
 */
std::string telemetryMetaLine();

/** Sink appending dnasim.telemetry.v1 lines to a file. */
class JsonlTelemetrySink : public TelemetrySink
{
  public:
    explicit JsonlTelemetrySink(std::string path);
    ~JsonlTelemetrySink() override;

    void onSample(const IntervalSample &sample) override;
    void close() override;

    /** False after any open/write failure (already warned). */
    bool ok() const { return ok_; }

  private:
    void writeLine(const std::string &line);

    std::string path_;
    std::FILE *file_ = nullptr;
    bool ok_ = true;
    bool warned_ = false;
};

} // namespace obs
} // namespace dnasim

#endif // DNASIM_OBS_TELEMETRY_HH

#include "align/simd_dispatch.hh"

#include <atomic>
#include <cstdlib>

#include "base/logging.hh"
#include "obs/provenance.hh"
#include "obs/stats.hh"

namespace dnasim
{

namespace
{

#if defined(__x86_64__) || defined(_M_X64)
SimdTier
probeCpu()
{
    __builtin_cpu_init();
    // The AVX-512 kernel is compiled with -mavx512f/-mavx512bw/
    // -mavx512dq; require exactly that set so the dispatcher never
    // selects code the CPU would fault on.
    if (__builtin_cpu_supports("avx512f") &&
        __builtin_cpu_supports("avx512bw") &&
        __builtin_cpu_supports("avx512dq")) {
        return SimdTier::Avx512;
    }
    if (__builtin_cpu_supports("avx2"))
        return SimdTier::Avx2;
    return SimdTier::Scalar;
}
#else
SimdTier
probeCpu()
{
    return SimdTier::Scalar;
}
#endif

/// Override slot: -1 = auto (env or detected), else a SimdTier.
std::atomic<int> g_override{-1};

obs::Gauge &
tierGauge()
{
    static obs::Gauge &g = obs::Registry::global().gauge(
        "align.simd.tier",
        "SIMD tier serving the batch alignment kernels "
        "(0=scalar, 1=avx2, 2=avx512)");
    return g;
}

/// DNASIM_SIMD environment selection, parsed once. -1 = auto.
int
envTier()
{
    static const int parsed = [] {
        const char *env = std::getenv("DNASIM_SIMD");
        if (env == nullptr || *env == '\0' ||
            std::string_view(env) == "auto") {
            return -1;
        }
        auto tier = parseSimdTier(env);
        if (!tier) {
            warn("DNASIM_SIMD='", env,
                 "' is not auto/scalar/avx2/avx512; using auto");
            return -1;
        }
        return static_cast<int>(*tier);
    }();
    return parsed;
}

SimdTier
clampToDetected(SimdTier requested)
{
    const SimdTier detected = detectedSimdTier();
    if (static_cast<int>(requested) <= static_cast<int>(detected))
        return requested;
    warn_once("requested SIMD tier ", simdTierName(requested),
              " exceeds this CPU (", simdTierName(detected),
              "); falling back");
    return detected;
}

} // anonymous namespace

const char *
simdTierName(SimdTier tier)
{
    switch (tier) {
      case SimdTier::Scalar: return "scalar";
      case SimdTier::Avx2: return "avx2";
      case SimdTier::Avx512: return "avx512";
    }
    return "?";
}

std::optional<SimdTier>
parseSimdTier(std::string_view name)
{
    if (name == "scalar")
        return SimdTier::Scalar;
    if (name == "avx2")
        return SimdTier::Avx2;
    if (name == "avx512")
        return SimdTier::Avx512;
    return std::nullopt;
}

SimdTier
detectedSimdTier()
{
    static const SimdTier detected = probeCpu();
    return detected;
}

SimdTier
activeSimdTier()
{
    const int forced = g_override.load(std::memory_order_relaxed);
    const int requested = forced >= 0 ? forced : envTier();
    SimdTier tier = requested >= 0
                        ? clampToDetected(static_cast<SimdTier>(requested))
                        : detectedSimdTier();

    // One startup log line + the stats gauge, so stats snapshots and
    // bench reports always record which code path ran. The log fires
    // once per process; the gauge tracks the current selection (it
    // moves when tests flip the override).
    static std::atomic<bool> logged{false};
    if (!logged.exchange(true, std::memory_order_relaxed)) {
        inform("align: batch kernels using SIMD tier ",
               simdTierName(tier), " (detected ",
               simdTierName(detectedSimdTier()),
               requested >= 0 ? ", overridden" : "", ")");
    }
    tierGauge().set(static_cast<int64_t>(tier));
    obs::setProvenanceSimdTier(simdTierName(tier));
    return tier;
}

void
setSimdTierOverride(std::optional<SimdTier> tier)
{
    g_override.store(tier ? static_cast<int>(*tier) : -1,
                     std::memory_order_relaxed);
}

bool
applySimdOverride(std::string_view name)
{
    if (name == "auto" || name.empty()) {
        setSimdTierOverride(std::nullopt);
        return true;
    }
    auto tier = parseSimdTier(name);
    if (!tier)
        return false;
    setSimdTierOverride(*tier);
    return true;
}

} // namespace dnasim

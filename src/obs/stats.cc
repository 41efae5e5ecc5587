#include "obs/stats.hh"

#include <algorithm>
#include <array>
#include <map>

#include "base/logging.hh"

namespace dnasim
{
namespace obs
{
namespace detail
{

namespace
{

/** Slots per allocation chunk; chunk addresses never move. */
constexpr size_t kChunkSlots = 64;

struct Chunk
{
    std::array<std::atomic<uint64_t>, kChunkSlots> slots{};
};

} // anonymous namespace

/**
 * One thread's private counter shards. Only the owning thread writes
 * slot values (relaxed stores); structural growth and cross-thread
 * reads are serialized by the registry mutex. Chunks are allocated
 * out-of-line so growing the chunk table never moves live slots.
 */
struct ThreadBlock
{
    std::vector<std::unique_ptr<Chunk>> chunks;
    size_t capacity = 0; ///< chunks.size() * kChunkSlots; owner-read

    std::atomic<uint64_t> &
    slot(uint32_t id)
    {
        return chunks[id / kChunkSlots]->slots[id % kChunkSlots];
    }

    uint64_t
    read(uint32_t id) const
    {
        return chunks[id / kChunkSlots]
            ->slots[id % kChunkSlots]
            .load(std::memory_order_relaxed);
    }
};

struct RegistryCore : std::enable_shared_from_this<RegistryCore>
{
    const uint64_t uid;
    mutable std::mutex mutex;

    std::map<std::string, std::unique_ptr<Counter>> counters;
    std::map<std::string, std::unique_ptr<Gauge>> gauges;
    std::map<std::string, std::unique_ptr<Timer>> timers;
    std::map<std::string, std::unique_ptr<Distribution>> distributions;

    uint32_t next_slot = 0;
    std::vector<std::shared_ptr<ThreadBlock>> blocks;
    /** Merged slot values of threads that have exited. */
    std::vector<uint64_t> retired;

    RegistryCore();

    ThreadBlock &localBlock();
    void growBlock(ThreadBlock &block, uint32_t slot);
    void retire(const std::shared_ptr<ThreadBlock> &block);
    uint64_t sumSlot(uint32_t slot) const;
    uint64_t sumSlotLocked(uint32_t slot) const;

    void
    checkNameFree(const std::string &name, const char *kind) const
    {
        auto taken = [&](auto &m) { return m.count(name) > 0; };
        if (taken(counters) || taken(gauges) || taken(timers) ||
            taken(distributions)) {
            DNASIM_FATAL("stat '", name, "' already registered with a "
                         "different kind (wanted ", kind, ")");
        }
    }
};

namespace
{

std::atomic<uint64_t> next_registry_uid{1};

/** One thread's registrations, torn down (merged) on thread exit. */
struct TlsEntry
{
    uint64_t uid;
    std::shared_ptr<ThreadBlock> block;
    std::weak_ptr<RegistryCore> core;
};

struct TlsState
{
    std::vector<TlsEntry> entries;

    ~TlsState()
    {
        for (auto &e : entries) {
            if (auto core = e.core.lock())
                core->retire(e.block);
        }
    }
};

thread_local TlsState tls_state;

} // anonymous namespace

RegistryCore::RegistryCore()
    : uid(next_registry_uid.fetch_add(1, std::memory_order_relaxed))
{}

ThreadBlock &
RegistryCore::localBlock()
{
    for (auto &e : tls_state.entries) {
        if (e.uid == uid)
            return *e.block;
    }
    auto block = std::make_shared<ThreadBlock>();
    {
        std::lock_guard<std::mutex> lock(mutex);
        blocks.push_back(block);
    }
    tls_state.entries.push_back(
        TlsEntry{uid, block, weak_from_this()});
    return *block;
}

void
RegistryCore::growBlock(ThreadBlock &block, uint32_t slot)
{
    std::lock_guard<std::mutex> lock(mutex);
    while (block.capacity <= slot) {
        block.chunks.push_back(std::make_unique<Chunk>());
        block.capacity = block.chunks.size() * kChunkSlots;
    }
}

void
RegistryCore::retire(const std::shared_ptr<ThreadBlock> &block)
{
    std::lock_guard<std::mutex> lock(mutex);
    if (retired.size() < block->capacity)
        retired.resize(block->capacity, 0);
    for (uint32_t s = 0; s < block->capacity; ++s)
        retired[s] += block->read(s);
    blocks.erase(std::remove(blocks.begin(), blocks.end(), block),
                 blocks.end());
}

uint64_t
RegistryCore::sumSlotLocked(uint32_t slot) const
{
    uint64_t total = slot < retired.size() ? retired[slot] : 0;
    for (const auto &b : blocks) {
        if (slot < b->capacity)
            total += b->read(slot);
    }
    return total;
}

uint64_t
RegistryCore::sumSlot(uint32_t slot) const
{
    std::lock_guard<std::mutex> lock(mutex);
    return sumSlotLocked(slot);
}

} // namespace detail

void
Counter::add(uint64_t n)
{
    detail::ThreadBlock &block = core_->localBlock();
    if (slot_ >= block.capacity)
        core_->growBlock(block, slot_);
    std::atomic<uint64_t> &s = block.slot(slot_);
    // Owner-only writer: a relaxed load/store pair compiles to a
    // plain increment, unlike fetch_add's locked RMW.
    s.store(s.load(std::memory_order_relaxed) + n,
            std::memory_order_relaxed);
}

uint64_t
Counter::value() const
{
    return core_->sumSlot(slot_);
}

void
Timer::record(uint64_t ns)
{
    count_.fetch_add(1, std::memory_order_relaxed);
    total_ns_.fetch_add(ns, std::memory_order_relaxed);
    uint64_t prev = max_ns_.load(std::memory_order_relaxed);
    while (prev < ns &&
           !max_ns_.compare_exchange_weak(prev, ns,
                                          std::memory_order_relaxed)) {
    }
    std::lock_guard<std::mutex> lock(mutex_);
    hist_.record(ns);
}

uint64_t
Timer::percentileNs(double q) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hist_.percentile(q);
}

void
Distribution::record(uint64_t value)
{
    std::lock_guard<std::mutex> lock(mutex_);
    hist_.record(value);
}

uint64_t
Distribution::count() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hist_.count();
}

double
Distribution::sum() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hist_.sum();
}

uint64_t
Distribution::min() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hist_.min();
}

uint64_t
Distribution::max() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hist_.max();
}

double
Distribution::mean() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hist_.mean();
}

uint64_t
Distribution::percentile(double q) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hist_.percentile(q);
}

HdrHistogram
Distribution::histogram() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hist_;
}

uint64_t
Snapshot::counter(const std::string &name) const
{
    for (const auto &c : counters) {
        if (c.name == name)
            return c.value;
    }
    return 0;
}

Registry::Registry() : core_(std::make_shared<detail::RegistryCore>())
{}

Registry::~Registry() = default;

Registry &
Registry::global()
{
    // Leaked so instrument references cached in function-local
    // statics stay valid through static destruction and the final
    // TLS merge of the main thread.
    static Registry *g = new Registry();
    return *g;
}

Counter &
Registry::counter(const std::string &name, const std::string &desc)
{
    std::lock_guard<std::mutex> lock(core_->mutex);
    auto it = core_->counters.find(name);
    if (it != core_->counters.end())
        return *it->second;
    core_->checkNameFree(name, "counter");
    auto *c = new Counter(core_.get(), core_->next_slot++, name, desc);
    core_->counters.emplace(name, std::unique_ptr<Counter>(c));
    return *c;
}

Gauge &
Registry::gauge(const std::string &name, const std::string &desc)
{
    std::lock_guard<std::mutex> lock(core_->mutex);
    auto it = core_->gauges.find(name);
    if (it != core_->gauges.end())
        return *it->second;
    core_->checkNameFree(name, "gauge");
    auto *g = new Gauge(name, desc);
    core_->gauges.emplace(name, std::unique_ptr<Gauge>(g));
    return *g;
}

Timer &
Registry::timer(const std::string &name, const std::string &desc)
{
    std::lock_guard<std::mutex> lock(core_->mutex);
    auto it = core_->timers.find(name);
    if (it != core_->timers.end())
        return *it->second;
    core_->checkNameFree(name, "timer");
    auto *t = new Timer(name, desc);
    core_->timers.emplace(name, std::unique_ptr<Timer>(t));
    return *t;
}

Distribution &
Registry::distribution(const std::string &name,
                       const std::string &desc)
{
    std::lock_guard<std::mutex> lock(core_->mutex);
    auto it = core_->distributions.find(name);
    if (it != core_->distributions.end())
        return *it->second;
    core_->checkNameFree(name, "distribution");
    auto *d = new Distribution(name, desc);
    core_->distributions.emplace(name,
                                 std::unique_ptr<Distribution>(d));
    return *d;
}

Snapshot
Registry::snapshot() const
{
    Snapshot snap;
    std::lock_guard<std::mutex> lock(core_->mutex);
    for (const auto &[name, c] : core_->counters) {
        snap.counters.push_back(Snapshot::CounterVal{
            name, c->desc(), core_->sumSlotLocked(c->slot_)});
    }
    for (const auto &[name, g] : core_->gauges) {
        snap.gauges.push_back(
            Snapshot::GaugeVal{name, g->desc(), g->value()});
    }
    for (const auto &[name, t] : core_->timers) {
        Snapshot::TimerVal v;
        v.name = name;
        v.desc = t->desc();
        v.count = t->count();
        v.total_ns = t->totalNs();
        v.max_ns = t->maxNs();
        // Timer's histogram lock nests inside the registry lock
        // (never taken in the other order).
        std::lock_guard<std::mutex> tlock(t->mutex_);
        v.p50_ns = t->hist_.percentile(0.50);
        v.p90_ns = t->hist_.percentile(0.90);
        v.p99_ns = t->hist_.percentile(0.99);
        v.p999_ns = t->hist_.percentile(0.999);
        snap.timers.push_back(std::move(v));
    }
    for (const auto &[name, d] : core_->distributions) {
        Snapshot::DistVal v;
        v.name = name;
        v.desc = d->desc();
        // Distribution has its own lock; safe to take under the
        // registry lock (never taken in the other order).
        std::lock_guard<std::mutex> dlock(d->mutex_);
        v.count = d->hist_.count();
        v.sum = d->hist_.sum();
        v.mean = d->hist_.mean();
        v.min = d->hist_.min();
        v.max = d->hist_.max();
        v.p50 = d->hist_.percentile(0.50);
        v.p90 = d->hist_.percentile(0.90);
        v.p99 = d->hist_.percentile(0.99);
        v.p999 = d->hist_.percentile(0.999);
        snap.distributions.push_back(std::move(v));
    }
    return snap;
}

void
Registry::reset()
{
    std::lock_guard<std::mutex> lock(core_->mutex);
    std::fill(core_->retired.begin(), core_->retired.end(), 0);
    for (auto &b : core_->blocks) {
        for (uint32_t s = 0; s < b->capacity; ++s)
            b->slot(s).store(0, std::memory_order_relaxed);
    }
    for (auto &[name, g] : core_->gauges)
        g->set(0);
    for (auto &[name, t] : core_->timers) {
        t->count_.store(0, std::memory_order_relaxed);
        t->total_ns_.store(0, std::memory_order_relaxed);
        t->max_ns_.store(0, std::memory_order_relaxed);
        std::lock_guard<std::mutex> tlock(t->mutex_);
        t->hist_.clear();
    }
    for (auto &[name, d] : core_->distributions) {
        std::lock_guard<std::mutex> dlock(d->mutex_);
        d->hist_.clear();
    }
}

} // namespace obs
} // namespace dnasim

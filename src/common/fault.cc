#include "common/fault.hh"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <map>
#include <mutex>
#include <thread>

// Registry Points live for the whole process (armed fast paths may
// hold one across shutdown), so they are allocated once and never
// freed.  Tell LeakSanitizer the leak is the design, not a bug.
#if defined(__has_feature)
#if __has_feature(address_sanitizer)
#define ASR_FAULT_HAS_LSAN 1
#endif
#elif defined(__SANITIZE_ADDRESS__)
#define ASR_FAULT_HAS_LSAN 1
#endif
#ifdef ASR_FAULT_HAS_LSAN
#include <sanitizer/lsan_interface.h>
#endif

namespace asr::fault {

std::atomic<bool> detail::gArmed{false};

namespace {

struct Point
{
    std::string name;
    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> fires{0};
    std::atomic<std::uint64_t> hitSeq{0};  //!< schedule position
    std::atomic<bool> enabled{true};       //!< passes Config::only
};

Point *
makePoint(const char *name)
{
    Point *p = new Point{name};
#ifdef ASR_FAULT_HAS_LSAN
    __lsan_ignore_object(p);
#endif
    return p;
}

struct Registry
{
    std::mutex mu;
    std::map<std::string, Point *> points;  // Point leaks: process-lifetime
    Config config;
    std::atomic<std::uint64_t> firesLeft{0};

    Registry()
    {
        // Canonical seams, pre-registered so points() (and with it
        // the chaos suite's coverage assertion and the docs table)
        // sees the full set even before a seam's first hit.  Keep in
        // sync with docs/ARCHITECTURE.md "Failure model".
        for (const char *name :
             {"net.server.accept", "net.server.recv",
              "net.server.recv.short", "net.server.send",
              "net.server.send.short", "net.server.wake",
              "net.client.connect", "net.client.recv",
              "net.client.recv.short", "net.client.send",
              "net.client.send.short", "api.engine.tick.stall"})
            points.emplace(name, makePoint(name));
    }

    Point *
    lookup(const char *name)
    {
        std::lock_guard<std::mutex> lock(mu);
        auto it = points.find(name);
        if (it == points.end())
            it = points.emplace(name, makePoint(name)).first;
        return it->second;
    }
};

Registry &
registry()
{
    static Registry r;
    return r;
}

/** splitmix64: the per-hit schedule hash. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ULL;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
    return x ^ (x >> 31);
}

std::uint64_t
nameHash(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a
    for (const char c : s)
        h = (h ^ std::uint8_t(c)) * 0x100000001b3ULL;
    return h;
}

/**
 * Deterministic per-hit decision.  @param salt distinguishes the
 * fire/no-fire roll from secondary rolls (errno pick, length pick)
 * of the same hit.  @return the hit's hash, or 0 if it doesn't fire.
 */
std::uint64_t
roll(Point &p, std::uint64_t salt = 0)
{
    Registry &r = registry();
    Config cfg;
    {
        std::lock_guard<std::mutex> lock(r.mu);
        cfg = r.config;
    }
    p.hits.fetch_add(1, std::memory_order_relaxed);
    if (!p.enabled.load(std::memory_order_relaxed) || cfg.rate <= 0.0)
        return 0;
    const std::uint64_t i =
        p.hitSeq.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t h =
        mix(cfg.seed ^ mix(nameHash(p.name)) ^ mix(i) ^ salt);
    if (double(h >> 11) * 0x1.0p-53 >= cfg.rate)
        return 0;
    // Global budget: claim one fire or give up.
    std::uint64_t left = r.firesLeft.load(std::memory_order_relaxed);
    do {
        if (left == 0)
            return 0;
    } while (!r.firesLeft.compare_exchange_weak(
        left, left - 1, std::memory_order_relaxed));
    p.fires.fetch_add(1, std::memory_order_relaxed);
    return h | 1;  // nonzero
}

bool
isRetryable(int err)
{
    return err == EINTR || err == EAGAIN || err == EWOULDBLOCK;
}

} // namespace

void
arm(const Config &config)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.config = config;
    r.firesLeft.store(config.maxFires, std::memory_order_relaxed);
    for (auto &kv : r.points) {
        kv.second->hitSeq.store(0, std::memory_order_relaxed);
        kv.second->enabled.store(
            config.only.empty() ||
                std::find(config.only.begin(), config.only.end(),
                          kv.first) != config.only.end(),
            std::memory_order_relaxed);
    }
    detail::gArmed.store(true, std::memory_order_release);
}

void
disarm()
{
    Registry &r = registry();
    detail::gArmed.store(false, std::memory_order_release);
    std::lock_guard<std::mutex> lock(r.mu);
    r.config = Config{};
}

int
detail::failErrnoSlow(const char *point,
                      std::initializer_list<int> errnos)
{
    Point &p = *registry().lookup(point);
    Config cfg;
    {
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.mu);
        cfg = r.config;
    }
    std::vector<int> candidates;
    for (const int e : errnos)
        if (!cfg.retryableOnly || isRetryable(e))
            candidates.push_back(e);
    if (candidates.empty()) {
        p.hits.fetch_add(1, std::memory_order_relaxed);
        return 0;
    }
    const std::uint64_t h = roll(p);
    if (h == 0)
        return 0;
    return candidates[std::size_t(mix(h ^ 0x5eedULL) %
                                  candidates.size())];
}

std::size_t
detail::shortenIoSlow(const char *point, std::size_t len)
{
    if (len <= 1)
        return len;
    Point &p = *registry().lookup(point);
    const std::uint64_t h = roll(p);
    if (h == 0)
        return len;
    // At least one byte so a shortened read can never masquerade as
    // EOF (which callers rightly treat as a dead peer).
    return 1 + std::size_t(mix(h ^ 0x10ULL) % len);
}

void
detail::stallSlow(const char *point)
{
    Point &p = *registry().lookup(point);
    unsigned max_ms;
    {
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.mu);
        max_ms = r.config.stallMaxMs;
    }
    const std::uint64_t h = roll(p);
    if (h == 0 || max_ms == 0)
        return;
    std::this_thread::sleep_for(std::chrono::milliseconds(
        1 + mix(h ^ 0x57a11ULL) % max_ms));
}

std::vector<PointStats>
points()
{
    Registry &r = registry();
    std::vector<PointStats> out;
    std::lock_guard<std::mutex> lock(r.mu);
    out.reserve(r.points.size());
    for (const auto &kv : r.points)
        out.push_back(PointStats{
            kv.first,
            kv.second->hits.load(std::memory_order_relaxed),
            kv.second->fires.load(std::memory_order_relaxed)});
    return out;
}

void
resetStats()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    for (auto &kv : r.points) {
        kv.second->hits.store(0, std::memory_order_relaxed);
        kv.second->fires.store(0, std::memory_order_relaxed);
    }
}

bool
armFromEnv()
{
    const char *seed = std::getenv("ASR_FAULT_SEED");
    if (seed == nullptr || *seed == '\0')
        return false;
    Config cfg;
    cfg.seed = std::strtoull(seed, nullptr, 10);
    cfg.rate = 0.05;
    if (const char *rate = std::getenv("ASR_FAULT_RATE"))
        cfg.rate = std::strtod(rate, nullptr);
    if (const char *retry = std::getenv("ASR_FAULT_RETRYABLE"))
        cfg.retryableOnly = retry[0] == '1';
    arm(cfg);
    return true;
}

} // namespace asr::fault

/**
 * @file
 * Deterministic fault injection for chaos testing.
 *
 * Production code marks its failure seams with named injection
 * points -- the syscall boundaries in the network layer, the batch
 * coordinator's tick -- and a chaos test arms the registry with a
 * seed and a fire rate.  Armed, each seam deterministically decides
 * per hit whether to fail (and how: which errno, how short an I/O,
 * how long a stall) from a hash of (seed, point name, hit index), so
 * the same seed replays the same fault schedule regardless of
 * wall-clock or thread interleaving of *other* points.  Disarmed --
 * the production default -- every seam is a single relaxed atomic
 * load and a predicted-not-taken branch.
 *
 * Seams:
 *   - failErrno(point, {candidates}): returns 0 (proceed) or an
 *     errno value the caller must treat exactly as if the syscall
 *     had returned it, *instead of* performing the real call.
 *   - shortenIo(point, len): returns a possibly smaller (>= 1)
 *     length to pass to the real read/write, exercising the caller's
 *     partial-I/O resumption.
 *   - stall(point): sleeps up to Config::stallMaxMs when it fires,
 *     simulating a slow tick / scheduling hiccup.
 *
 * Config::retryableOnly restricts the schedule to faults that are
 * invisible after retry (EINTR/EAGAIN, short I/O, stalls): a serving
 * run under such a schedule must be bit-identical to a fault-free
 * run, and the chaos suite asserts exactly that.
 *
 * Thread-safe throughout; all counters are atomics.
 */

#ifndef ASR_COMMON_FAULT_HH
#define ASR_COMMON_FAULT_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace asr::fault {

/** One armed fault schedule. */
struct Config
{
    std::uint64_t seed = 1;     //!< replay key for the schedule
    double rate = 0.0;          //!< per-hit fire probability [0,1]
    std::uint64_t maxFires = ~std::uint64_t(0);  //!< global budget
    bool retryableOnly = false; //!< only EINTR/EAGAIN, short I/O, stalls
    std::vector<std::string> only;  //!< restrict to these points (empty=all)
    unsigned stallMaxMs = 5;    //!< upper bound for stall() sleeps
};

/** Arm the registry.  Resets per-point schedules, not lifetime stats. */
void arm(const Config &config);

/** Disarm: every seam back to the zero-cost path. */
void disarm();

namespace detail {
extern std::atomic<bool> gArmed;
int failErrnoSlow(const char *point, std::initializer_list<int> errnos);
std::size_t shortenIoSlow(const char *point, std::size_t len);
void stallSlow(const char *point);
} // namespace detail

/** True while a schedule is armed (relaxed load; the fast path). */
inline bool
armed()
{
    return detail::gArmed.load(std::memory_order_relaxed);
}

/**
 * Maybe fail a syscall seam.
 * @param point  registry key, e.g. "net.server.recv"
 * @param errnos candidate errno values for an injected failure
 * @return 0 to proceed with the real call, else the errno the caller
 *         must act on instead of making the call
 */
inline int
failErrno(const char *point, std::initializer_list<int> errnos)
{
    return armed() ? detail::failErrnoSlow(point, errnos) : 0;
}

/**
 * Maybe shorten an I/O request to exercise partial-read/write
 * resumption.  @return a length in [1, len] to pass to the syscall.
 */
inline std::size_t
shortenIo(const char *point, std::size_t len)
{
    return armed() ? detail::shortenIoSlow(point, len) : len;
}

/** Maybe sleep up to Config::stallMaxMs (a slow-tick hiccup). */
inline void
stall(const char *point)
{
    if (armed())
        detail::stallSlow(point);
}

/** RAII arm/disarm for tests. */
struct ScopedArm
{
    explicit ScopedArm(const Config &config) { arm(config); }
    ~ScopedArm() { disarm(); }
    ScopedArm(const ScopedArm &) = delete;
    ScopedArm &operator=(const ScopedArm &) = delete;
};

/** Lifetime counters of one injection point. */
struct PointStats
{
    std::string name;
    std::uint64_t hits = 0;   //!< times the seam was reached armed
    std::uint64_t fires = 0;  //!< times a fault was injected
};

/**
 * All known points (the canonical seams are pre-registered at
 * startup, so coverage checks see them even before first hit),
 * sorted by name.
 */
std::vector<PointStats> points();

/** Zero all hit/fire counters (keeps registrations and the schedule). */
void resetStats();

/**
 * Arm from the environment if ASR_FAULT_SEED is set: seed from
 * ASR_FAULT_SEED, rate from ASR_FAULT_RATE (default 0.05), retryable
 * restriction from ASR_FAULT_RETRYABLE=1.  Returns true if armed.
 * Lets CI sweep chaos schedules without plumbing flags through every
 * binary.
 */
bool armFromEnv();

} // namespace asr::fault

#endif // ASR_COMMON_FAULT_HH

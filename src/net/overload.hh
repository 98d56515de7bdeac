/**
 * @file
 * Overload state machine of the serving front door.
 *
 * The server feeds it one observation per event-loop pass -- how
 * late the pass ran versus its intended cadence (tick lag) and how
 * much inbound audio is parked waiting for the engine (queue depth)
 * -- and it answers the only question admission control needs:
 * Healthy, Degraded, or Shedding?
 *
 *   Healthy   admit streams with the engine's configured knobs.
 *   Degraded  admit, but shrink the stream's beam/maxActive toward
 *             the configured floors: the paper's accuracy/latency
 *             knob as a load-shedding lever -- slightly worse
 *             hypotheses instead of refused connections.  Results
 *             are marked degraded on the wire.
 *   Shedding  refuse new streams with RETRY_AFTER carrying
 *             backoffHintMs(), which grows with the overload so a
 *             retrying fleet spreads out instead of thundering back.
 *
 * Both signals are EWMA-smoothed, and the exit thresholds sit below
 * the entry thresholds (hysteresis), so one slow tick cannot flap
 * the server in and out of degradation.  Pure state machine: no
 * clocks, no syscalls -- the caller supplies every observation --
 * so tests drive it deterministically.
 *
 * Single-threaded by design (the epoll loop owns it); wrap it if a
 * multi-threaded front door ever needs one.
 */

#ifndef ASR_NET_OVERLOAD_HH
#define ASR_NET_OVERLOAD_HH

#include <cstddef>
#include <cstdint>

namespace asr::net {

/**
 * Hysteresis: a state is left only once both smoothed signals drop
 * below this fraction of its entry thresholds.
 */
constexpr double kExitFraction = 0.5;

/** The lowest maxActive a degraded admission caps a stream to. */
constexpr std::uint32_t kMaxActiveFloor = 500;

/** Thresholds and degradation knobs of the OverloadMonitor. */
struct OverloadOptions
{
    // Entry thresholds (smoothed signal >= threshold enters the
    // state); exits happen below kExitFraction * entry.
    double degradeTickLagMs = 20.0;  //!< enter Degraded
    double shedTickLagMs = 100.0;    //!< enter Shedding
    std::size_t degradeQueueDepth = 64;   //!< parked chunks
    std::size_t shedQueueDepth = 256;

    /** EWMA weight of the newest observation, in (0, 1]. */
    double smoothing = 0.2;

    /**
     * Degraded-admission knobs: beam is scaled (never below
     * beamFloor), maxActive is capped (never below kMaxActiveFloor).
     */
    float beamScale = 0.6f;
    float beamFloor = 6.0f;
    std::uint32_t degradedMaxActive = 2000;

    /**
     * Set false for a reject-only policy: the Degraded band
     * collapses into Healthy and the server only ever admits at
     * full quality or sheds.  The overload bench A/Bs exactly this
     * switch.
     */
    bool enableDegraded = true;

    /** RETRY_AFTER hint range under Shedding. */
    std::uint32_t backoffBaseMs = 50;
    std::uint32_t backoffCapMs = 2000;
};

class OverloadMonitor
{
  public:
    enum class State
    {
        Healthy,
        Degraded,
        Shedding,
    };

    explicit OverloadMonitor(const OverloadOptions &options =
                                 OverloadOptions());

    /**
     * Fold one event-loop pass into the smoothed signals and update
     * the state.
     * @param tick_lag_ms how late the pass ran vs its cadence
     * @param queue_depth inbound chunks parked for engine backpressure
     * @return the state after the observation
     */
    State observe(double tick_lag_ms, std::size_t queue_depth);

    State state() const { return state_; }

    /** Degraded beam for an engine-wide base: scaled, floored. */
    float degradedBeam(float base_beam) const;

    /** Degraded maxActive for an engine-wide base (0 = unbounded). */
    std::uint32_t degradedMaxActive(std::uint32_t base_max_active) const;

    /**
     * RETRY_AFTER hint while Shedding: backoffBaseMs scaled by how
     * far the worse signal sits past its shed threshold, capped at
     * backoffCapMs.  Deeper overload tells clients to stay away
     * longer.
     */
    std::uint32_t backoffHintMs() const;

    /** Smoothed signals (for stats/bench reporting). */
    double tickLagMs() const { return lagEwma; }
    double queueDepth() const { return depthEwma; }

    /** Lifetime transition counters (for stats reporting). */
    std::uint64_t degradedEntries() const { return degradedEntries_; }
    std::uint64_t sheddingEntries() const { return sheddingEntries_; }

  private:
    OverloadOptions opts;
    State state_ = State::Healthy;
    double lagEwma = 0.0;
    double depthEwma = 0.0;
    std::uint64_t degradedEntries_ = 0;
    std::uint64_t sheddingEntries_ = 0;
};

/** Human-readable state name ("healthy"/"degraded"/"shedding"). */
const char *overloadStateName(OverloadMonitor::State state);

} // namespace asr::net

#endif // ASR_NET_OVERLOAD_HH

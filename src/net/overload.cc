#include "net/overload.hh"

#include <algorithm>

#include "common/logging.hh"

namespace asr::net {

OverloadMonitor::OverloadMonitor(const OverloadOptions &options)
    : opts(options)
{
    ASR_ASSERT(opts.smoothing > 0.0 && opts.smoothing <= 1.0,
               "EWMA smoothing must be in (0, 1]");
    ASR_ASSERT(opts.degradeTickLagMs <= opts.shedTickLagMs &&
                   opts.degradeQueueDepth <= opts.shedQueueDepth,
               "degrade thresholds must not exceed shed thresholds");
}

OverloadMonitor::State
OverloadMonitor::observe(double tick_lag_ms, std::size_t queue_depth)
{
    const double a = opts.smoothing;
    lagEwma = (1.0 - a) * lagEwma + a * std::max(0.0, tick_lag_ms);
    depthEwma = (1.0 - a) * depthEwma + a * double(queue_depth);

    // Enter the worst state either smoothed signal justifies; leave
    // it only once BOTH signals drop below the hysteresis fraction
    // of its entry threshold.  Evaluated top-down so a Shedding
    // server relaxes through Degraded, never straight to Healthy.
    const bool past_shed = lagEwma >= opts.shedTickLagMs ||
                           depthEwma >= double(opts.shedQueueDepth);
    const bool below_shed_exit =
        lagEwma < kExitFraction * opts.shedTickLagMs &&
        depthEwma < kExitFraction * double(opts.shedQueueDepth);
    const bool past_degrade =
        lagEwma >= opts.degradeTickLagMs ||
        depthEwma >= double(opts.degradeQueueDepth);
    const bool below_degrade_exit =
        lagEwma < kExitFraction * opts.degradeTickLagMs &&
        depthEwma < kExitFraction * double(opts.degradeQueueDepth);

    State next = state_;
    switch (state_) {
    case State::Healthy:
        if (past_shed)
            next = State::Shedding;
        else if (past_degrade && opts.enableDegraded)
            next = State::Degraded;
        break;
    case State::Degraded:
        if (past_shed)
            next = State::Shedding;
        else if (below_degrade_exit)
            next = State::Healthy;
        break;
    case State::Shedding:
        if (below_shed_exit)
            next = State::Healthy;
        else if (!past_shed && opts.enableDegraded)
            next = State::Degraded;
        break;
    }
    if (next != state_) {
        if (next == State::Degraded)
            ++degradedEntries_;
        else if (next == State::Shedding)
            ++sheddingEntries_;
        state_ = next;
    }
    return state_;
}

float
OverloadMonitor::degradedBeam(float base_beam) const
{
    if (base_beam <= 0.0f)
        return opts.beamFloor;
    return std::max(opts.beamFloor, base_beam * opts.beamScale);
}

std::uint32_t
OverloadMonitor::degradedMaxActive(std::uint32_t base_max_active) const
{
    // 0 means "unbounded" upstream, so the degraded cap always
    // tightens; a configured cap is only ever shrunk, never grown
    // (a base already below the floor stays where it is).
    std::uint32_t capped = opts.degradedMaxActive;
    if (base_max_active > 0)
        capped = std::min(capped, base_max_active);
    capped = std::max(kMaxActiveFloor, capped);
    if (base_max_active > 0)
        capped = std::min(capped, base_max_active);
    return capped;
}

std::uint32_t
OverloadMonitor::backoffHintMs() const
{
    // Scale by how far the worse signal sits past its shed
    // threshold: 1x at the threshold, 2x at twice it, and so on.
    double severity = 1.0;
    if (opts.shedTickLagMs > 0.0)
        severity = std::max(severity, lagEwma / opts.shedTickLagMs);
    if (opts.shedQueueDepth > 0)
        severity = std::max(
            severity, depthEwma / double(opts.shedQueueDepth));
    const double hint = double(opts.backoffBaseMs) * severity;
    return std::uint32_t(
        std::min(hint, double(opts.backoffCapMs)));
}

const char *
overloadStateName(OverloadMonitor::State state)
{
    switch (state) {
    case OverloadMonitor::State::Healthy:
        return "healthy";
    case OverloadMonitor::State::Degraded:
        return "degraded";
    case OverloadMonitor::State::Shedding:
        return "shedding";
    }
    return "?";
}

} // namespace asr::net

#include "fleet/shard_router.hh"

#include <algorithm>
#include <cassert>

#include "common/logging.hh"

namespace asr::fleet {

namespace {

/** splitmix64 finalizer: the cheap, well-mixed hash every per-shard
 *  rendezvous score is built from. */
std::uint64_t
mix64(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

RouterOptions
validated(RouterOptions options)
{
    if (options.shards == 0) {
        warn("fleet: shards must be >= 1; clamping to 1");
        options.shards = 1;
    }
    return options;
}

} // namespace

ShardRouter::ShardRouter(const pipeline::AsrModel &model,
                         const RouterOptions &options)
    : opts(validated(options))
{
    engines.reserve(opts.shards);
    for (unsigned s = 0; s < opts.shards; ++s)
        engines.push_back(
            std::make_unique<api::Engine>(model, opts.engine));
    monitors.assign(opts.shards, net::OverloadMonitor(opts.overload));
    liveCount.assign(opts.shards, 0);
}

ShardRouter::ShardRouter(const wfst::Wfst &net,
                         const pipeline::AsrSystemConfig &model_cfg,
                         const RouterOptions &options)
    : opts(validated(options))
{
    engines.reserve(opts.shards);
    for (unsigned s = 0; s < opts.shards; ++s)
        engines.push_back(
            std::make_unique<api::Engine>(net, model_cfg, opts.engine));
    monitors.assign(opts.shards, net::OverloadMonitor(opts.overload));
    liveCount.assign(opts.shards, 0);
}

ShardRouter::~ShardRouter() = default;

// ---------------------------------------------------------------------------
// Composite handles.
// ---------------------------------------------------------------------------

std::uint64_t
ShardRouter::compose(unsigned shard, std::uint64_t engine_h)
{
    assert(engine_h != 0 && engine_h < (1ull << kShardShift));
    return (std::uint64_t(shard) + 1) << kShardShift | engine_h;
}

std::uint64_t
ShardRouter::engineHandle(api::StreamHandle h)
{
    return h.value & ((1ull << kShardShift) - 1);
}

unsigned
ShardRouter::shardOf(api::StreamHandle h) const
{
    const std::uint64_t tag = h.value >> kShardShift;
    if (tag == 0 || tag > engines.size())
        return shardCount();  // invalid / foreign
    return unsigned(tag - 1);
}

api::Engine *
ShardRouter::engineFor(api::StreamHandle h) const
{
    const unsigned s = shardOf(h);
    return s < engines.size() ? engines[s].get() : nullptr;
}

// ---------------------------------------------------------------------------
// Placement.
// ---------------------------------------------------------------------------

std::uint64_t
ShardRouter::score(std::uint64_t key, unsigned shard) const
{
    // Two mixing rounds: the first folds seed and key together, the
    // second decorrelates the shard index, so adjacent shards get
    // independent scores for the same key.  A pure function of
    // (seed, key, shard) -- adding shard N+1 leaves shards 0..N's
    // scores untouched, which is the whole rendezvous stability
    // argument.
    return mix64(mix64(opts.placementSeed ^ key) + shard);
}

unsigned
ShardRouter::placeKey(std::uint64_t key) const
{
    unsigned best = 0;
    std::uint64_t best_score = score(key, 0);
    for (unsigned s = 1; s < engines.size(); ++s) {
        const std::uint64_t sc = score(key, s);
        if (sc > best_score) {  // ties (vanishing odds) keep lowest s
            best = s;
            best_score = sc;
        }
    }
    return best;
}

std::vector<unsigned>
ShardRouter::shardsByLoadLocked() const
{
    std::vector<unsigned> order(engines.size());
    for (unsigned s = 0; s < engines.size(); ++s)
        order[s] = s;
    std::stable_sort(order.begin(), order.end(),
                     [this](unsigned a, unsigned b) {
                         return liveCount[a] < liveCount[b];
                     });
    return order;
}

void
ShardRouter::reconcileLocked()
{
    for (auto it = liveShard.begin(); it != liveShard.end();) {
        const api::StreamState st =
            engines[it->second]->state(
                api::StreamHandle{engineHandle(
                    api::StreamHandle{it->first})});
        if (st == api::StreamState::Done ||
            st == api::StreamState::Cancelled) {
            if (liveCount[it->second] > 0)
                --liveCount[it->second];
            it = liveShard.erase(it);
        } else {
            ++it;
        }
    }
}

// ---------------------------------------------------------------------------
// Admission.
// ---------------------------------------------------------------------------

api::StreamHandle
ShardRouter::open(const api::StreamOptions &options,
                  api::OpenStatus &status)
{
    std::uint64_t key;
    {
        std::lock_guard<std::mutex> lock(mu);
        key = nextKey++;
    }
    return doOpen(key, options, status);
}

api::StreamHandle
ShardRouter::openKeyed(std::uint64_t key,
                       const api::StreamOptions &options,
                       api::OpenStatus &status)
{
    return doOpen(key, options, status);
}

api::StreamHandle
ShardRouter::doOpen(std::uint64_t key,
                    const api::StreamOptions &options,
                    api::OpenStatus &status)
{
    std::lock_guard<std::mutex> lock(mu);
    reconcileLocked();

    const unsigned preferred = placeKey(key);

    // Attempt order.  Healthy rendezvous target goes first (the
    // common case routes with zero extra work); a target that left
    // Healthy is skipped up front -- that IS the rebalance -- and new
    // opens spread by current load instead.  Either way the remaining
    // shards follow least-loaded first, so a capacity rejection on
    // the first choice degrades into load-spreading rather than a
    // refusal while other shards sit idle.  With rebalance off the
    // rendezvous shard is the only attempt.
    std::vector<unsigned> order;
    if (!opts.rebalance) {
        order.push_back(preferred);
    } else {
        const bool healthy = monitors[preferred].state() ==
                             net::OverloadMonitor::State::Healthy;
        if (healthy)
            order.push_back(preferred);
        for (unsigned s : shardsByLoadLocked())
            if (s != preferred || !healthy)
                order.push_back(s);
    }

    for (unsigned s : order) {
        api::OpenStatus st = api::OpenStatus::Ok;
        const api::StreamHandle eh = engines[s]->open(options, st);
        if (st == api::OpenStatus::Ok) {
            // A successful admission is a healthy observation: the
            // monitor's EWMA decays back toward exit and the shard
            // eventually rejoins rendezvous routing (hysteresis keeps
            // one success from flapping it back instantly).
            monitors[s].observe(0.0, 0);
            ++liveCount[s];
            const api::StreamHandle h{compose(s, eh.value)};
            liveShard.emplace(h.value, s);
            if (s == preferred)
                ++count.opensRouted;
            else
                ++count.opensDiverted;
            status = api::OpenStatus::Ok;
            return h;
        }
        if (st == api::OpenStatus::InvalidOptions) {
            // Permanent for these options on every shard; trying the
            // others would just repeat the warn().
            status = api::OpenStatus::InvalidOptions;
            return api::StreamHandle{};
        }
        // Capacity: a full-strength shed observation, so a shard that
        // keeps rejecting crosses the monitor's entry threshold and
        // stops being anyone's first choice until it drains.
        monitors[s].observe(opts.overload.shedTickLagMs,
                            opts.overload.shedQueueDepth);
    }

    ++count.opensRejected;
    status = api::OpenStatus::Capacity;
    return api::StreamHandle{};
}

// ---------------------------------------------------------------------------
// Pinned-stream forwarding (no router lock on the data path).
// ---------------------------------------------------------------------------

api::PushResult
ShardRouter::pushFor(api::StreamHandle h, std::span<const float> samples,
                     std::chrono::nanoseconds timeout)
{
    api::Engine *e = engineFor(h);
    if (e == nullptr)
        return api::PushResult::Rejected;
    return e->pushFor(api::StreamHandle{engineHandle(h)}, samples,
                      timeout);
}

std::vector<wfst::WordId>
ShardRouter::partial(api::StreamHandle h) const
{
    const api::Engine *e = engineFor(h);
    if (e == nullptr)
        return {};
    return e->partial(api::StreamHandle{engineHandle(h)});
}

std::future<pipeline::RecognitionResult>
ShardRouter::finish(api::StreamHandle h)
{
    api::Engine *e = engineFor(h);
    if (e == nullptr)
        return {};
    // The stream stays in the live table while Finishing -- it still
    // loads its shard -- and falls out on a later reconcile once Done.
    return e->finish(api::StreamHandle{engineHandle(h)});
}

bool
ShardRouter::cancel(api::StreamHandle h)
{
    api::Engine *e = engineFor(h);
    if (e == nullptr)
        return false;
    const bool cancelled =
        e->cancel(api::StreamHandle{engineHandle(h)});
    if (cancelled) {
        std::lock_guard<std::mutex> lock(mu);
        const auto it = liveShard.find(h.value);
        if (it != liveShard.end()) {
            if (liveCount[it->second] > 0)
                --liveCount[it->second];
            liveShard.erase(it);
        }
    }
    return cancelled;
}

api::StreamState
ShardRouter::state(api::StreamHandle h) const
{
    const api::Engine *e = engineFor(h);
    if (e == nullptr)
        return api::StreamState::Done;
    return e->state(api::StreamHandle{engineHandle(h)});
}

bool
ShardRouter::deadlineExpired(api::StreamHandle h) const
{
    const api::Engine *e = engineFor(h);
    if (e == nullptr)
        return false;
    return e->deadlineExpired(api::StreamHandle{engineHandle(h)});
}

void
ShardRouter::drain()
{
    for (auto &e : engines)
        e->drain();
}

// ---------------------------------------------------------------------------
// Stats.
// ---------------------------------------------------------------------------

server::EngineSnapshot
ShardRouter::stats() const
{
    server::EngineSnapshot agg;
    for (const auto &e : engines)
        server::merge(agg, e->stats());
    return agg;
}

float
ShardRouter::baseBeam() const
{
    return engines.front()->baseBeam();
}

server::EngineSnapshot
ShardRouter::shardStats(unsigned index) const
{
    return engines.at(index)->stats();
}

void
ShardRouter::observeShard(unsigned index, double tick_lag_ms,
                          std::size_t queue_depth)
{
    std::lock_guard<std::mutex> lock(mu);
    monitors.at(index).observe(tick_lag_ms, queue_depth);
}

net::OverloadMonitor::State
ShardRouter::shardState(unsigned index) const
{
    std::lock_guard<std::mutex> lock(mu);
    return monitors.at(index).state();
}

std::size_t
ShardRouter::shardLiveStreams(unsigned index) const
{
    std::lock_guard<std::mutex> lock(mu);
    return liveCount.at(index);
}

RouterCounters
ShardRouter::counters() const
{
    std::lock_guard<std::mutex> lock(mu);
    return count;
}

} // namespace asr::fleet

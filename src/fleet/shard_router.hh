/**
 * @file
 * Multi-engine sharding: one api::StreamEndpoint fronting N
 * api::Engine shards, so a process scales past a single engine's
 * worker pool (or a fleet of model replicas) without any caller --
 * including net::Server -- knowing the difference.
 *
 * Placement is rendezvous (highest-random-weight) hashing of a
 * per-stream key: every shard gets a keyed pseudo-random score and
 * the stream goes to the argmax.  Two properties make it the right
 * tool here:
 *
 *  - Deterministic: same placementSeed + same key => same shard,
 *    across runs and across processes.  Capacity planning and the
 *    bit-identity tests rely on it.
 *  - Shard-count stable: growing N to N+1 only ever moves keys to
 *    the NEW shard (the old scores are unchanged; only a new
 *    candidate was added), so a resize reshuffles 1/(N+1) of the
 *    keyspace instead of nearly all of it the way `key % N` does.
 *
 * Streams are PINNED: routing happens once, at open(); the composite
 * handle encodes the owning shard, so push/partial/finish/cancel
 * forward without any table lookup and a rebalance can never migrate
 * a live decode (which would discard decoder state mid-utterance).
 *
 * Rebalancing is admission-time only.  Each shard has a
 * net::OverloadMonitor fed from its own admission outcomes (and
 * optionally from external signals via observeShard): a capacity
 * rejection feeds a shed-strength observation, a successful open
 * feeds a healthy one.  While a shard's smoothed signal holds it out
 * of Healthy, new opens that rendezvous onto it divert to the
 * least-loaded shard instead -- existing streams stay where they
 * are.  The monitor's hysteresis (exit threshold below entry) keeps
 * a single rejection from flapping placement.
 *
 *   rendezvous target Healthy ──────────────► open on target
 *   rendezvous target Degraded/Shedding ────► open on least-loaded
 *   chosen shard rejects (Capacity) ────────► try others, least-
 *                                             loaded first; all
 *                                             full => Capacity
 *
 * Model modes (mirroring Engine's two constructors):
 *  - shared: every shard decodes through one immutable AsrModel
 *    (memory-cheap; the model is read-only so sharing is safe);
 *  - per-shard: each shard builds its own model copy over the same
 *    net + config (what a multi-process fleet would look like; also
 *    the mode for heterogeneous-model experiments later).
 * Results are bit-identical across modes and to a single Engine fed
 * the same per-stream inputs in the same per-shard open order,
 * because results depend only on the model and deriveSeed(baseSeed,
 * sessionId) -- covered by fleet_test's sweep.
 *
 * Threading: open()/cancel()/finish() serialize on the router mutex
 * for the placement tables; push/partial/state forward lock-free to
 * the owning shard (Engine is itself thread-safe).
 */

#ifndef ASR_FLEET_SHARD_ROUTER_HH
#define ASR_FLEET_SHARD_ROUTER_HH

#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "api/engine.hh"
#include "api/stream_endpoint.hh"
#include "net/overload.hh"

namespace asr::fleet {

/** Router configuration. */
struct RouterOptions
{
    /** Number of engine shards (>= 1). */
    unsigned shards = 2;

    /** Per-shard engine configuration (per shard, so live-stream
     *  capacity is shards x maxBatchSessions streams). */
    api::EngineOptions engine;

    /**
     * Seed of the rendezvous hash.  Placement is a pure function of
     * (placementSeed, key, shard), so two routers with the same seed
     * agree on every key -- including routers with different shard
     * counts, up to the documented new-shard-only moves.
     */
    std::uint64_t placementSeed = 0x5eed5eedULL;

    /**
     * Per-shard overload thresholds driving admission-time
     * rebalancing.  The defaults make a shard leave Healthy after a
     * couple of capacity rejections and return once successful opens
     * decay the signal (see feed strengths in shard_router.cc).
     */
    net::OverloadOptions overload;

    /** False pins every open to its rendezvous shard (no diversion);
     *  capacity rejections then surface directly.  Tests and the
     *  bit-identity sweep run with this off. */
    bool rebalance = true;
};

/** Monotonic admission counters (for tests, stats, the bench). */
struct RouterCounters
{
    std::uint64_t opensRouted = 0;   //!< admitted on rendezvous shard
    std::uint64_t opensDiverted = 0; //!< admitted on another shard
    std::uint64_t opensRejected = 0; //!< every shard refused
};

/**
 * The router.  Owns its shards; destruction destroys them (cancelling
 * their streams) in reverse order.
 */
class ShardRouter : public api::StreamEndpoint
{
  public:
    /** Shared-model mode: all shards decode through @p model (must
     *  outlive the router). */
    ShardRouter(const pipeline::AsrModel &model,
                const RouterOptions &options);

    /** Per-shard-model mode: each shard builds its own model over
     *  @p net + @p model_cfg (deterministic, so the copies are
     *  equivalent; see the file comment). */
    ShardRouter(const wfst::Wfst &net,
                const pipeline::AsrSystemConfig &model_cfg,
                const RouterOptions &options);

    ~ShardRouter() override;

    ShardRouter(const ShardRouter &) = delete;
    ShardRouter &operator=(const ShardRouter &) = delete;

    // ---- StreamEndpoint surface -------------------------------------

    /** Open with an internally assigned key (monotonic counter): the
     *  anonymous-caller path net::Server uses.  Placement is still
     *  deterministic for a deterministic call sequence. */
    api::StreamHandle open(const api::StreamOptions &options,
                           api::OpenStatus &status) override;
    using api::StreamEndpoint::open;
    using api::StreamEndpoint::push;

    api::PushResult pushFor(api::StreamHandle h,
                            std::span<const float> samples,
                            std::chrono::nanoseconds timeout) override;
    std::vector<wfst::WordId> partial(api::StreamHandle h) const override;
    std::future<pipeline::RecognitionResult>
    finish(api::StreamHandle h) override;
    bool cancel(api::StreamHandle h) override;
    api::StreamState state(api::StreamHandle h) const override;
    bool deadlineExpired(api::StreamHandle h) const override;
    void drain() override;

    /**
     * Fleet-aggregate snapshot: additive fields summed across shards,
     * maxima maxed, rates recomputed from the sums.  Percentile
     * fields are the worst shard's (a conservative upper bound --
     * merging histograms across shards is not worth the plumbing for
     * an ops signal; per-shard tails are exact via shardStats()).
     */
    server::EngineSnapshot stats() const override;

    float baseBeam() const override;

    // ---- Routing surface --------------------------------------------

    /**
     * Open with an explicit @p key -- the caller's stable stream
     * identity (a connection id, a device serial).  Same key, same
     * seed => same rendezvous shard, always.
     */
    api::StreamHandle openKeyed(std::uint64_t key,
                                const api::StreamOptions &options,
                                api::OpenStatus &status);

    /** Pure rendezvous placement of @p key: no load awareness, no
     *  side effects.  What openKeyed starts from. */
    unsigned placeKey(std::uint64_t key) const;

    unsigned shardCount() const { return unsigned(engines.size()); }

    /** The shard that owns composite handle @p h (shardCount() for
     *  invalid/foreign handles). */
    unsigned shardOf(api::StreamHandle h) const;

    /** Direct access to one shard (tests; per-shard ops surface). */
    api::Engine &shard(unsigned index) { return *engines.at(index); }
    const api::Engine &
    shard(unsigned index) const
    {
        return *engines.at(index);
    }

    /** One shard's exact snapshot (wall-clock since construction). */
    server::EngineSnapshot shardStats(unsigned index) const;

    /**
     * Feed an external overload observation into shard @p index's
     * monitor -- the hook for a deployment where shards report tick
     * lag from their own serving loops (and for tests to force a
     * shard out of Healthy deterministically).
     */
    void observeShard(unsigned index, double tick_lag_ms,
                      std::size_t queue_depth);

    /** Shard @p index's current admission state. */
    net::OverloadMonitor::State shardState(unsigned index) const;

    /** Streams currently pinned (open or finishing) on @p index. */
    std::size_t shardLiveStreams(unsigned index) const;

    RouterCounters counters() const;

  private:
    /** Composite handle layout: (shard+1) << kShardShift | engine
     *  handle.  Engine handles are monotonic from 1 -- reaching
     *  2^48 of them would take centuries -- so the shard tag can
     *  never collide with the handle bits, and tag 0 keeps the
     *  invalid handle (value 0) invalid in composite space too. */
    static constexpr unsigned kShardShift = 48;

    static std::uint64_t compose(unsigned shard, std::uint64_t engine_h);
    /** Engine-local handle bits of @p h. */
    static std::uint64_t engineHandle(api::StreamHandle h);

    /** The engine owning @p h, or nullptr for invalid/foreign
     *  handles (callers then apply the invalid-handle contract). */
    api::Engine *engineFor(api::StreamHandle h) const;

    /** Rendezvous score of (key, shard) under the router seed. */
    std::uint64_t score(std::uint64_t key, unsigned shard) const;

    /** openKeyed's body; the caller-facing entry points wrap it. */
    api::StreamHandle doOpen(std::uint64_t key,
                             const api::StreamOptions &options,
                             api::OpenStatus &status);

    /** Drop terminal streams from the live table (called under mu). */
    void reconcileLocked();

    /** Live-stream counts per shard, least-loaded first (under mu). */
    std::vector<unsigned> shardsByLoadLocked() const;

    RouterOptions opts;
    std::vector<std::unique_ptr<api::Engine>> engines;

    mutable std::mutex mu;
    /** Admission monitors, one per shard (guarded by mu: monitors
     *  are single-threaded by design). */
    std::vector<net::OverloadMonitor> monitors;
    /** Live composite handle -> owning shard; reconciled lazily on
     *  open so finished streams release their load accounting. */
    std::unordered_map<std::uint64_t, unsigned> liveShard;
    std::vector<std::size_t> liveCount;  //!< per shard
    std::uint64_t nextKey = 1;  //!< keys for the anonymous open()
    RouterCounters count;
};

} // namespace asr::fleet

#endif // ASR_FLEET_SHARD_ROUTER_HH

#include "search/backend.hh"

#include <algorithm>

#include "accel/accelerator.hh"
#include "common/logging.hh"
#include "decoder/baseline.hh"
#include "decoder/viterbi.hh"

namespace asr::search {

decoder::DecodeResult
Backend::decode(const acoustic::AcousticLikelihoods &scores)
{
    streamBegin();
    for (std::size_t f = 0; f < scores.numFrames(); ++f)
        streamFrame(scores.frame(f));
    return streamFinish();
}

namespace {

// ---------------------------------------------------------------------------
// Built-in backends: thin adapters over the pre-existing engines.
// Each adapter must preserve its engine's exact construction recipe
// (the equivalence suite asserts bit-identity against the bare
// classes).
// ---------------------------------------------------------------------------

class ViterbiBackend final : public Backend
{
  public:
    ViterbiBackend(const wfst::Wfst &net, const BackendConfig &cfg)
        : dec(net, cfg.decoder)
    {
    }

    std::string_view name() const override { return "viterbi"; }
    void streamBegin() override { dec.streamBegin(); }

    void
    streamFrame(std::span<const float> frame) override
    {
        dec.streamFrame(frame);
    }

    const std::vector<wfst::WordId> &
    streamPartial() override
    {
        return dec.streamPartial();
    }

    decoder::DecodeResult
    streamFinish() override
    {
        return dec.streamFinish();
    }

  private:
    decoder::ViterbiDecoder dec;
};

class BaselineBackend final : public Backend
{
  public:
    BaselineBackend(const wfst::Wfst &net, const BackendConfig &cfg)
        : dec(net, cfg.decoder)
    {
    }

    std::string_view name() const override { return "baseline"; }
    void streamBegin() override { dec.streamBegin(); }

    void
    streamFrame(std::span<const float> frame) override
    {
        dec.streamFrame(frame);
    }

    const std::vector<wfst::WordId> &
    streamPartial() override
    {
        partialCache = dec.streamPartial();
        return partialCache;
    }

    decoder::DecodeResult
    streamFinish() override
    {
        return dec.streamFinish();
    }

  private:
    decoder::BaselineViterbiDecoder dec;
    std::vector<wfst::WordId> partialCache;
};

class AccelBackend final : public Backend
{
  public:
    AccelBackend(const wfst::Wfst &net, const BackendConfig &cfg)
        : acc(net, acceleratorConfigFor(cfg)),
          runTiming(cfg.runTiming)
    {
    }

    std::string_view name() const override { return "accel"; }
    void streamBegin() override { acc.streamBegin(); }

    void
    streamFrame(std::span<const float> frame) override
    {
        acc.streamFrame(frame, runTiming);
    }

    const std::vector<wfst::WordId> &
    streamPartial() override
    {
        partialCache = acc.streamPartial();
        return partialCache;
    }

    decoder::DecodeResult
    streamFinish() override
    {
        return acc.streamFinish(runTiming);
    }

    bool
    accelStats(accel::AccelStats &out) const override
    {
        out = acc.stats();
        return true;
    }

  private:
    /**
     * The recipe streaming sessions have always used: the
     * final design with both Sec. IV optimizations, minus the
     * bandwidth technique (it needs the sorted WFST layout, which
     * the streaming facades do not maintain).
     */
    static accel::AcceleratorConfig
    acceleratorConfigFor(const BackendConfig &cfg)
    {
        accel::AcceleratorConfig acfg =
            accel::AcceleratorConfig::withBothOpts();
        acfg.bandwidthOptEnabled = false;
        acfg.beam = cfg.decoder.beam;
        acfg.maxActive = cfg.decoder.maxActive;
        return acfg;
    }

    accel::Accelerator acc;
    bool runTiming;
    std::vector<wfst::WordId> partialCache;
};

/** The factory of built-in backend @p B. */
template <class B>
std::unique_ptr<Backend>
make(const wfst::Wfst &net, const BackendConfig &cfg)
{
    return std::make_unique<B>(net, cfg);
}

/** One built-in backend: its name and how to build it. */
struct BuiltIn
{
    std::string_view name;
    std::unique_ptr<Backend> (*create)(const wfst::Wfst &,
                                       const BackendConfig &);
};

/**
 * Every search backend, sorted by name so registeredBackendNames()
 * (and every unknown-name diagnostic) lists them deterministically.
 */
constexpr BuiltIn kBuiltIns[] = {
    {"accel", &make<AccelBackend>},
    {"baseline", &make<BaselineBackend>},
    {"viterbi", &make<ViterbiBackend>},
};
static_assert(std::ranges::is_sorted(kBuiltIns, {}, &BuiltIn::name),
              "kBuiltIns must stay sorted by name");

const BuiltIn *
findBuiltIn(std::string_view name)
{
    for (const BuiltIn &b : kBuiltIns)
        if (b.name == name)
            return &b;
    return nullptr;
}

} // namespace

std::vector<std::string>
registeredBackendNames()
{
    std::vector<std::string> names;
    for (const BuiltIn &b : kBuiltIns)
        names.emplace_back(b.name);
    return names;
}

bool
isBackendRegistered(std::string_view name)
{
    return findBuiltIn(name) != nullptr;
}

std::string
unknownBackendMessage(std::string_view name)
{
    std::string msg = "unknown search backend '";
    msg += name;
    msg += "' (registered:";
    for (const BuiltIn &b : kBuiltIns) {
        msg += ' ';
        msg += b.name;
    }
    msg += ')';
    return msg;
}

std::unique_ptr<Backend>
tryCreateBackend(std::string_view name, const wfst::Wfst &net,
                 const BackendConfig &cfg)
{
    const BuiltIn *b = findBuiltIn(name);
    return b ? b->create(net, cfg) : nullptr;
}

std::unique_ptr<Backend>
createBackend(std::string_view name, const wfst::Wfst &net,
              const BackendConfig &cfg)
{
    std::unique_ptr<Backend> backend =
        tryCreateBackend(name, net, cfg);
    if (!backend)
        fatal("%s", unknownBackendMessage(name).c_str());
    return backend;
}

} // namespace asr::search

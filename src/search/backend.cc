#include "search/backend.hh"

#include <map>
#include <mutex>
#include <utility>

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

// ---------------------------------------------------------------------------
// Registry.
// ---------------------------------------------------------------------------

struct Registry
{
    std::mutex mu;
    // Ordered so registeredBackendNames() (and therefore every
    // unknown-name diagnostic) lists names deterministically.
    std::map<std::string, BackendFactory, std::less<>> factories;
};

Registry &
registry()
{
    static Registry r;
    static std::once_flag seeded;
    std::call_once(seeded, [] {
        r.factories["viterbi"] =
            [](const wfst::Wfst &net, const BackendConfig &cfg) {
                return std::unique_ptr<Backend>(
                    new ViterbiBackend(net, cfg));
            };
        r.factories["baseline"] =
            [](const wfst::Wfst &net, const BackendConfig &cfg) {
                return std::unique_ptr<Backend>(
                    new BaselineBackend(net, cfg));
            };
        r.factories["accel"] =
            [](const wfst::Wfst &net, const BackendConfig &cfg) {
                return std::unique_ptr<Backend>(
                    new AccelBackend(net, cfg));
            };
    });
    return r;
}

} // namespace

void
registerBackend(std::string name, BackendFactory factory)
{
    ASR_ASSERT(!name.empty(), "backend name must be non-empty");
    ASR_ASSERT(factory != nullptr, "backend factory must be callable");
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    r.factories[std::move(name)] = std::move(factory);
}

std::vector<std::string>
registeredBackendNames()
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    std::vector<std::string> names;
    names.reserve(r.factories.size());
    for (const auto &[name, factory] : r.factories)
        names.push_back(name);
    return names;
}

bool
isBackendRegistered(std::string_view name)
{
    Registry &r = registry();
    std::lock_guard<std::mutex> lock(r.mu);
    return r.factories.find(name) != r.factories.end();
}

std::string
unknownBackendMessage(std::string_view name)
{
    std::string msg = "unknown search backend '";
    msg += name;
    msg += "' (registered:";
    for (const std::string &n : registeredBackendNames()) {
        msg += ' ';
        msg += n;
    }
    msg += ')';
    return msg;
}

std::unique_ptr<Backend>
tryCreateBackend(std::string_view name, const wfst::Wfst &net,
                 const BackendConfig &cfg)
{
    BackendFactory factory;
    {
        Registry &r = registry();
        std::lock_guard<std::mutex> lock(r.mu);
        const auto it = r.factories.find(name);
        if (it == r.factories.end())
            return nullptr;
        factory = it->second;
    }
    return factory(net, cfg);
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

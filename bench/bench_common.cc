#include "bench_common.hh"

#include <chrono>
#include <cstdio>
#include <memory>

#include "acoustic/scorer.hh"
#include "common/logging.hh"
#include "decoder/baseline.hh"
#include "decoder/viterbi.hh"
#include "pipeline/calibrate.hh"
#include "power/power_report.hh"
#include "wfst/generate.hh"

namespace asr::bench {

Workload
buildWorkload(const WorkloadScale &scale)
{
    Workload w;
    w.scale = scale;

    wfst::GeneratorConfig gcfg = wfst::kaldiLikeConfig(
        scale.numStates, scale.seed);
    gcfg.numPhonemes = scale.numPhonemes;
    w.net = wfst::generateWfst(gcfg);
    w.sorted = wfst::sortWfstByDegree(w.net, 16);

    acoustic::SyntheticScorerConfig scfg;
    scfg.numPhonemes = scale.numPhonemes;
    scfg.seed = scale.seed * 31 + 7;
    w.scores =
        acoustic::SyntheticScorer(scfg).generate(scale.frames);

    // Calibrate on a short prefix: the active set reaches its
    // equilibrium within a few dozen frames.
    const auto prefix = acoustic::SyntheticScorer(scfg).generate(
        std::min<unsigned>(scale.frames, 60));
    const auto cal = pipeline::calibrateBeam(
        w.net, prefix, scale.targetTokensPerFrame, 1.0f, 8.0f, 10,
        scale.maxActive);
    w.beam = cal.beam;
    return w;
}

const Workload &
standardWorkload()
{
    static const std::unique_ptr<Workload> cached = [] {
        std::fprintf(stderr,
                     "[bench] building standard workload "
                     "(one-time, ~2 s)...\n");
        auto w = std::make_unique<Workload>(
            buildWorkload(WorkloadScale{}));
        std::fprintf(stderr,
                     "[bench] workload ready: %u states, %u arcs "
                     "(%.0f MB), beam %.2f\n",
                     w->net.numStates(), w->net.numArcs(),
                     double(w->net.sizeBytes()) / (1024.0 * 1024.0),
                     double(w->beam));
        return w;
    }();
    return *cached;
}

std::vector<NamedConfig>
paperConfigs(float beam, std::uint32_t max_active)
{
    auto mk = [&](const char *name, accel::AcceleratorConfig cfg) {
        cfg.beam = beam;
        cfg.maxActive = max_active;
        return NamedConfig{name, cfg};
    };
    return {
        mk("ASIC", accel::AcceleratorConfig::baseline()),
        mk("ASIC+State", accel::AcceleratorConfig::withStateOpt()),
        mk("ASIC+Arc", accel::AcceleratorConfig::withArcOpt()),
        mk("ASIC+State&Arc",
           accel::AcceleratorConfig::withBothOpts()),
    };
}

accel::AccelStats
runAccelerator(const Workload &w, const accel::AcceleratorConfig &cfg)
{
    if (cfg.bandwidthOptEnabled) {
        accel::Accelerator acc(w.sorted, cfg);
        acc.decode(w.scores);
        return acc.stats();
    }
    accel::Accelerator acc(w.net, cfg);
    acc.decode(w.scores);
    return acc.stats();
}

std::pair<double, decoder::DecodeStats>
runCpuDecoder(const Workload &w)
{
    decoder::DecoderConfig cfg;
    cfg.beam = w.beam;
    cfg.maxActive = w.scale.maxActive;
    // The paper's CPU platform is Kaldi's general-container decoder;
    // the figure benches keep measuring that frozen baseline.  The
    // optimized TokenStore search is benchmarked (against this one)
    // by bench/search_throughput.
    decoder::BaselineViterbiDecoder dec(w.net, cfg);
    const auto start = std::chrono::steady_clock::now();
    const auto result = dec.decode(w.scores);
    const auto stop = std::chrono::steady_clock::now();
    return {std::chrono::duration<double>(stop - start).count(),
            result.stats};
}

gpu::GpuModel
gpuModel()
{
    return gpu::GpuModel{};
}

std::uint64_t
kaldiScaleDnnMacsPerFrame()
{
    // Kaldi nnet2-style acoustic model: 440 inputs (40 fbank x 11
    // frames), six 2048-wide hidden layers, ~8 k senone outputs.
    return std::uint64_t(440) * 2048 + 5ull * 2048 * 2048 +
           2048ull * 8192;
}

PlatformResults
runAllPlatforms(const Workload &w)
{
    PlatformResults results;
    std::tie(results.cpuSeconds, results.cpuStats) = runCpuDecoder(w);

    const gpu::Workload gw = gpu::Workload::fromDecodeStats(
        results.cpuStats, kaldiScaleDnnMacsPerFrame());
    results.gpuSeconds = gpuModel().viterbiSeconds(gw);

    for (const auto &named : paperConfigs(w.beam, w.scale.maxActive))
        results.asics.emplace_back(named,
                                   runAccelerator(w, named.config));
    return results;
}

double
asicEnergyJ(const accel::AccelStats &stats,
            const accel::AcceleratorConfig &cfg)
{
    return power::buildPowerReport(stats, cfg).totalJ();
}

double
asicPowerW(const accel::AccelStats &stats,
           const accel::AcceleratorConfig &cfg)
{
    return power::buildPowerReport(stats, cfg).averageW();
}

JsonReport::JsonReport(std::string bench_name)
    : name(std::move(bench_name))
{
}

void
JsonReport::beginRow()
{
    rows.emplace_back();
}

namespace {

/** Escape a string for a JSON literal (keys/values are ASCII here). */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        if (c == '\n') {
            out += "\\n";
            continue;
        }
        out.push_back(c);
    }
    return out;
}

} // namespace

void
JsonReport::addRaw(const std::string &key, std::string json_value)
{
    if (rows.empty())
        rows.emplace_back();
    rows.back().emplace_back(key, std::move(json_value));
}

void
JsonReport::add(const std::string &key, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    addRaw(key, buf);
}

void
JsonReport::add(const std::string &key, std::uint64_t value)
{
    addRaw(key, std::to_string(value));
}

void
JsonReport::add(const std::string &key, int value)
{
    addRaw(key, std::to_string(value));
}

void
JsonReport::add(const std::string &key, bool value)
{
    addRaw(key, value ? "true" : "false");
}

void
JsonReport::add(const std::string &key, const std::string &value)
{
    // Built piecewise: `"\"" + s + "\""` trips GCC 12's -Wrestrict
    // false positive (PR105651) at -O3, as in wfst/symbols.cc.
    std::string quoted;
    const std::string escaped = jsonEscape(value);
    quoted.reserve(escaped.size() + 2);
    quoted.push_back('"');
    quoted.append(escaped);
    quoted.push_back('"');
    addRaw(key, std::move(quoted));
}

BenchArgs
parseBenchArgs(int argc, char **argv)
{
    BenchArgs args;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--quick") {
            args.quick = true;
        } else if (arg == "--out") {
            if (i + 1 >= argc)
                fatal("--out requires a path argument");
            args.outPath = argv[++i];
        } else {
            fatal("unknown bench argument '%s' "
                  "(usage: [--quick] [--out <path>])",
                  arg.c_str());
        }
    }
    return args;
}

std::string
JsonReport::write(const std::string &out_path) const
{
    const std::string path =
        out_path.empty() ? "BENCH_" + name + ".json" : out_path;
    FILE *f = std::fopen(path.c_str(), "w");
    if (!f) {
        warn("cannot write %s", path.c_str());
        return path;
    }
    std::fprintf(f, "{\"bench\": \"%s\", \"rows\": [",
                 jsonEscape(name).c_str());
    for (std::size_t r = 0; r < rows.size(); ++r) {
        std::fprintf(f, "%s\n  {", r ? "," : "");
        for (std::size_t i = 0; i < rows[r].size(); ++i)
            std::fprintf(f, "%s\"%s\": %s", i ? ", " : "",
                         jsonEscape(rows[r][i].first).c_str(),
                         rows[r][i].second.c_str());
        std::fprintf(f, "}");
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
    std::printf("wrote %s\n", path.c_str());
    return path;
}

void
banner(const std::string &title, const std::string &paper_ref)
{
    std::printf("=============================================="
                "==============\n");
    std::printf("%s\n", title.c_str());
    std::printf("reproduces: %s\n", paper_ref.c_str());
    std::printf("=============================================="
                "==============\n");
}

} // namespace asr::bench

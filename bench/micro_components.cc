/**
 * @file
 * google-benchmark microbenchmarks of the simulator's primitive
 * components: cache tag accesses, hash upserts, FIFO/ROB operations,
 * WFST arc iteration, the reference FFT and the planned power
 * spectrum the MFCC runs, DNN forward frames and training steps, and
 * the software decoder itself.  These quantify the *simulation* substrate (host
 * performance), complementing the figure benches which measure the
 * *simulated* machine.
 */

#include <benchmark/benchmark.h>

#include "accel/hash_table.hh"
#include "acoustic/dnn.hh"
#include "acoustic/scorer.hh"
#include "common/rng.hh"
#include "decoder/viterbi.hh"
#include "frontend/fft.hh"
#include "sim/cache.hh"
#include "sim/fifo.hh"
#include "sim/reorder_buffer.hh"
#include "wfst/generate.hh"

using namespace asr;

namespace {

void
BM_CacheAccess(benchmark::State &state)
{
    sim::Cache cache(sim::CacheConfig{
        "bench", Bytes(state.range(0)), 4, 64, false});
    Rng rng(1);
    std::vector<sim::Addr> addrs(4096);
    for (auto &a : addrs)
        a = rng.below(8_MiB);
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.access(addrs[i++ & 4095], false).hit);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CacheAccess)->Arg(64 << 10)->Arg(1 << 20);

void
BM_HashUpsert(benchmark::State &state)
{
    accel::TokenHash hash(32768, 16384, false);
    Rng rng(2);
    std::vector<wfst::StateId> keys(8192);
    for (auto &k : keys)
        k = wfst::StateId(rng.below(2'000'000));
    std::size_t i = 0;
    for (auto _ : state) {
        if ((i & 8191) == 0)
            hash.clear();
        benchmark::DoNotOptimize(
            hash.upsert(keys[i++ & 8191], -1.0f, 0).cycles);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_HashUpsert);

void
BM_FifoPushPop(benchmark::State &state)
{
    sim::Fifo<std::uint64_t> fifo(64);
    std::uint64_t v = 0;
    for (auto _ : state) {
        fifo.push(v++);
        if (fifo.full())
            while (!fifo.empty())
                benchmark::DoNotOptimize(fifo.pop());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FifoPushPop);

void
BM_ReorderBuffer(benchmark::State &state)
{
    sim::ReorderBuffer<std::uint32_t> rob(64);
    std::uint32_t v = 0;
    for (auto _ : state) {
        const auto slot = rob.allocate(v++);
        rob.markReady(slot);
        if (rob.full())
            while (!rob.empty())
                benchmark::DoNotOptimize(rob.releaseHead());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ReorderBuffer);

const wfst::Wfst &
benchNet()
{
    static const wfst::Wfst net = [] {
        wfst::GeneratorConfig cfg;
        cfg.numStates = 100000;
        cfg.seed = 2016;
        return wfst::generateWfst(cfg);
    }();
    return net;
}

void
BM_WfstArcIteration(benchmark::State &state)
{
    const wfst::Wfst &net = benchNet();
    Rng rng(3);
    for (auto _ : state) {
        const auto s = wfst::StateId(rng.below(net.numStates()));
        float acc = 0.0f;
        for (const auto &arc : net.arcs(s))
            acc += arc.weight;
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_WfstArcIteration);

void
BM_Fft(benchmark::State &state)
{
    const std::size_t n = std::size_t(state.range(0));
    Rng rng(4);
    std::vector<frontend::Complex> base(n);
    for (auto &x : base)
        x = frontend::Complex(rng.uniform(), 0.0);
    for (auto _ : state) {
        auto buf = base;
        frontend::fft(buf);
        benchmark::DoNotOptimize(buf[0]);
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_Fft)->Arg(256)->Arg(512);

/** The planned power spectrum Mfcc runs; BM_Fft times its reference. */
void
BM_PowerSpectrum(benchmark::State &state)
{
    const std::size_t n = std::size_t(state.range(0));
    Rng rng(4);
    std::vector<double> frame(n);
    for (auto &x : frame)
        x = rng.uniform();
    const frontend::PowerSpectrum plan(n);
    std::vector<double> power(plan.numBins());
    for (auto _ : state) {
        plan.compute(frame, power);
        benchmark::DoNotOptimize(power.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_PowerSpectrum)->Arg(256)->Arg(512);

void
BM_DnnForwardFrame(benchmark::State &state)
{
    acoustic::DnnConfig cfg;
    cfg.inputDim = 65;
    cfg.hidden = {128, 128};
    cfg.outputDim = 64;
    acoustic::Dnn net(cfg);
    acoustic::Matrix x(1, 65);
    for (std::size_t i = 0; i < 65; ++i)
        x.at(0, i) = float(i) * 0.01f;
    for (auto _ : state) {
        const auto y = net.forward(x);
        benchmark::DoNotOptimize(y.at(0, 0));
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_DnnForwardFrame);

/**
 * One SGD step on 64 frames at the batch benchmark's model shape,
 * 65 -> 1600 -> 1600 -> 12: the unit AsrModel's training repeats.
 */
void
BM_DnnTrainStep(benchmark::State &state)
{
    acoustic::DnnConfig cfg;
    cfg.inputDim = 65;
    cfg.hidden = {1600, 1600};
    cfg.outputDim = 12;
    acoustic::Dnn net(cfg);
    Rng rng(6);
    acoustic::Matrix x(64, cfg.inputDim);
    for (float &v : x.data())
        v = float(rng.uniform(-1.0, 1.0));
    std::vector<std::uint32_t> labels(x.rows());
    for (auto &label : labels)
        label = std::uint32_t(rng.below(cfg.outputDim));
    for (auto _ : state)
        benchmark::DoNotOptimize(net.trainStep(x, labels));
    state.SetItemsProcessed(state.iterations() * x.rows());  // frames
}
BENCHMARK(BM_DnnTrainStep)->Unit(benchmark::kMillisecond);

void
BM_SoftwareDecoderFrame(benchmark::State &state)
{
    const wfst::Wfst &net = benchNet();
    acoustic::SyntheticScorerConfig scfg;
    scfg.numPhonemes = 4096;
    scfg.seed = 5;
    const auto scores =
        acoustic::SyntheticScorer(scfg).generate(20);
    decoder::DecoderConfig dcfg;
    dcfg.beam = 5.0f;
    dcfg.maxActive = 2000;
    for (auto _ : state) {
        decoder::ViterbiDecoder dec(net, dcfg);
        benchmark::DoNotOptimize(dec.decode(scores).score);
    }
    state.SetItemsProcessed(state.iterations() * 20);  // frames
}
BENCHMARK(BM_SoftwareDecoderFrame);

} // namespace

BENCHMARK_MAIN();

/**
 * @file
 * Link-level sanity check: touches one symbol *defined in a .cc file*
 * of every src/ library, so a CMake change that drops a library or a
 * dependency edge fails at link time instead of silently shipping.
 */

#include <gtest/gtest.h>

#include <vector>

#include "accel/config.hh"
#include "acoustic/dnn.hh"
#include "api/options.hh"
#include "common/logging.hh"
#include "decoder/wer.hh"
#include "fleet/loadgen.hh"
#include "frontend/fft.hh"
#include "gpu/platforms.hh"
#include "net/protocol.hh"
#include "pipeline/system.hh"
#include "power/energy_model.hh"
#include "search/backend.hh"
#include "server/engine_stats.hh"
#include "sim/stats.hh"
#include "wfst/examples.hh"

TEST(BuildSanity, CommonLogging)
{
    const bool was = asr::quiet();
    asr::setQuiet(true);
    EXPECT_TRUE(asr::quiet());
    asr::setQuiet(was);
}

TEST(BuildSanity, FrontendFft)
{
    const std::vector<double> frame(8, 1.0);
    const asr::frontend::PowerSpectrum plan(8);
    std::vector<double> spectrum(plan.numBins());
    plan.compute(frame, spectrum);
    ASSERT_EQ(spectrum.size(), 5u);
    EXPECT_NEAR(spectrum[0], 64.0, 1e-9);
}

TEST(BuildSanity, WfstFigure2)
{
    const auto example = asr::wfst::buildFigure2Example();
    EXPECT_GT(example.wfst.numStates(), 0u);
    EXPECT_GT(example.wfst.numArcs(), 0u);
}

TEST(BuildSanity, AcousticDnn)
{
    asr::acoustic::DnnConfig cfg;
    cfg.inputDim = 4;
    cfg.hidden = {8};
    cfg.outputDim = 4;
    const asr::acoustic::Dnn dnn(cfg);
    EXPECT_EQ(dnn.config().inputDim, 4u);
}

TEST(BuildSanity, SimHistogram)
{
    asr::sim::Histogram hist(1.0, 8);
    hist.sample(2.0);
    hist.sample(4.0);
    EXPECT_EQ(hist.count(), 2u);
    EXPECT_NEAR(hist.mean(), 3.0, 1e-9);
}

TEST(BuildSanity, DecoderWer)
{
    const std::vector<asr::wfst::WordId> reference{1, 2, 3};
    const std::vector<asr::wfst::WordId> hypothesis{1, 2, 3};
    const auto result = asr::decoder::scoreWer(reference, hypothesis);
    EXPECT_EQ(result.errors(), 0u);
    EXPECT_NEAR(result.wer(), 0.0, 1e-9);
}

TEST(BuildSanity, AccelConfig)
{
    const auto cfg = asr::accel::AcceleratorConfig::baseline();
    EXPECT_GT(cfg.frequencyHz, 0.0);
}

TEST(BuildSanity, PowerSram)
{
    const auto figures = asr::power::sramFigures(asr::Bytes(64) * 1024, 4);
    EXPECT_GT(figures.readEnergyJ, 0.0);
    EXPECT_GT(figures.areaMm2, 0.0);
}

TEST(BuildSanity, GpuModels)
{
    asr::gpu::Workload workload;
    workload.frames = 100;
    workload.arcsProcessed = 10000;
    workload.tokensProcessed = 1000;
    workload.dnnMacsPerFrame = 1000000;
    const asr::gpu::GpuModel gpu;
    const asr::gpu::CpuModel cpu;
    EXPECT_GT(gpu.dnnSeconds(workload), 0.0);
    EXPECT_GT(cpu.dnnSeconds(workload), 0.0);
}

TEST(BuildSanity, ServerEngineStats)
{
    asr::server::EngineStats stats;
    asr::pipeline::RecognitionResult result;
    result.audioSeconds = 1.0;
    result.searchSeconds = 0.25;
    stats.recordUtterance(result, 0.30);
    const auto snap = stats.snapshot(2.0);
    EXPECT_EQ(snap.utterances, 1u);
    EXPECT_NEAR(snap.aggregateRtf(), 0.25, 1e-9);
    EXPECT_NEAR(snap.utterancesPerSecond(), 0.5, 1e-9);
}

TEST(BuildSanity, FleetArrivals)
{
    asr::fleet::ArrivalConfig cfg;
    cfg.ratePerSec = 100.0;
    asr::fleet::ArrivalProcess arrivals(cfg);
    const double first = arrivals.next();
    EXPECT_GT(first, 0.0);
    EXPECT_GT(arrivals.next(), first);
}

TEST(BuildSanity, SearchRegistry)
{
    const auto names = asr::search::registeredBackendNames();
    EXPECT_GE(names.size(), 3u);
    EXPECT_TRUE(asr::search::isBackendRegistered("viterbi"));
}

TEST(BuildSanity, ApiEngineOptions)
{
    asr::api::EngineOptions opts;
    EXPECT_TRUE(opts.validate().empty());
    opts.searchBackend = "no-such-backend";
    EXPECT_FALSE(opts.validate().empty());
}

TEST(BuildSanity, NetProtocol)
{
    std::vector<std::uint8_t> wire;
    asr::net::appendFrame(wire, asr::net::FrameType::Open, 7, {});
    asr::net::FrameReader reader;
    reader.feed(wire);
    asr::net::Frame frame;
    ASSERT_TRUE(reader.next(frame));
    EXPECT_EQ(frame.streamId, 7u);
}

TEST(BuildSanity, PipelineSystemModel)
{
    asr::pipeline::SystemModelInput in;
    in.numBatches = 4;
    in.dnnSecondsPerBatch = 0.5;
    in.viterbiSecondsPerBatch = 0.25;
    const auto sequential = asr::pipeline::modelSystem(in);
    in.pipelined = true;
    const auto pipelined = asr::pipeline::modelSystem(in);
    EXPECT_GT(sequential.seconds, 0.0);
    EXPECT_LE(pipelined.seconds, sequential.seconds);
}

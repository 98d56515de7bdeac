/**
 * @file
 * Tests for the analytical CPU/GPU platform models.
 */

#include <gtest/gtest.h>

#include "gpu/platforms.hh"

using namespace asr;
using namespace asr::gpu;

namespace {

Workload
sampleWorkload()
{
    Workload w;
    w.frames = 100;                 // one second of speech
    w.arcsProcessed = 2'500'000;    // the paper's ~25 k arcs/frame
    w.tokensProcessed = 1'000'000;
    w.dnnMacsPerFrame = 30'000'000;
    return w;
}

} // namespace

TEST(Workload, FromDecodeStats)
{
    decoder::DecodeStats s;
    s.framesDecoded = 50;
    s.arcsExpanded = 1000;
    s.epsArcsExpanded = 100;
    s.tokensExpanded = 400;
    const Workload w = Workload::fromDecodeStats(s, 777);
    EXPECT_EQ(w.frames, 50u);
    EXPECT_EQ(w.arcsProcessed, 1100u);
    EXPECT_EQ(w.tokensProcessed, 400u);
    EXPECT_EQ(w.dnnMacsPerFrame, 777u);
    EXPECT_DOUBLE_EQ(w.speechSeconds(), 0.5);
}

TEST(GpuModel, ViterbiTimeScalesWithArcs)
{
    GpuModel gpu;
    Workload w = sampleWorkload();
    const double t1 = gpu.viterbiSeconds(w);
    w.arcsProcessed *= 2;
    const double t2 = gpu.viterbiSeconds(w);
    EXPECT_GT(t2, t1);
    EXPECT_LT(t2, 2.0 * t1 + 1e-9);  // launch overhead amortizes
}

TEST(GpuModel, LaunchOverheadDominatesTinyFrames)
{
    GpuModel gpu;
    Workload w;
    w.frames = 100;
    w.arcsProcessed = 100;  // almost no work
    const double t = gpu.viterbiSeconds(w);
    EXPECT_NEAR(t, 100.0 * gpu.kernelsPerFrame * gpu.kernelLaunchSec,
                t * 0.2);
}

TEST(GpuModel, RealTimeViterbiAtPaperScale)
{
    // The paper's GPU decodes one second of speech in ~30 ms; the
    // model must land in the same real-time regime (well below 1 s).
    GpuModel gpu;
    const double t = gpu.viterbiSeconds(sampleWorkload());
    EXPECT_GT(t, 0.005);
    EXPECT_LT(t, 0.1);
}

TEST(GpuModel, DnnTime)
{
    GpuModel gpu;
    const Workload w = sampleWorkload();
    const double t = gpu.dnnSeconds(w);
    EXPECT_NEAR(t, 100.0 * 30e6 / gpu.dnnMacsPerSec, 1e-9);
    // DNN on GPU is much faster than the Viterbi search (Fig. 1).
    EXPECT_LT(t, gpu.viterbiSeconds(w));
}

TEST(GpuModel, EnergyIsPowerTimesTime)
{
    GpuModel gpu;
    const Workload w = sampleWorkload();
    EXPECT_NEAR(gpu.viterbiEnergyJ(w),
                gpu.viterbiSeconds(w) * 76.4, 1e-9);
}

TEST(CpuModel, ViterbiTimeFromPerArcCost)
{
    CpuModel cpu;
    cpu.secondsPerArc = 100e-9;
    Workload w = sampleWorkload();
    EXPECT_NEAR(cpu.viterbiSeconds(w), 0.25, 1e-9);
}

TEST(CpuModel, DnnSlowerThanGpu)
{
    CpuModel cpu;
    GpuModel gpu;
    const Workload w = sampleWorkload();
    EXPECT_GT(cpu.dnnSeconds(w), gpu.dnnSeconds(w));
}

TEST(Workload, WeightTrafficCountsPartialPassInFull)
{
    // A 10 -> 20 -> 30 float net: 800 weights and 50 biases.
    Workload w;
    w.frames = 40;
    w.dnnWeightBytesPerPass = (800 + 50) * sizeof(float);
    w.dnnBatchFrames = 16;
    // 40 frames at batch 16 -> 3 passes, the last one partial.
    EXPECT_EQ(w.dnnWeightTrafficBytes(), 3u * w.dnnWeightBytesPerPass);
}

TEST(DnnBandwidth, BatchOneIsBandwidthBoundBatchManyComputeBound)
{
    // A paper-scale DNN (tens of MB of weights): streaming the full
    // weight matrix per frame swamps the compute time, and batching
    // is exactly what recovers the GEMM's compute-bound regime --
    // the reason the paper offloads batched scoring to a throughput
    // device.
    CpuModel cpu;
    Workload w = sampleWorkload();
    w.dnnWeightBytesPerPass = 120'000'000;  // ~30 M float weights

    w.dnnBatchFrames = 1;
    const double t1 = cpu.dnnSeconds(w);
    const double bw_bound =
        double(w.frames) * 120e6 / cpu.memBytesPerSec;
    EXPECT_NEAR(t1, bw_bound, 1e-9);

    w.dnnBatchFrames = 100;
    const double t100 = cpu.dnnSeconds(w);
    const double compute_bound =
        double(w.frames) * 30e6 / cpu.dnnMacsPerSec;
    EXPECT_NEAR(t100, compute_bound, 1e-9);
    EXPECT_LT(t100, t1);
}

TEST(DnnBandwidth, ZeroBytesPreservesComputeOnlyModel)
{
    GpuModel gpu;
    Workload w = sampleWorkload();  // dnnWeightBytesPerPass == 0
    EXPECT_NEAR(gpu.dnnSeconds(w),
                double(w.frames) * 30e6 / gpu.dnnMacsPerSec, 1e-12);
}

TEST(CpuModel, Figure1ShareShape)
{
    // Fig. 1: the Viterbi search takes 73% of CPU time and 86% of
    // GPU time; with the default calibration both shares must be
    // clearly dominant (> 60%).
    CpuModel cpu;
    GpuModel gpu;
    const Workload w = sampleWorkload();
    const double cpu_share =
        cpu.viterbiSeconds(w) /
        (cpu.viterbiSeconds(w) + cpu.dnnSeconds(w));
    const double gpu_share =
        gpu.viterbiSeconds(w) /
        (gpu.viterbiSeconds(w) + gpu.dnnSeconds(w));
    EXPECT_GT(cpu_share, 0.6);
    EXPECT_GT(gpu_share, 0.6);
}

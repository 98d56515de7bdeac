/**
 * @file
 * Analytical timing/energy models of the paper's baseline platforms.
 *
 * The paper measures a real Core i7-6700K (Table II) and a GTX 980
 * running a state-of-the-art CUDA Viterbi decoder (Table III).
 * Neither is available in this environment, so the baselines are
 * modeled analytically from the workload statistics:
 *
 *  - CPU Viterbi: *measured* -- the reference software decoder of
 *    src/decoder runs for real and its wall-clock is used directly
 *    (scaled where the harness asks for it).
 *  - CPU DNN: MACs / effective FLOP rate (BLAS-style GEMM).
 *  - GPU DNN: MACs / effective GPU FLOP rate (cuBLAS-style).
 *  - GPU Viterbi: per-frame kernel-launch overhead plus an effective
 *    per-arc cost that folds in atomic contention and the poor
 *    SIMT efficiency of graph traversal.  The paper (and [10]/[30])
 *    report that GPU Viterbi gains are modest (~10x over one core);
 *    the default constants land in that regime.
 *
 * Energy = measured average power of the paper (32.2 W CPU, 76.4 W
 * GPU) times the modeled time, mirroring the paper's methodology.
 */

#ifndef ASR_GPU_PLATFORMS_HH
#define ASR_GPU_PLATFORMS_HH

#include <cstdint>

#include "decoder/result.hh"

namespace asr::gpu {

/** Workload summary handed to the platform models. */
struct Workload
{
    std::uint64_t frames = 0;        //!< 10 ms frames of speech
    std::uint64_t arcsProcessed = 0; //!< total arcs (incl. epsilon)
    std::uint64_t tokensProcessed = 0;
    std::uint64_t dnnMacsPerFrame = 0;

    /**
     * Weight + bias bytes one DNN forward pass must stream (0 skips
     * the bandwidth term, preserving the original compute-only
     * model), e.g. Dnn::numParameters() * sizeof(float).
     */
    std::uint64_t dnnWeightBytesPerPass = 0;

    /**
     * Frames scored per forward pass.  Batching is where GEMM
     * efficiency comes from (Sec. II): every frame re-streams the
     * weights at batch 1, while a batch of N amortizes one weight
     * pass over N frames.
     */
    std::uint64_t dnnBatchFrames = 1;

    /** Seconds of speech represented. */
    double speechSeconds() const { return double(frames) * 0.010; }

    static Workload fromDecodeStats(const decoder::DecodeStats &s,
                                    std::uint64_t dnn_macs_per_frame);

    /** Weight traffic of scoring all frames at dnnBatchFrames. */
    std::uint64_t dnnWeightTrafficBytes() const;
};

/** GTX-980-class GPU model (Table III). */
struct GpuModel
{
    double clockHz = 1.28e9;
    unsigned smCount = 16;
    double averagePowerW = 76.4;          //!< paper, Sec. VI

    /** Kernel launch + host sync overhead per launched kernel. */
    double kernelLaunchSec = 7.0e-6;

    /** Viterbi kernels per frame (expand, prune, sync passes). */
    unsigned kernelsPerFrame = 4;

    /** Effective per-arc cost folding SIMT divergence + atomics. */
    double secondsPerArc = 9.0e-9;

    /** Effective DNN throughput (cuBLAS GEMM, FP32). */
    double dnnMacsPerSec = 1.4e12;

    /** Effective DRAM bandwidth (GTX 980: 224 GB/s GDDR5). */
    double memBytesPerSec = 224e9;

    double viterbiSeconds(const Workload &w) const;

    /**
     * DNN time: max of the compute bound (MACs / GEMM rate) and the
     * weight-streaming bound (weight bytes per pass / bandwidth,
     * amortized over the batch).  With dnnWeightBytesPerPass == 0 the
     * bandwidth term vanishes and the original compute-only estimate
     * is returned.
     */
    double dnnSeconds(const Workload &w) const;

    double
    viterbiEnergyJ(const Workload &w) const
    {
        return viterbiSeconds(w) * averagePowerW;
    }
};

/** Core-i7-6700K-class CPU model (Table II). */
struct CpuModel
{
    double averagePowerW = 32.2;          //!< paper, Sec. VI

    /** Effective DNN GEMM throughput on the CPU. */
    double dnnMacsPerSec = 27e9;

    /**
     * Effective per-arc cost of the software decoder.  Defaults to a
     * value representative of Kaldi traversing a 618 MB WFST on a
     * 4.2 GHz core (cache misses dominate); harnesses overwrite it
     * with the *measured* cost from running the src/decoder
     * implementation on this machine.
     */
    double secondsPerArc = 120.0e-9;

    /** Effective DRAM bandwidth (dual-channel DDR4-2133). */
    double memBytesPerSec = 34e9;

    double
    viterbiSeconds(const Workload &w) const
    {
        return double(w.arcsProcessed) * secondsPerArc;
    }

    /** Same compute-vs-bandwidth model as GpuModel::dnnSeconds. */
    double dnnSeconds(const Workload &w) const;

    double
    viterbiEnergyJ(const Workload &w) const
    {
        return viterbiSeconds(w) * averagePowerW;
    }
};

} // namespace asr::gpu

#endif // ASR_GPU_PLATFORMS_HH

#include "gpu/platforms.hh"

#include <algorithm>

namespace asr::gpu {

Workload
Workload::fromDecodeStats(const decoder::DecodeStats &s,
                          std::uint64_t dnn_macs_per_frame)
{
    Workload w;
    w.frames = s.framesDecoded;
    w.arcsProcessed = s.arcsExpanded + s.epsArcsExpanded;
    w.tokensProcessed = s.tokensExpanded;
    w.dnnMacsPerFrame = dnn_macs_per_frame;
    return w;
}

std::uint64_t
Workload::dnnWeightTrafficBytes() const
{
    if (dnnWeightBytesPerPass == 0 || frames == 0)
        return 0;
    const std::uint64_t batch = dnnBatchFrames > 0 ? dnnBatchFrames : 1;
    const std::uint64_t passes = (frames + batch - 1) / batch;
    return passes * dnnWeightBytesPerPass;
}

namespace {

/** max(compute bound, weight-streaming bound) of the DNN stage. */
double
dnnStageSeconds(const Workload &w, double macs_per_sec,
                double mem_bytes_per_sec)
{
    const double macs =
        double(w.frames) * double(w.dnnMacsPerFrame);
    const double compute = macs / macs_per_sec;
    const double traffic =
        double(w.dnnWeightTrafficBytes()) / mem_bytes_per_sec;
    return std::max(compute, traffic);
}

} // namespace

double
GpuModel::viterbiSeconds(const Workload &w) const
{
    // Per frame: fixed kernel-launch/synchronization overhead plus
    // the arc-processing time.  Graph traversal on SIMT hardware is
    // dominated by irregular memory accesses and atomic max updates,
    // folded into secondsPerArc.
    const double per_frame_overhead =
        double(kernelsPerFrame) * kernelLaunchSec;
    const double arc_time =
        double(w.arcsProcessed) * secondsPerArc;
    return double(w.frames) * per_frame_overhead + arc_time;
}

double
GpuModel::dnnSeconds(const Workload &w) const
{
    return dnnStageSeconds(w, dnnMacsPerSec, memBytesPerSec);
}

double
CpuModel::dnnSeconds(const Workload &w) const
{
    return dnnStageSeconds(w, dnnMacsPerSec, memBytesPerSec);
}

} // namespace asr::gpu

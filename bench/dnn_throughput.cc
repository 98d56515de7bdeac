/**
 * @file
 * Throughput of the acoustic scoring backends across batch sizes:
 * the serving-side justification for pluggable backends and
 * cross-session batching.  For each backend (reference, blocked)
 * and batch size, scores a fixed frame budget through
 * scoreBatch and reports frames/sec, GMAC/s and the speedup over the
 * reference kernel at the same batch -- the
 * GEMM-efficiency-from-batching effect the paper exploits by
 * offloading DNN scoring to a throughput device (Sec. II).  Each row
 * records the kernel its backend dispatched to (`isa`: "avx512",
 * "avx2" or "scalar"; ASR_FORCE_SCALAR=1 forces "scalar").
 *
 * Before timing, every backend scores one probe batch; a row's
 * `bit_identical` records whether that backend's probe scores equal
 * the reference's bit for bit (the contract of acoustic/backend.hh),
 * and the run fails if the blocked backend's do not.
 *
 * Emits machine-readable results to BENCH_dnn_throughput.json (or
 * the `--out` path).
 *
 *   dnn_throughput [--quick] [--out <path>]
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "acoustic/backend.hh"
#include "bench_common.hh"
#include "common/cpuinfo.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "common/table.hh"

using namespace asr;
using namespace asr::acoustic;

namespace {

Matrix
randomBatch(std::size_t rows, std::size_t cols, std::uint64_t seed)
{
    Matrix m(rows, cols);
    Rng rng(seed);
    for (float &v : m.data())
        v = float(rng.uniform(-2.0, 2.0));
    return m;
}

/** True when @p a and @p b hold the same floats bit for bit. */
bool
sameBits(const Matrix &a, const Matrix &b)
{
    return a.rows() == b.rows() && a.cols() == b.cols() &&
           std::memcmp(a.data().data(), b.data().data(),
                       a.data().size() * sizeof(float)) == 0;
}

struct Measurement
{
    double seconds = 0.0;
    std::size_t frames = 0;

    double framesPerSec() const
    {
        return seconds > 0.0 ? double(frames) / seconds : 0.0;
    }
};

/** Score ~frame_budget frames in batches of @p batch; time it. */
Measurement
measure(const Backend &backend, const Matrix &batch,
        std::size_t frame_budget)
{
    const std::size_t reps =
        std::max<std::size_t>(1, frame_budget / batch.rows());
    // One warm-up pass touches the weights and the allocator.
    volatile float sink = backend.scoreBatch(batch).at(0, 0);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t r = 0; r < reps; ++r)
        sink = backend.scoreBatch(batch).at(0, 0);
    (void)sink;
    Measurement m;
    m.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    m.frames = reps * batch.rows();
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::BenchArgs args = bench::parseBenchArgs(argc, argv);
    const bool quick = args.quick;

    bench::banner("Acoustic backend throughput vs batch size",
                  "serving-side extension (Sec. II batching insight)");

    // A mid-scale net: big enough that the GEMM dominates, small
    // enough that the naive reference kernel finishes the sweep.
    DnnConfig dcfg;
    dcfg.inputDim = 200;
    dcfg.hidden = {512, 512};
    dcfg.outputDim = 512;
    dcfg.seed = 2016;
    const Dnn net(dcfg);

    const auto reference = Backend::create(BackendKind::Reference, net);
    const auto blocked = Backend::create(BackendKind::Blocked, net);
    const double macsPerFrame = double(net.macsPerFrame());

    std::printf("net: %zu -> 512 -> 512 -> %zu, %.1f MMAC/frame, "
                "%.1f MB float weights; SIMD level: %s\n\n",
                dcfg.inputDim, dcfg.outputDim, macsPerFrame / 1e6,
                double(net.numParameters() * sizeof(float)) / 1e6,
                std::string(cpu::simdLevel()).c_str());

    // Every backend scores a mixed probe batch before timing.
    const Matrix probe = randomBatch(33, dcfg.inputDim, 7);
    const Matrix expected = reference->scoreBatch(probe);
    struct Candidate
    {
        const Backend *backend;
        bool bitIdentical;  //!< probe scores == the reference's
    };
    const Candidate candidates[] = {
        {reference.get(), sameBits(expected, reference->scoreBatch(probe))},
        {blocked.get(), sameBits(expected, blocked->scoreBatch(probe))},
    };
    if (!candidates[1].bitIdentical)
        fatal("blocked backend broke bit-identity");
    std::printf("blocked (%s) == reference bitwise: yes\n\n",
                std::string(blocked->isa()).c_str());

    const std::vector<std::size_t> batches =
        quick ? std::vector<std::size_t>{1, 32, 256}
              : std::vector<std::size_t>{1, 8, 64, 256, 1024};
    const std::size_t budget = quick ? 256 : 2048;

    bench::JsonReport report("dnn_throughput");
    Table table({"batch", "backend", "isa", "frames/s", "GMAC/s",
                 "vs reference"});
    double blockedSpeedupAt256 = 0.0;
    for (const std::size_t batch : batches) {
        const Matrix input =
            randomBatch(batch, dcfg.inputDim, 100 + batch);
        double refFps = 0.0;
        for (const Candidate &candidate : candidates) {
            const Backend *backend = candidate.backend;
            const Measurement m = measure(*backend, input, budget);
            const double fps = m.framesPerSec();
            if (backend->kind() == BackendKind::Reference)
                refFps = fps;
            const double speedup = refFps > 0.0 ? fps / refFps : 0.0;
            if (backend->kind() == BackendKind::Blocked &&
                batch >= 256 && blockedSpeedupAt256 == 0.0)
                blockedSpeedupAt256 = speedup;
            table.row()
                .add(int(batch))
                .add(std::string(backend->name()))
                .add(std::string(backend->isa()))
                .add(fps, 1)
                .add(fps * macsPerFrame / 1e9, 2)
                .addRatio(speedup, 2);
            report.beginRow();
            report.add("batch", std::uint64_t(batch));
            report.add("backend", std::string(backend->name()));
            report.add("isa", std::string(backend->isa()));
            report.add("frames_per_sec", fps);
            report.add("gmacs_per_sec", fps * macsPerFrame / 1e9);
            report.add("speedup_vs_reference", speedup);
            report.add("bit_identical", candidate.bitIdentical);
        }
    }
    table.print();

    if (!quick) {
        std::printf("\nblocked backend at >= 256-frame batches: "
                    "%.2fx the reference kernel (target >= 3x)\n",
                    blockedSpeedupAt256);
        if (blockedSpeedupAt256 < 3.0)
            warn("blocked speedup below the 3x target");
    }
    report.write(args.outPath);
    return 0;
}

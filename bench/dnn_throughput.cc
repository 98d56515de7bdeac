/**
 * @file
 * Throughput of the acoustic scoring backends across batch sizes:
 * the serving-side justification for pluggable backends and
 * cross-session batching.  For each backend (reference, blocked,
 * int8) and batch size, scores a fixed frame budget through
 * scoreBatch and reports frames/sec, GMAC/s and the speedup over the
 * reference kernel at the same batch -- the
 * GEMM-efficiency-from-batching effect the paper exploits by
 * offloading DNN scoring to a throughput device (Sec. II).  Each row
 * records the kernel its backend dispatched to (`isa`: "avx512",
 * "avx2" or "scalar"; ASR_FORCE_SCALAR=1 forces "scalar").
 *
 * Also verifies on the fly that the blocked backend is bit-identical
 * to the reference (the float contract of acoustic/backend.hh) and
 * reports int8's score error against it.
 *
 * Emits machine-readable results to BENCH_dnn_throughput.json (or
 * the `--out` path).
 *
 *   dnn_throughput [--quick] [--out <path>]
 */

#include <chrono>
#include <cmath>
#include <cstdio>
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
    const auto int8 = Backend::create(BackendKind::Int8, net);
    const Backend *backends[] = {reference.get(), blocked.get(),
                                 int8.get()};

    std::printf("net: %zu -> 512 -> 512 -> %zu, %.1f MMAC/frame, "
                "%.1f MB float weights (int8: %.1f MB); "
                "SIMD level: %s\n\n",
                dcfg.inputDim, dcfg.outputDim,
                double(reference->macsPerFrame()) / 1e6,
                double(reference->weightBytesPerFrame()) / 1e6,
                double(int8->weightBytesPerFrame()) / 1e6,
                std::string(cpu::simdLevel()).c_str());

    // Bit-identity + error checks on a mixed batch before timing.
    {
        const Matrix probe = randomBatch(33, dcfg.inputDim, 7);
        const Matrix a = reference->scoreBatch(probe);
        const Matrix b = blocked->scoreBatch(probe);
        for (std::size_t i = 0; i < a.data().size(); ++i)
            if (a.data()[i] != b.data()[i])
                fatal("blocked backend broke bit-identity at "
                      "element %zu", i);
        std::printf("blocked (%s) == reference bitwise: yes\n",
                    std::string(blocked->isa()).c_str());

        const Matrix c = int8->scoreBatch(probe);
        float maxErr = 0.0f;
        for (std::size_t i = 0; i < a.data().size(); ++i)
            maxErr = std::max(maxErr,
                              std::abs(a.data()[i] - c.data()[i]));
        std::printf("int8 (%s) max |score error|: %.4f log units\n\n",
                    std::string(int8->isa()).c_str(), maxErr);
    }

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
        for (const Backend *backend : backends) {
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
                .add(fps * double(backend->macsPerFrame()) / 1e9, 2)
                .addRatio(speedup, 2);
            report.beginRow();
            report.add("batch", std::uint64_t(batch));
            report.add("backend", std::string(backend->name()));
            report.add("isa", std::string(backend->isa()));
            report.add("frames_per_sec", fps);
            report.add("gmacs_per_sec",
                       fps * double(backend->macsPerFrame()) / 1e9);
            report.add("speedup_vs_reference", speedup);
            report.add("bit_identical",
                       backend->bitIdenticalToReference());
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

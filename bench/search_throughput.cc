/**
 * @file
 * Search-side decode throughput: the TokenStore Viterbi rewrite
 * (decoder::ViterbiDecoder) A/B-measured against the frozen
 * general-container baseline (decoder::BaselineViterbiDecoder) --
 * the software analogue of the paper's compact-hash treatment
 * (Sec. III-B) applied to the measured CPU hot path.
 *
 * For each WFST size and beam width the bench decodes the same
 * synthetic utterance through both decoders, reports wall seconds,
 * real-time factor, expanded tokens/s and the speedup, and verifies
 * on the fly that the two produce bit-identical results (words,
 * score, best state -- the contract the equivalence tests pin down).
 *
 * The TokenStore decoder additionally runs on the compressed arc
 * layout (wfst::CompactArcs, Sec. IV-A's bandwidth diet applied to
 * the CPU path), which must stay bit-identical to the raw layout.
 * Every row reports the graph bytes the search actually streamed per
 * frame, so the layouts' DRAM-traffic ratio is a first-class result
 * next to the speedup.
 *
 * A final section streams a long utterance through the optimized
 * decoder with backpointer-arena GC enabled and reports the bounded
 * arena peak against the unbounded append volume.
 *
 * Emits machine-readable results to BENCH_search.json (or the
 * `--out` path).
 *
 *   search_throughput [--quick] [--out <path>]
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "decoder/baseline.hh"
#include "decoder/viterbi.hh"
#include "wfst/compact.hh"

using namespace asr;

namespace {

struct Measurement
{
    double seconds = 0.0;
    decoder::DecodeResult result;
};

template <typename Decoder>
Measurement
measureDecode(const wfst::Wfst &net, const decoder::DecoderConfig &cfg,
              const acoustic::AcousticLikelihoods &scores)
{
    Decoder dec(net, cfg);
    const auto t0 = std::chrono::steady_clock::now();
    Measurement m;
    m.result = dec.decode(scores);
    m.seconds = std::chrono::duration<double>(
                    std::chrono::steady_clock::now() - t0)
                    .count();
    return m;
}

bool
identicalResults(const decoder::DecodeResult &a,
                 const decoder::DecodeResult &b)
{
    return a.words == b.words && a.score == b.score &&
           a.bestState == b.bestState &&
           a.stats.tokensExpanded == b.stats.tokensExpanded;
}

} // namespace

int
main(int argc, char **argv)
{
    const bench::BenchArgs args = bench::parseBenchArgs(argc, argv);
    const bool quick = args.quick;

    bench::banner("Viterbi search throughput: TokenStore vs baseline",
                  "Sec. III-B compact hash + Sec. IV-A arc "
                  "compression, applied to the CPU path");

    std::vector<bench::WorkloadScale> scales;
    if (quick) {
        bench::WorkloadScale small;
        small.numStates = 120'000;
        small.frames = 60;
        scales.push_back(small);
    } else {
        bench::WorkloadScale mid;
        mid.numStates = 500'000;
        mid.frames = 150;
        scales.push_back(mid);
        scales.push_back(bench::WorkloadScale{});  // paper scale, 2 M
    }

    bench::JsonReport report("search");
    Table table({"states", "beam", "decoder", "layout", "seconds",
                 "RTF", "tokens/s", "B/frame", "vs baseline",
                 "identical"});

    double paperScaleSpeedup = 0.0;
    double paperScaleCompactSpeedup = 0.0;
    for (const bench::WorkloadScale &scale : scales) {
        bench::Workload w = bench::buildWorkload(scale);

        // Compressed layout, built once per net; it keeps raw f32
        // weights (bitwise contract).
        const auto exact = std::make_shared<const wfst::CompactArcs>(
            wfst::CompactArcs::build(w.net, wfst::WeightMode::Exact));
        std::printf(
            "%u states: raw arcs %.1f MB (16.0 B/arc), compact "
            "exact %.1f MB (%.1f B/arc)\n",
            w.net.numStates(),
            double(w.net.numArcs()) * sizeof(wfst::ArcEntry) / 1e6,
            double(exact->sizeBytes()) / 1e6, exact->bytesPerArc());

        // One untimed pass pages the net in so neither side is
        // charged the cold-start DRAM traffic.
        {
            decoder::DecoderConfig warm;
            warm.beam = w.beam;
            warm.maxActive = scale.maxActive;
            decoder::ViterbiDecoder dec(w.net, warm);
            (void)dec.decode(w.scores);
        }

        const float beams[] = {0.75f * w.beam, w.beam, 1.25f * w.beam};
        for (const float beam : beams) {
            decoder::DecoderConfig cfg;
            cfg.beam = beam;
            cfg.maxActive = scale.maxActive;

            const Measurement base =
                measureDecode<decoder::BaselineViterbiDecoder>(
                    w.net, cfg, w.scores);
            const Measurement opt =
                measureDecode<decoder::ViterbiDecoder>(w.net, cfg,
                                                       w.scores);
            const bool identical =
                identicalResults(base.result, opt.result);
            if (!identical)
                fatal("TokenStore decoder diverged from the baseline "
                      "at %u states, beam %.2f",
                      w.net.numStates(), double(beam));

            decoder::DecoderConfig ccfg = cfg;
            ccfg.useCompactArcs = true;
            w.net.attachCompactArcs(exact);
            const Measurement cex =
                measureDecode<decoder::ViterbiDecoder>(w.net, ccfg,
                                                       w.scores);
            if (!identicalResults(opt.result, cex.result))
                fatal("compact-exact layout diverged from the raw "
                      "layout at %u states, beam %.2f",
                      w.net.numStates(), double(beam));

            const double speedup =
                opt.seconds > 0.0 ? base.seconds / opt.seconds : 0.0;
            if (&scale == &scales.back() && beam == w.beam) {
                paperScaleSpeedup = speedup;
                paperScaleCompactSpeedup =
                    cex.seconds > 0.0 ? base.seconds / cex.seconds
                                      : 0.0;
            }

            struct RowSpec
            {
                const Measurement *m;
                const char *decoder;
                const char *layout;
                bool identical;
            };
            const RowSpec specs[] = {
                {&base, "baseline", "raw", true},
                {&opt, "tokenstore", "raw", identical},
                {&cex, "tokenstore", "compact-exact", true},
            };
            for (const RowSpec &spec : specs) {
                const Measurement *m = spec.m;
                const bool is_base = m == &base;
                const double tokens_per_sec =
                    m->seconds > 0.0
                        ? double(m->result.stats.tokensExpanded) /
                              m->seconds
                        : 0.0;
                const double rtf = m->seconds / w.speechSeconds();
                const double vs_base =
                    is_base ? 1.0
                            : (m->seconds > 0.0
                                   ? base.seconds / m->seconds
                                   : 0.0);
                table.row()
                    .add(int(w.net.numStates()))
                    .add(double(beam), 2)
                    .add(std::string(spec.decoder))
                    .add(std::string(spec.layout))
                    .add(m->seconds, 3)
                    .add(rtf, 3)
                    .add(tokens_per_sec, 0)
                    .add(m->result.stats.bytesPerFrame(), 0)
                    .addRatio(vs_base, 2)
                    .add(std::string(spec.identical ? "yes" : "no"));
                report.beginRow();
                report.add("states", std::uint64_t(w.net.numStates()));
                report.add("arcs", std::uint64_t(w.net.numArcs()));
                report.add("beam", double(beam));
                report.add("max_active",
                           std::uint64_t(scale.maxActive));
                report.add("decoder", std::string(spec.decoder));
                report.add("layout", std::string(spec.layout));
                report.add("seconds", m->seconds);
                report.add("rtf", rtf);
                report.add("tokens_per_sec", tokens_per_sec);
                report.add("speedup_vs_baseline", vs_base);
                report.add("graph_bytes_touched",
                           m->result.stats.graphBytesTouched);
                report.add("bytes_per_frame",
                           m->result.stats.bytesPerFrame());
                report.add("bp_appends_skipped",
                           m->result.stats.bpAppendsSkipped);
                report.add("identical", spec.identical);
            }
        }
    }
    table.print();

    // ---- Streaming arena GC: bounded memory for long sessions ----
    //
    // Cycle the small workload's scores into one long utterance; the
    // backpointer arena would grow by ~arcsExpanded records per
    // frame forever, so the GC watermark is what makes an unbounded
    // stream servable.  Bit-identity of GC vs no-GC decoding is
    // asserted at a length both can afford (and in the test suite);
    // here the long stream reports boundedness.
    {
        const bench::Workload &w =
            bench::buildWorkload(scales.front());
        decoder::DecoderConfig cfg;
        cfg.beam = w.beam;
        cfg.maxActive = scales.front().maxActive;
        cfg.arenaGcWatermark = quick ? 300'000 : 1'000'000;

        const std::size_t frames = quick ? 1'500 : 10'000;
        decoder::ViterbiDecoder dec(w.net, cfg);
        const auto t0 = std::chrono::steady_clock::now();
        dec.streamBegin();
        for (std::size_t f = 0; f < frames; ++f)
            dec.streamFrame(
                w.scores.frame(f % w.scores.numFrames()));
        const decoder::DecodeResult r = dec.streamFinish();
        const double seconds =
            std::chrono::duration<double>(
                std::chrono::steady_clock::now() - t0)
                .count();

        const std::uint64_t appended =
            r.stats.arenaPeakEntries + 0;  // peak is post-GC bounded
        const std::uint64_t total_appends =
            r.stats.arenaEntriesReclaimed + appended;
        std::printf(
            "\nstreaming GC: %zu frames, watermark %llu entries\n"
            "  arena peak %llu entries (%.1f MB), %llu GC runs, "
            "%llu records reclaimed\n"
            "  unbounded arena would hold >= %llu records (%.1f MB); "
            "decode ran %.2fx realtime\n",
            frames,
            static_cast<unsigned long long>(cfg.arenaGcWatermark),
            static_cast<unsigned long long>(r.stats.arenaPeakEntries),
            double(r.stats.arenaPeakEntries) * 16.0 / 1e6,
            static_cast<unsigned long long>(r.stats.arenaGcRuns),
            static_cast<unsigned long long>(
                r.stats.arenaEntriesReclaimed),
            static_cast<unsigned long long>(total_appends),
            double(total_appends) * 16.0 / 1e6,
            seconds / (double(frames) * 0.010));

        report.beginRow();
        report.add("mode", std::string("gc_stream"));
        report.add("frames", std::uint64_t(frames));
        report.add("watermark", cfg.arenaGcWatermark);
        report.add("arena_peak_entries", r.stats.arenaPeakEntries);
        report.add("arena_gc_runs", r.stats.arenaGcRuns);
        report.add("arena_entries_reclaimed",
                   r.stats.arenaEntriesReclaimed);
        report.add("under_watermark",
                   r.stats.arenaPeakEntries <= cfg.arenaGcWatermark);
        report.add("seconds", seconds);

        if (r.stats.arenaPeakEntries > cfg.arenaGcWatermark)
            warn("arena peak exceeded the GC watermark");
    }

    if (!quick) {
        std::printf("\ntokenstore decoder at paper scale, default "
                    "beam: %.2fx the baseline (target >= 2x)\n",
                    paperScaleSpeedup);
        if (paperScaleSpeedup < 2.0)
            warn("search speedup below the 2x target");
        std::printf("compact-exact tokenstore at paper scale: %.2fx "
                    "the baseline (target >= 4x)\n",
                    paperScaleCompactSpeedup);
        if (paperScaleCompactSpeedup < 4.0)
            warn("compact-layout speedup below the 4x target");
    }
    report.write(args.outPath);
    return 0;
}

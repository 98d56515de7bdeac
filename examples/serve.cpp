/**
 * @file
 * Concurrent serving demo: one shared acoustic model + WFST, many
 * simultaneous decode sessions, all through the unified api::Engine.
 *
 * Four views of the same engine:
 *
 *  1. A single live stream fed 10 ms chunks through the handle API
 *     (open / push / finish), partial hypotheses arriving via the
 *     onPartial callback while the "speaker" is mid-utterance.
 *  2. A burst of one-shot utterances (submit): pending frames from
 *     all active sessions are coalesced into one cross-session GEMM
 *     per tick, with the engine-level aggregate stats (utterances/sec,
 *     RTF distribution, p50/p99 latency, batch sizes) a production
 *     deployment is judged by -- and results bit-identical to an
 *     inline-scoring StreamingSession decode of each utterance,
 *     which scores only its own frames.
 *  3. Live streaming clients: several concurrent handles pushing in
 *     real-world-sized chunks, their frames joining the same
 *     cross-session batches, with time-to-first-partial percentiles
 *     in the stats.
 *  4. An always-on stream (StreamOptions::autoEndpoint): one endless
 *     microphone feed of speech bursts separated by silence; the
 *     built-in VAD/endpointer closes each utterance after trailing
 *     silence and delivers it through onSegment, bit-identical to
 *     decoding the same sample span one-shot.
 *
 * Every session shares the same immutable AsrModel; each owns its
 * private decoder state, so results are bit-identical to decoding
 * the same audio sequentially (the engine's determinism contract;
 * see bench/throughput_scaling.cc for the scaling sweep).
 *
 *   $ ./examples/serve [num_utterances] [num_threads]
 */

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <span>
#include <vector>

#include "api/engine.hh"
#include "common/cli.hh"
#include "common/logging.hh"
#include "common/rng.hh"
#include "pipeline/model.hh"
#include "server/session.hh"
#include "wfst/generate.hh"

using namespace asr;

namespace {

constexpr unsigned kPhonemes = 10;

frontend::AudioSignal
speak(const pipeline::AsrModel &model, std::uint64_t seed)
{
    Rng rng(deriveSeed(999, seed));
    std::vector<std::uint32_t> seq;
    const unsigned phones = 5 + unsigned(rng.below(4));
    for (unsigned i = 0; i < phones; ++i)
        seq.push_back(1 + std::uint32_t(rng.below(kPhonemes)));
    return model.synthesizer().synthesize(seq, 3);
}

void
printWords(const std::vector<wfst::WordId> &words)
{
    for (const auto w : words)
        std::printf(" %u", w);
}

} // namespace

int
main(int argc, char **argv)
{
    const unsigned num_utterances =
        argc > 1 ? parseCountArg(argv[1], "utterance count", 100000)
                 : 12;
    const unsigned num_threads =
        argc > 2 ? parseCountArg(argv[2], "thread count", 256) : 4;

    wfst::GeneratorConfig gcfg;
    gcfg.numStates = 1500;
    gcfg.numPhonemes = kPhonemes;
    gcfg.numWords = 80;
    gcfg.seed = 11;
    const wfst::Wfst net = wfst::generateWfst(gcfg);

    std::printf("training the shared acoustic model...\n");
    pipeline::AsrSystemConfig mcfg;
    mcfg.numPhonemes = kPhonemes;
    mcfg.hiddenLayers = {48};
    mcfg.trainUtterPerPhoneme = 12;
    mcfg.trainEpochs = 12;
    mcfg.beam = 12.0f;
    mcfg.seed = 7;
    const pipeline::AsrModel model(net, mcfg);
    std::printf("model ready: %u-state WFST, DNN train accuracy "
                "%.2f, acoustic backend '%s'\n\n",
                net.numStates(), model.acousticModelAccuracy(),
                std::string(model.backend().name()).c_str());

    // ---- 1. one live stream with partial-hypothesis callbacks ----
    //
    // Each act below runs on its own engine so session ids start at
    // 0 every time: the determinism contract makes a result a
    // function of (model, audio, session id, base seed), so the
    // bit-identity checks must compare matching ids.
    std::printf("live stream (10 ms chunks, partials as they "
                "stabilize):\n");
    const frontend::AudioSignal live = speak(model, 0);
    api::EngineOptions opts;
    opts.numThreads = num_threads;
    opts.baseSeed = 5;
    // Bound each session's backpointer arena; a production engine
    // always sets this (the stats line below shows the arena peak
    // and GC activity).
    opts.arenaGcWatermark = 1'000'000;
    api::Engine liveEngine(model, opts);

    std::atomic<std::size_t> samples_seen{0};
    api::StreamOptions sopts;
    sopts.onPartial = [&](const std::vector<wfst::WordId> &words) {
        std::printf("  %5.2fs  partial:",
                    double(samples_seen.load()) / 16000.0);
        printWords(words);
        std::printf("\n");
    };
    const api::StreamHandle h = liveEngine.open(sopts);
    for (std::size_t base = 0; base < live.samples.size();
         base += 160) {
        const std::size_t len =
            std::min<std::size_t>(160, live.samples.size() - base);
        liveEngine.push(h, std::span<const float>(
                               live.samples.data() + base, len));
        samples_seen = base + len;
    }
    const auto live_result = liveEngine.finish(h).get();
    std::printf("  final :");
    printWords(live_result.words);
    std::printf("  (score %.2f, RTF %.3f)\n\n", live_result.score,
                live_result.realTimeFactor());

    // ---- 2. a burst of one-shot utterances, batch-scored ----
    std::printf("burst: %u utterances through %u thread%s, frames "
                "from all sessions coalesced per tick\n",
                num_utterances, num_threads,
                num_threads == 1 ? "" : "s");
    api::Engine engine(model, opts);
    std::vector<std::future<pipeline::RecognitionResult>> futures;
    for (unsigned u = 0; u < num_utterances; ++u)
        futures.push_back(engine.submit(speak(model, 1 + u)));

    std::vector<pipeline::RecognitionResult> burst_results;
    for (unsigned u = 0; u < num_utterances; ++u) {
        burst_results.push_back(futures[u].get());
        const auto &r = burst_results.back();
        std::printf("  session %2llu: %2zu words, score %8.2f, "
                    "RTF %.3f\n",
                    static_cast<unsigned long long>(r.sessionId),
                    r.words.size(), r.score, r.realTimeFactor());
    }

    std::printf("\nengine stats:\n%s", engine.stats().render().c_str());

    // The reference: each utterance decoded alone by an
    // inline-scoring StreamingSession, which scores its own frames
    // in row blocks at finish(), as the same session id.
    bool identical = true;
    for (unsigned u = 0; u < num_utterances; ++u) {
        server::SessionConfig scfg;
        static_cast<server::SessionKnobs &>(scfg) = opts;
        scfg.id = u;
        scfg.baseSeed = opts.baseSeed;
        server::StreamingSession reference(model, scfg);
        reference.pushAudio(speak(model, 1 + u).samples);
        const auto r = reference.finish();
        identical = identical && r.words == burst_results[u].words &&
                    r.score == burst_results[u].score;
    }
    std::printf("results bit-identical to inline-scoring sessions: "
                "%s\n", identical ? "yes" : "NO");
    if (!identical)
        fatal("batched scoring diverged from inline results");

    // ---- 3. concurrent live streaming clients ----
    const unsigned num_live =
        std::min(num_utterances, std::max(2u, num_threads));
    std::printf("\nlive streams: %u concurrent live streams, "
                "chunks interleaved, frames joining the "
                "cross-session GEMM\n",
                num_live);
    // A fresh engine so the streams get session ids 0..num_live-1,
    // matching the burst results they are compared against.
    api::Engine liveBatched(model, opts);
    std::vector<frontend::AudioSignal> voices;
    std::vector<api::StreamHandle> handles;
    for (unsigned u = 0; u < num_live; ++u) {
        voices.push_back(speak(model, 1 + u));
        handles.push_back(liveBatched.open());
    }
    std::size_t longest = 0;
    for (const auto &v : voices)
        longest = std::max(longest, v.samples.size());
    // Round-robin 10 ms pushes: the interleaving a front door would
    // produce from many simultaneous speakers.
    for (std::size_t base = 0; base < longest; base += 160) {
        for (unsigned u = 0; u < num_live; ++u) {
            const auto &s = voices[u].samples;
            if (base >= s.size())
                continue;
            const std::size_t len =
                std::min<std::size_t>(160, s.size() - base);
            liveBatched.push(handles[u], std::span<const float>(
                                             s.data() + base, len));
        }
    }
    std::vector<std::future<pipeline::RecognitionResult>> lfutures;
    for (unsigned u = 0; u < num_live; ++u)
        lfutures.push_back(liveBatched.finish(handles[u]));
    bool live_identical = true;
    for (unsigned u = 0; u < num_live; ++u) {
        const auto r = lfutures[u].get();
        live_identical = live_identical &&
                         r.words == burst_results[u].words &&
                         r.score == burst_results[u].score;
    }
    std::printf("live-stream results bit-identical to the bursts: "
                "%s\n", live_identical ? "yes" : "NO");

    const auto snap = liveBatched.stats();
    std::printf("\nlive-stream engine stats:\n%s",
                snap.render().c_str());
    if (!live_identical)
        fatal("live streaming diverged from one-shot results");
    if (snap.dnnMeanBatchRows() <= 1.0)
        fatal("live streams did not coalesce into cross-session "
              "batches (mean %.2f rows)", snap.dnnMeanBatchRows());

    // ---- 4. always-on: one endless stream, VAD auto-endpointing ----
    //
    // Two utterances on one stream, separated by silence nobody has
    // to segment by hand: the endpointer opens a segment when speech
    // starts, closes it after trailing silence, and onSegment
    // delivers each finished decode while the stream stays open.
    std::printf("\nalways-on stream: speech/silence/speech through "
                "one auto-endpointed handle\n");
    frontend::AudioSignal mic;
    mic.sampleRate = 16000;
    std::vector<std::pair<std::size_t, std::size_t>> spoken;
    mic.samples.assign(16000, 0.0f);  // 1 s of room tone
    for (unsigned u = 0; u < 2; ++u) {
        const frontend::AudioSignal voice = speak(model, 1 + u);
        spoken.emplace_back(mic.samples.size(),
                            mic.samples.size() +
                                voice.samples.size());
        mic.samples.insert(mic.samples.end(), voice.samples.begin(),
                           voice.samples.end());
        mic.samples.insert(mic.samples.end(), 12800, 0.0f);  // 0.8 s
    }

    api::Engine alwaysOn(model, opts);
    std::vector<std::pair<server::SegmentBoundary,
                          pipeline::RecognitionResult>> segments;
    api::StreamOptions aopts;
    aopts.autoEndpoint = true;
    aopts.onSegment = [&](const pipeline::RecognitionResult &r,
                          const server::SegmentBoundary &b) {
        std::printf("  segment %llu  [%5.2fs, %5.2fs):",
                    static_cast<unsigned long long>(b.index),
                    double(b.startSample) / 16000.0,
                    double(b.endSample) / 16000.0);
        printWords(r.words);
        std::printf("\n");
        segments.emplace_back(b, r);
    };
    const api::StreamHandle mic_h = alwaysOn.open(aopts);
    for (std::size_t base = 0; base < mic.samples.size();
         base += 160) {
        const std::size_t len =
            std::min<std::size_t>(160, mic.samples.size() - base);
        alwaysOn.push(mic_h, std::span<const float>(
                                 mic.samples.data() + base, len));
    }
    alwaysOn.finish(mic_h).get();
    if (segments.size() != spoken.size())
        fatal("expected %zu auto-endpointed segments, got %zu",
              spoken.size(), segments.size());

    // The engine contract: each segment decode is bit-identical to a
    // one-shot decode of exactly the same sample span.
    bool segments_identical = true;
    for (const auto &[b, r] : segments) {
        frontend::AudioSignal slice;
        slice.sampleRate = mic.sampleRate;
        slice.samples.assign(
            mic.samples.begin() + std::ptrdiff_t(b.startSample),
            mic.samples.begin() + std::ptrdiff_t(b.endSample));
        const auto ref = alwaysOn.recognize(slice);
        segments_identical = segments_identical &&
                             r.words == ref.words &&
                             r.score == ref.score;
    }
    std::printf("segments bit-identical to one-shot decodes of the "
                "same spans: %s\n",
                segments_identical ? "yes" : "NO");
    if (!segments_identical)
        fatal("auto-endpointed segments diverged from one-shot "
              "decodes");
    return 0;
}

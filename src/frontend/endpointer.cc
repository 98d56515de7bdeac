#include "frontend/endpointer.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/logging.hh"
#include "common/rng.hh"

namespace asr::frontend {

// ---------------------------------------------------------------------------
// Endpointer.
// ---------------------------------------------------------------------------

Endpointer::Endpointer(const EndpointerConfig &config)
    : cfg(config),
      detector(cfg.vad)
{
    ASR_ASSERT(cfg.sampleRate >= 100, "sample rate too low to frame");
    ASR_ASSERT(cfg.onsetFrames >= 1, "onset needs at least one frame");
    ASR_ASSERT(cfg.hangoverFrames >= 1,
               "endpoint needs at least one trailing-silence frame");
}

void
Endpointer::push(std::span<const float> samples)
{
    ASR_ASSERT(!flushed, "push after flush");
    pushed += samples.size();
    const std::size_t fs = cfg.frameSamples();

    std::size_t i = 0;
    if (!frameBuf.empty()) {
        // Top the partial frame up before touching the chunk
        // directly, so frame contents never depend on chunking.
        const std::size_t take =
            std::min(fs - frameBuf.size(), samples.size());
        frameBuf.insert(frameBuf.end(), samples.begin(),
                        samples.begin() + std::ptrdiff_t(take));
        i = take;
        if (frameBuf.size() < fs)
            return;
        classifyFrame(frameBuf);
        frameBuf.clear();
    }
    // Whole frames straight out of the chunk: no copy, no quadratic
    // reassembly however large one push is.
    for (; i + fs <= samples.size(); i += fs)
        classifyFrame(samples.subspan(i, fs));
    frameBuf.assign(samples.begin() + std::ptrdiff_t(i),
                    samples.end());
}

void
Endpointer::flush()
{
    if (flushed)
        return;
    flushed = true;
    if (speaking)
        closeSegment(framesSeen);
}

EndpointEvent
Endpointer::pop()
{
    ASR_ASSERT(eventReady(), "no endpoint event queued");
    EndpointEvent ev = std::move(events.front());
    events.pop_front();
    return ev;
}

void
Endpointer::classifyFrame(std::span<const float> frame)
{
    const std::uint64_t f = framesSeen;
    const std::size_t fs = cfg.frameSamples();
    const bool raw = detector.classify(frame);

    if (!speaking) {
        preroll.emplace_back(frame.begin(), frame.end());
        if (preroll.size() > cfg.prerollFrames + cfg.onsetFrames)
            preroll.pop_front();
        onsetRun = raw ? onsetRun + 1 : 0;
        if (onsetRun >= cfg.onsetFrames) {
            // Open: the preroll ring holds exactly the frames the
            // segment starts with (the onset run plus up to
            // prerollFrames before it).
            speaking = true;
            silenceRun = 0;
            segFrames = 0;
            const std::uint64_t first_frame =
                f + 1 - std::uint64_t(preroll.size());
            segStartSample = first_frame * fs;

            EndpointEvent start;
            start.kind = EndpointEvent::Kind::SegmentStart;
            start.startSample = segStartSample;
            events.push_back(std::move(start));

            std::uint64_t at = first_frame;
            for (std::vector<float> &buffered : preroll) {
                EndpointEvent audio;
                audio.kind = EndpointEvent::Kind::Audio;
                audio.firstSample = at * fs;
                audio.audio = std::move(buffered);
                events.push_back(std::move(audio));
                ++at;
                ++segFrames;
            }
            preroll.clear();
            onsetRun = 0;
        }
        ++framesSeen;
        return;
    }

    // In speech: every frame is forwarded (the trailing hangover
    // included, so the forwarded audio is exactly [start, end)).
    EndpointEvent audio;
    audio.kind = EndpointEvent::Kind::Audio;
    audio.firstSample = f * fs;
    audio.audio.assign(frame.begin(), frame.end());
    events.push_back(std::move(audio));
    ++segFrames;

    silenceRun = raw ? 0 : silenceRun + 1;
    ++framesSeen;
    if (silenceRun >= cfg.hangoverFrames ||
        (cfg.maxSegmentFrames > 0 &&
         segFrames >= cfg.maxSegmentFrames))
        closeSegment(framesSeen);
}

void
Endpointer::closeSegment(std::uint64_t end_frame)
{
    EndpointEvent end;
    end.kind = EndpointEvent::Kind::SegmentEnd;
    end.startSample = segStartSample;
    end.endSample = end_frame * cfg.frameSamples();
    events.push_back(std::move(end));
    speaking = false;
    onsetRun = 0;
    silenceRun = 0;
    segFrames = 0;
    ++closedSegments;
}

// ---------------------------------------------------------------------------
// Wake-word gate.
// ---------------------------------------------------------------------------

WakeWordGate::WakeWordGate(const Mfcc &mfcc_front,
                           std::span<const float> template_audio,
                           float threshold)
    : mfcc(mfcc_front), threshold(threshold), stream(mfcc_front)
{
    AudioSignal phrase;
    phrase.samples.assign(template_audio.begin(),
                          template_audio.end());
    phrase.sampleRate = mfcc.config().sampleRate;
    tmpl = mfcc.compute(phrase);
    ASR_ASSERT(!tmpl.empty(),
               "wake template shorter than one analysis window "
               "(%zu samples)", template_audio.size());
    ASR_ASSERT(threshold > 0.0f && threshold <= 1.0f,
               "wake threshold must be in (0, 1]");
}

std::size_t
WakeWordGate::push(std::span<const float> samples)
{
    if (open_)
        return 0;
    const std::uint64_t before = stream.samplesPushed();
    stream.push(samples);
    while (stream.frameReady()) {
        window.push_back(stream.pop());
        if (window.size() > tmpl.size())
            window.pop_front();
        if (window.size() < tmpl.size())
            continue;
        const float score = matchScore();
        best = std::max(best, score);
        if (score < threshold)
            continue;
        open_ = true;
        // Audio is live from the end of the matching window: the
        // wake phrase itself is never forwarded downstream.
        const std::uint64_t frame_end =
            (stream.framesEmitted() - 1) * mfcc.frameHop() +
            mfcc.frameLength();
        const std::uint64_t live =
            frame_end > before ? frame_end - before : 0;
        return std::min<std::size_t>(std::size_t(live),
                                     samples.size());
    }
    return samples.size();
}

void
WakeWordGate::rearm()
{
    open_ = false;
    best = -1.0f;
    window.clear();
    stream.reset();
}

float
WakeWordGate::matchScore() const
{
    // Mean per-frame cosine similarity of the cepstra, c0 excluded:
    // the energy coefficient would make the match depend on level,
    // not spectral shape.
    double acc = 0.0;
    for (std::size_t f = 0; f < tmpl.size(); ++f) {
        const std::vector<float> &t = tmpl[f];
        const std::vector<float> &x = window[f];
        double dot = 0.0, nt = 0.0, nx = 0.0;
        for (std::size_t d = 1; d < t.size(); ++d) {
            dot += double(t[d]) * double(x[d]);
            nt += double(t[d]) * double(t[d]);
            nx += double(x[d]) * double(x[d]);
        }
        acc += dot / std::sqrt(std::max(nt * nx, 1e-12));
    }
    return float(acc / double(tmpl.size()));
}

// ---------------------------------------------------------------------------
// Synthetic labeled corpus.
// ---------------------------------------------------------------------------

EndpointCorpusUtterance
generateEndpointCorpus(const EndpointCorpusConfig &cfg)
{
    ASR_ASSERT(cfg.minSpeechFrames >= 1 &&
                   cfg.maxSpeechFrames >= cfg.minSpeechFrames,
               "degenerate speech-length range");
    ASR_ASSERT(cfg.maxGapFrames >= cfg.minGapFrames,
               "degenerate gap range");
    Rng structure(deriveSeed(cfg.seed, 0x5e61));
    Rng noise(deriveSeed(cfg.seed, 0x401e));
    const Synthesizer synth(cfg.numPhonemes, cfg.sampleRate,
                            deriveSeed(cfg.seed, 0x5f17));
    const std::size_t fs = std::size_t(cfg.sampleRate / 100);

    EndpointCorpusUtterance out;
    out.audio.sampleRate = cfg.sampleRate;
    std::vector<float> &samples = out.audio.samples;
    samples.assign(std::size_t(cfg.leadInFrames) * fs, 0.0f);

    for (unsigned s = 0; s < cfg.numSegments; ++s) {
        // One burst: random phones dwelling 3-8 frames each until
        // the drawn burst length is filled.
        const unsigned burst_frames = unsigned(structure.range(
            cfg.minSpeechFrames, cfg.maxSpeechFrames));
        std::vector<std::uint32_t> frame_phones;
        while (frame_phones.size() < burst_frames) {
            const std::uint32_t phone =
                1 + std::uint32_t(structure.below(cfg.numPhonemes));
            const unsigned dwell = unsigned(structure.range(3, 8));
            for (unsigned d = 0;
                 d < dwell && frame_phones.size() < burst_frames; ++d)
                frame_phones.push_back(phone);
        }
        const AudioSignal burst = synth.synthesizeFrames(frame_phones);

        LabeledSegment seg;
        seg.startSample = samples.size();
        samples.insert(samples.end(), burst.samples.begin(),
                       burst.samples.end());
        seg.endSample = samples.size();
        out.segments.push_back(seg);

        const unsigned gap = unsigned(structure.range(
            cfg.minGapFrames, cfg.maxGapFrames));
        samples.insert(samples.end(), std::size_t(gap) * fs, 0.0f);
    }

    // White noise over the whole recording at snrDb below the speech
    // RMS (uniform noise; the sqrt(3) factor matches RMS to target).
    double speech_energy = 0.0;
    std::uint64_t speech_samples = 0;
    for (const LabeledSegment &seg : out.segments) {
        for (std::uint64_t i = seg.startSample; i < seg.endSample;
             ++i)
            speech_energy += double(samples[std::size_t(i)]) *
                             double(samples[std::size_t(i)]);
        speech_samples += seg.endSample - seg.startSample;
    }
    if (speech_samples > 0) {
        const double speech_rms =
            std::sqrt(speech_energy / double(speech_samples));
        const double noise_rms =
            speech_rms * std::pow(10.0, -cfg.snrDb / 20.0);
        const double amp = noise_rms * std::sqrt(3.0);
        for (float &x : samples)
            x += float(noise.uniform(-amp, amp));
    }
    return out;
}

SegmentationScore
scoreSegmentation(const std::vector<LabeledSegment> &truth,
                  const std::vector<LabeledSegment> &detected,
                  std::uint32_t sample_rate)
{
    const auto overlaps = [](const LabeledSegment &a,
                             const LabeledSegment &b) {
        return a.startSample < b.endSample &&
               b.startSample < a.endSample;
    };

    SegmentationScore score;
    score.truthSegments = truth.size();
    score.detectedSegments = detected.size();

    double start_err = 0.0, end_err = 0.0;
    std::size_t matched = 0;
    for (const LabeledSegment &t : truth) {
        const auto it = std::find_if(
            detected.begin(), detected.end(),
            [&](const LabeledSegment &d) { return overlaps(t, d); });
        if (it == detected.end()) {
            ++score.missed;
            continue;
        }
        ++matched;
        const auto diff_ms = [sample_rate](std::uint64_t a,
                                           std::uint64_t b) {
            const std::uint64_t d = a > b ? a - b : b - a;
            return double(d) * 1e3 / double(sample_rate);
        };
        start_err += diff_ms(it->startSample, t.startSample);
        end_err += diff_ms(it->endSample, t.endSample);
    }
    for (const LabeledSegment &d : detected)
        if (std::none_of(truth.begin(), truth.end(),
                         [&](const LabeledSegment &t) {
                             return overlaps(t, d);
                         }))
            ++score.falseTriggers;
    if (matched > 0) {
        score.meanStartErrMs = start_err / double(matched);
        score.meanEndErrMs = end_err / double(matched);
    }
    return score;
}

std::vector<LabeledSegment>
detectSegments(Endpointer &ep, const AudioSignal &audio,
               std::size_t chunk)
{
    ASR_ASSERT(chunk >= 1, "chunk must hold samples");
    std::vector<LabeledSegment> out;
    const auto drain = [&] {
        while (ep.eventReady()) {
            const EndpointEvent ev = ep.pop();
            if (ev.kind == EndpointEvent::Kind::SegmentEnd)
                out.push_back(
                    LabeledSegment{ev.startSample, ev.endSample});
        }
    };
    const std::vector<float> &s = audio.samples;
    for (std::size_t base = 0; base < s.size(); base += chunk) {
        const std::size_t len = std::min(chunk, s.size() - base);
        ep.push(std::span<const float>(s.data() + base, len));
        drain();
    }
    ep.flush();
    drain();
    return out;
}

} // namespace asr::frontend

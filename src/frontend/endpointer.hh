/**
 * @file
 * Endpointing for always-on audio: turn one endless microphone
 * stream into discrete utterance segments, plus the optional
 * wake-word gate in front of it and the synthetic labeled corpus the
 * endpointing suite and bench score against.
 *
 * Pipeline position (see docs/ARCHITECTURE.md "Always-on pipeline"):
 *
 *   raw audio ──► WakeWordGate (optional) ──► Endpointer ──► segments
 *
 * The Endpointer assembles fixed 10 ms frames from arbitrarily sized
 * pushes, classifies each through a vad::Detector, and runs an
 * onset/hangover state machine:
 *
 *   Idle ──(onsetFrames consecutive speech)──► InSpeech
 *   InSpeech ──(hangoverFrames consecutive silence, or
 *               maxSegmentFrames elapsed)──► Idle
 *
 * Output is an ordered event queue -- SegmentStart, per-frame Audio,
 * SegmentEnd -- so callers in any driving style (a blocking worker
 * loop, the batch coordinator's tick stages, a test harness) drain
 * at their own pace.  The Audio events of one segment concatenate to
 * *exactly* the samples in [startSample, endSample) of the input
 * stream: a segment includes prerollFrames of audio before the
 * detected onset (so plosive onsets are not clipped) and the
 * trailing-silence hangover (so the decoder sees the same tail a
 * manually segmented decode would).  That sample-exactness is what
 * the engine's auto-endpoint bit-identity contract rests on.
 *
 * Determinism contract: events are a pure function of the pushed
 * sample stream -- chunk boundaries, wall-clock and thread schedule
 * cannot move a segment boundary by even one sample.  The corpus
 * suite asserts this by re-running every utterance at pathological
 * chunk sizes.
 */

#ifndef ASR_FRONTEND_ENDPOINTER_HH
#define ASR_FRONTEND_ENDPOINTER_HH

#include <cstdint>
#include <deque>
#include <span>
#include <vector>

#include "frontend/audio.hh"
#include "frontend/mfcc.hh"
#include "frontend/vad.hh"

namespace asr::frontend {

/** Endpointer knobs (frame-rate quantities are 10 ms frames). */
struct EndpointerConfig
{
    /** Knobs of the vad::Detector classifying the frames. */
    vad::VadConfig vad;

    std::uint32_t sampleRate = 16000;

    /** Consecutive speech frames that open a segment. */
    unsigned onsetFrames = 2;

    /**
     * Consecutive non-speech frames that close a segment (the
     * trailing-silence endpoint).  The vad hangover is upstream of
     * this count, so the total closing delay is
     * vad.hangoverFrames + hangoverFrames.
     */
    unsigned hangoverFrames = 30;

    /** Audio retained before the detected onset (catches the low-
     *  energy first phones the onset debounce skipped). */
    unsigned prerollFrames = 4;

    /** Force-close a segment after this many frames (0 = never);
     *  the paper's always-listening workload cannot let one noisy
     *  segment grow without bound. */
    unsigned maxSegmentFrames = 0;

    /** Samples per 10 ms frame. */
    std::size_t
    frameSamples() const
    {
        return std::size_t(sampleRate / 100);
    }
};

/** One segmentation event (see the ordering contract above). */
struct EndpointEvent
{
    enum class Kind
    {
        SegmentStart,  //!< startSample set
        Audio,         //!< audio + firstSample set
        SegmentEnd,    //!< startSample + endSample set
    };

    Kind kind = Kind::Audio;
    std::uint64_t startSample = 0;  //!< segment start (Start / End)
    std::uint64_t endSample = 0;    //!< segment end, exclusive (End)
    std::uint64_t firstSample = 0;  //!< absolute index of audio[0]
    std::vector<float> audio;       //!< Kind::Audio payload
};

/** Segments a continuous sample stream (see file comment). */
class Endpointer
{
  public:
    explicit Endpointer(const EndpointerConfig &cfg);

    /** Feed the next chunk (any size); may append events. */
    void push(std::span<const float> samples);

    /**
     * End of input: close an open segment at the last completed
     * frame.  A trailing partial frame (< frameSamples) is dropped,
     * never classified.  push() after flush() is invalid.
     */
    void flush();

    /** @return true when at least one event is queued. */
    bool eventReady() const { return !events.empty(); }

    /** Pop the next event in order (eventReady() required). */
    EndpointEvent pop();

    /** @return true while inside a speech segment. */
    bool inSpeech() const { return speaking; }

    std::uint64_t samplesPushed() const { return pushed; }

    /** Segments closed so far (SegmentEnd events emitted). */
    std::uint64_t segmentsClosed() const { return closedSegments; }

    const EndpointerConfig &config() const { return cfg; }

  private:
    void classifyFrame(std::span<const float> frame);
    void openSegment();
    void closeSegment(std::uint64_t end_frame);

    EndpointerConfig cfg;
    vad::Detector detector;
    std::deque<EndpointEvent> events;

    /** Partial-frame assembly buffer (< frameSamples samples). */
    std::vector<float> frameBuf;
    /** Preroll ring: the last prerollFrames classified-silent
     *  frames, oldest first. */
    std::deque<std::vector<float>> preroll;

    std::uint64_t pushed = 0;
    std::uint64_t framesSeen = 0;   //!< completed frames classified
    std::uint64_t closedSegments = 0;
    std::uint64_t segStartSample = 0;
    std::uint64_t segFrames = 0;    //!< frames forwarded this segment
    unsigned onsetRun = 0;
    unsigned silenceRun = 0;
    bool speaking = false;
    bool flushed = false;
};

/**
 * Keyword-spotting gate: template match over MFCC frames.
 *
 * Built from one recording of the wake phrase; incoming audio is
 * MFCC-analyzed with the same front-end and the last template-length
 * frames are compared against the template by mean per-frame cosine
 * similarity of the cepstra (c0, raw energy, excluded -- the match
 * must not depend on how loudly the phrase is spoken).  Once the
 * score clears the threshold the gate opens and stays open until
 * rearm().
 *
 * Holds a reference to the (immutable, shareable) Mfcc; each stream
 * owns its own gate.
 */
class WakeWordGate
{
  public:
    /**
     * @param mfcc          front-end (must outlive the gate)
     * @param template_audio the wake phrase at mfcc's sample rate
     * @param threshold     mean-cosine score in (0, 1] that opens
     */
    WakeWordGate(const Mfcc &mfcc,
                 std::span<const float> template_audio,
                 float threshold = 0.7f);

    /**
     * Feed the next chunk.  While closed, samples are consumed for
     * detection only.
     * @return the index into @p samples from which audio is live
     *         (samples.size() while still closed; 0 once open) --
     *         the wake phrase itself is never forwarded downstream
     */
    std::size_t push(std::span<const float> samples);

    bool isOpen() const { return open_; }

    /** Close again and restart detection (template kept). */
    void rearm();

    /** Best match score seen since construction/rearm. */
    float bestScore() const { return best; }

    /** Template length in frames (exposed for tests). */
    std::size_t templateFrames() const { return tmpl.size(); }

  private:
    float matchScore() const;

    const Mfcc &mfcc;
    float threshold;
    FeatureMatrix tmpl;            //!< wake-phrase MFCC frames
    StreamingMfcc stream;          //!< analysis of the live audio
    std::deque<std::vector<float>> window;  //!< last tmpl.size() frames
    bool open_ = false;
    float best = -1.0f;
};

// ---------------------------------------------------------------------------
// Synthetic labeled endpointing corpus (no binary assets: everything
// is generated from a seed, the same philosophy as audio.hh).
// ---------------------------------------------------------------------------

/** Shape of one generated always-on recording. */
struct EndpointCorpusConfig
{
    std::uint64_t seed = 1;
    std::uint32_t sampleRate = 16000;
    std::uint32_t numPhonemes = 12;  //!< synthesizer inventory
    unsigned numSegments = 3;        //!< speech bursts per recording
    unsigned minSpeechFrames = 30;   //!< burst length range (frames)
    unsigned maxSpeechFrames = 80;
    unsigned minGapFrames = 70;      //!< inter-burst silence range;
    unsigned maxGapFrames = 140;     //!<   keep > closing delay
    unsigned leadInFrames = 60;      //!< silence before the first burst
    double snrDb = 20.0;             //!< speech RMS over noise RMS
};

/** Ground-truth span of one speech burst, in samples. */
struct LabeledSegment
{
    std::uint64_t startSample = 0;
    std::uint64_t endSample = 0;  //!< exclusive
};

/** One generated recording with its ground-truth segmentation. */
struct EndpointCorpusUtterance
{
    AudioSignal audio;
    std::vector<LabeledSegment> segments;
};

/**
 * Generate one always-on recording: speech-shaped formant bursts
 * (frontend::Synthesizer) separated by silence, with white noise
 * mixed over the whole signal at @p cfg.snrDb relative to the speech
 * RMS.  Deterministic in cfg.seed.
 */
EndpointCorpusUtterance
generateEndpointCorpus(const EndpointCorpusConfig &cfg);

/** Segmentation quality of one recording against its labels. */
struct SegmentationScore
{
    std::size_t truthSegments = 0;
    std::size_t detectedSegments = 0;
    std::size_t missed = 0;         //!< truth with no overlapping detection
    std::size_t falseTriggers = 0;  //!< detections overlapping no truth
    double meanStartErrMs = 0.0;    //!< |detected - truth| over matches
    double meanEndErrMs = 0.0;
};

/**
 * Score @p detected against @p truth: a truth segment is missed when
 * no detection overlaps it; a detection is a false trigger when it
 * overlaps no truth segment.  Boundary errors average over matched
 * (truth, first-overlapping-detection) pairs.
 */
SegmentationScore
scoreSegmentation(const std::vector<LabeledSegment> &truth,
                  const std::vector<LabeledSegment> &detected,
                  std::uint32_t sample_rate);

/**
 * Run @p ep over @p audio in @p chunk-sized pushes, flush, and
 * return the detected segment spans (events are drained; Audio
 * payloads discarded).  The standalone driver the corpus suite and
 * bench share.
 */
std::vector<LabeledSegment>
detectSegments(Endpointer &ep, const AudioSignal &audio,
               std::size_t chunk = 160);

} // namespace asr::frontend

#endif // ASR_FRONTEND_ENDPOINTER_HH

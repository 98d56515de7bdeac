#include "server/segmented_session.hh"

#include <utility>

#include "common/logging.hh"

namespace asr::server {

SegmentedSession::SegmentedSession(const pipeline::AsrModel &model,
                                   const SegmentedConfig &config)
    : model(model), cfg(config), endpointer(cfg.endpoint)
{
    ASR_ASSERT(cfg.endpoint.sampleRate ==
                   model.mfcc().config().sampleRate,
               "endpointer sample rate %u != model sample rate %u",
               cfg.endpoint.sampleRate,
               model.mfcc().config().sampleRate);
    if (!cfg.wakeWord.empty())
        gate.emplace(model.mfcc(),
                     std::span<const float>(cfg.wakeWord),
                     cfg.wakeThreshold);
}

SegmentedSession::~SegmentedSession() = default;

void
SegmentedSession::pushAudio(std::span<const float> samples)
{
    ASR_ASSERT(!finishing_, "pushAudio after finish");
    pushed += samples.size();
    std::span<const float> live = samples;
    if (gate && !gate->isOpen()) {
        const std::size_t from = gate->push(samples);
        suppressed += from;
        if (from >= samples.size())
            return;
        live = samples.subspan(from);
    }
    endpointer.push(live);
    pump();
}

std::vector<wfst::WordId>
SegmentedSession::partialWords() const
{
    // While a SegmentEnd is parked (closing), `current` is already
    // flushed; its hypothesis is delivered as the segment result, so
    // the live partial resets.
    if (!current || closing)
        return {};
    return current->partialWords();
}

void
SegmentedSession::beginFinish()
{
    ASR_ASSERT(!finishing_, "beginFinish called twice");
    finishing_ = true;
    endpointer.flush();
    pump();
}

void
SegmentedSession::finalizeSegment()
{
    ASR_ASSERT(closing && current, "no segment close pending");
    ASR_ASSERT(current->pendingRows() == 0,
               "finalizeSegment with %zu unscored rows",
               current->pendingRows());
    pipeline::RecognitionResult result = current->finalizeFinish();
    current.reset();
    closing = false;
    emitSegment(std::move(result), closeStart, closeEnd);
    pump();
}

pipeline::RecognitionResult
SegmentedSession::finalizeFinish()
{
    ASR_ASSERT(finishReady(), "finalizeFinish before finishReady");
    if (lastResult)
        return std::move(*lastResult);
    return emptyResult();
}

bool
SegmentedSession::gateOpened() const
{
    return gate && gate->isOpen();
}

void
SegmentedSession::pump()
{
    using Kind = frontend::EndpointEvent::Kind;
    // A SegmentEnd parks the pump (closing) until the coordinator
    // has scored the flushed rows and calls finalizeSegment; buffered
    // events keep their order in the endpointer queue.
    while (!closing && endpointer.eventReady()) {
        frontend::EndpointEvent ev = endpointer.pop();
        switch (ev.kind) {
        case Kind::SegmentStart:
            ASR_ASSERT(!current, "segment start inside a segment");
            current =
                std::make_unique<StreamingSession>(model, cfg.session);
            break;
        case Kind::Audio:
            ASR_ASSERT(current, "segment audio outside a segment");
            current->pushAudio(ev.audio);
            break;
        case Kind::SegmentEnd:
            ASR_ASSERT(current, "segment end outside a segment");
            current->flushPending();
            closing = true;
            closeStart = ev.startSample + suppressed;
            closeEnd = ev.endSample + suppressed;
            break;
        }
    }
}

void
SegmentedSession::emitSegment(pipeline::RecognitionResult result,
                              std::uint64_t start, std::uint64_t end)
{
    SegmentBoundary boundary;
    boundary.index = segCount;
    boundary.startSample = start;
    boundary.endSample = end;
    ++segCount;
    lastResult = std::move(result);
    if (segmentCb)
        segmentCb(*lastResult, boundary);
}

pipeline::RecognitionResult
SegmentedSession::emptyResult()
{
    // A no-speech stream still resolves its final result with a
    // well-formed (empty) decode, exactly as a zero-sample
    // StreamingSession would produce it.
    StreamingSession empty(model, cfg.session);
    empty.flushPending();
    return empty.finalizeFinish();
}

} // namespace asr::server

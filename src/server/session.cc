#include "server/session.hh"

#include <algorithm>
#include <chrono>

#include "acoustic/backend.hh"
#include "common/logging.hh"
#include "common/units.hh"

namespace asr::server {

StreamingSession::StreamingSession(const pipeline::AsrModel &model,
                                   const SessionConfig &config)
    : model(model), cfg(config),
      rng_(deriveSeed(config.baseSeed, config.id)),
      streamingMfcc(model.mfcc())
{
    search::BackendConfig bcfg;
    bcfg.decoder.beam =
        cfg.beam > 0.0f ? cfg.beam : model.config().beam;
    bcfg.decoder.maxActive = cfg.maxActive;
    bcfg.decoder.arenaGcWatermark = cfg.arenaGcWatermark;
    bcfg.runTiming = cfg.runTiming;
    search_ = search::createBackend(cfg.effectiveSearchBackend(),
                                    model.net(), bcfg);
    search_->streamBegin();
}

StreamingSession::~StreamingSession() = default;

void
StreamingSession::pushAudio(std::span<const float> samples)
{
    ASR_ASSERT(!finished, "pushAudio after finish()");

    auto t0 = std::chrono::steady_clock::now();
    if (cfg.ditherAmplitude > 0.0f) {
        std::vector<float> dithered(samples.begin(), samples.end());
        for (float &s : dithered)
            s += cfg.ditherAmplitude *
                 float(rng_.uniform(-1.0, 1.0));
        streamingMfcc.push(dithered);
    } else {
        streamingMfcc.push(samples);
    }
    while (streamingMfcc.frameReady())
        rawFeats.push_back(streamingMfcc.pop());
    frontendSeconds += secondsSince(t0);

    drainReadyFrames(/*flush=*/false);
}

void
StreamingSession::drainReadyFrames(bool flush)
{
    const unsigned ctx = model.contextFrames();
    const std::size_t total = rawBase + rawFeats.size();
    while (parkedUpTo < total) {
        // Frame f needs right context up to f + ctx; mid-stream we
        // wait for it, at flush the edge replicates (like batch
        // spliceContext), so results match the batch path exactly.
        if (!flush && parkedUpTo + ctx >= total)
            break;
        parkFrame(parkedUpTo, total);
        ++parkedUpTo;
        // Frames older than the next splice window's left edge are
        // done; drop them so a long-lived session stays bounded.
        while (rawBase + ctx < parkedUpTo) {
            rawFeats.pop_front();
            ++rawBase;
        }
    }
}

void
StreamingSession::parkFrame(std::size_t f, std::size_t total_hint)
{
    const auto t0 = std::chrono::steady_clock::now();
    const unsigned ctx = model.contextFrames();
    const std::size_t dim = rawFeats[f - rawBase].size();
    const std::size_t width = (2 * std::size_t(ctx) + 1) * dim;
    pendingSpliced.resize(pendingSpliced.size() + width);
    frontend::spliceWindowInto(
        f, total_hint, ctx, dim,
        [this](std::size_t i) -> const std::vector<float> & {
            return rawFeats[i - rawBase];
        },
        std::span<float>(pendingSpliced).last(width));
    ++pendingRows_;
    acousticSeconds += secondsSince(t0);
}

std::vector<wfst::WordId>
StreamingSession::partialWords() const
{
    ASR_ASSERT(!finished, "partialWords after finish()");
    return search_->streamPartial();
}

pipeline::RecognitionResult
StreamingSession::finish()
{
    flushPending();
    scorePending();
    return finalizeFinish();
}

std::size_t
StreamingSession::splicedDim() const
{
    return model.backend().inputDim();
}

void
StreamingSession::exportPending(acoustic::Matrix &batch,
                                std::size_t base) const
{
    ASR_ASSERT(base + pendingRows_ <= batch.rows() &&
                   batch.cols() == splicedDim(),
               "pending export does not fit the batch matrix");
    // Multi-row block write: address the backing store directly
    // rather than writing pendingRows_ rows through a single row's
    // span (rows are contiguous, but the span's extent is one row).
    std::copy(pendingSpliced.begin(), pendingSpliced.end(),
              batch.data().begin() + base * batch.cols());
}

void
StreamingSession::consumePendingScores(const acoustic::Matrix &logp,
                                       std::size_t base,
                                       double acoustic_seconds)
{
    ASR_ASSERT(base + pendingRows_ <= logp.rows(),
               "score matrix too small for pending rows");
    acousticSeconds += acoustic_seconds;
    feedScores(logp, base, pendingRows_);
    pendingSpliced.clear();
    pendingRows_ = 0;
}

void
StreamingSession::scorePending()
{
    const acoustic::Backend &backend = model.backend();
    const std::size_t dim = splicedDim();
    for (std::size_t r0 = 0; r0 < pendingRows_;
         r0 += acoustic::kRowBlock) {
        const auto t0 = std::chrono::steady_clock::now();
        const std::size_t n =
            std::min(acoustic::kRowBlock, pendingRows_ - r0);
        acoustic::Matrix slice(n, dim);
        std::copy_n(pendingSpliced.begin() + r0 * dim, n * dim,
                    slice.data().begin());
        const acoustic::Matrix logp = backend.scoreBatch(slice);
        acousticSeconds += secondsSince(t0);
        feedScores(logp, 0, n);
    }
    pendingSpliced.clear();
    pendingRows_ = 0;
}

void
StreamingSession::feedScores(const acoustic::Matrix &logp,
                             std::size_t base, std::size_t rows)
{
    const auto t0 = std::chrono::steady_clock::now();
    likesScratch.resize(model.backend().outputDim() + 1);
    likesScratch[0] = wfst::kLogZero;  // epsilon slot (1-based phonemes)
    for (std::size_t r = 0; r < rows; ++r) {
        const auto src = logp.row(base + r);
        std::copy(src.begin(), src.end(), likesScratch.begin() + 1);
        search_->streamFrame(likesScratch);
        ++framesFed;
    }
    searchSeconds += secondsSince(t0);
}

void
StreamingSession::flushPending()
{
    ASR_ASSERT(!finished, "flushPending() after finish");
    finished = true;
    drainReadyFrames(/*flush=*/true);
}

pipeline::RecognitionResult
StreamingSession::finalizeFinish()
{
    ASR_ASSERT(finished, "finalizeFinish() before flushPending()");
    ASR_ASSERT(pendingRows_ == 0,
               "finalizeFinish() with unscored pending frames");
    auto t0 = std::chrono::steady_clock::now();
    decoder::DecodeResult decoded = search_->streamFinish();
    searchSeconds += secondsSince(t0);

    pipeline::RecognitionResult result;
    result.words = std::move(decoded.words);
    result.score = decoded.score;
    result.searchStats = decoded.stats;
    result.audioSeconds =
        double(streamingMfcc.samplesPushed()) /
        double(model.mfcc().config().sampleRate);
    result.frontendSeconds = frontendSeconds;
    result.acousticSeconds = acousticSeconds;
    result.searchSeconds = searchSeconds;
    result.sessionId = cfg.id;
    search_->accelStats(result.accelStats);
    return result;
}

} // namespace asr::server

/**
 * @file
 * Full ASR pipeline demo: audio in, words out, scored against the
 * ground truth.
 *
 * Builds the complete system of Sec. II around a command-and-control
 * style vocabulary, composing the knowledge sources exactly as the
 * paper describes: a lexicon WFST (each word a chain of phoneme
 * states with HMM self-loops) composed with a bigram grammar
 * acceptor into one decoding graph, an MFCC front-end, a DNN
 * acoustic model *trained at startup* on the synthetic phoneme
 * voices, and the Viterbi search running on the accelerator model.
 * It then speaks random grammar-legal word sequences, recognizes
 * them, and reports word error rate plus the per-stage timing split
 * of Figure 1.
 *
 *   $ ./examples/transcribe [num_utterances]
 */

#include <cstdio>
#include <cstdlib>

#include "api/engine.hh"
#include "decoder/wer.hh"
#include "wfst/compose.hh"
#include "wfst/lexicon.hh"

using namespace asr;

int
main(int argc, char **argv)
{
    const unsigned num_utterances =
        argc > 1 ? unsigned(std::atoi(argv[1])) : 5;

    // Vocabulary: 20 words over a 20-phoneme inventory, constrained
    // by a sparse bigram grammar -- the L o G construction of Sec. II.
    const std::uint32_t num_phonemes = 20;
    Rng rng(2016);
    const std::vector<wfst::LexiconWord> lexicon =
        wfst::makeRandomLexicon(20, num_phonemes, rng);
    wfst::SymbolTable words;
    const wfst::Wfst lex = wfst::buildLexiconWfst(lexicon, words);
    const wfst::Wfst grammar =
        wfst::buildBigramGrammar(20, /*successors=*/6, rng);
    const wfst::Wfst net = wfst::composeLexiconGrammar(lex, grammar);
    std::printf("L: %u states / %u arcs;  G: %u states / %u arcs;  "
                "L o G: %u states / %u arcs\n",
                lex.numStates(), lex.numArcs(), grammar.numStates(),
                grammar.numArcs(), net.numStates(), net.numArcs());

    std::printf("training the acoustic model on synthetic phoneme "
                "voices...\n");
    pipeline::AsrSystemConfig cfg;
    cfg.numPhonemes = num_phonemes;
    cfg.hiddenLayers = {64, 64};
    cfg.trainUtterPerPhoneme = 24;
    cfg.trainEpochs = 20;
    cfg.beam = 12.0f;
    api::EngineOptions opts;
    opts.searchBackend = "accel";
    opts.runTiming = true;
    api::Engine engine(net, cfg, opts);
    std::printf("acoustic model frame accuracy: %.1f%%\n\n",
                100.0 * engine.model().acousticModelAccuracy());

    decoder::WerResult total;
    double frontend_s = 0.0, acoustic_s = 0.0, search_s = 0.0;
    for (unsigned u = 0; u < num_utterances; ++u) {
        // "Speak" a random grammar-legal 4-word sentence by walking
        // the bigram acceptor; every phoneme dwells a few frames,
        // exactly the paths the composed WFST encodes.
        std::vector<wfst::WordId> truth;
        std::vector<std::uint32_t> frame_phones;
        wfst::StateId gstate = grammar.initialState();
        for (int k = 0; k < 4; ++k) {
            const auto arcs = grammar.arcs(gstate);
            const auto &garc = arcs[rng.below(arcs.size())];
            gstate = garc.dest;
            truth.push_back(garc.olabel);
            const auto &word = lexicon[garc.olabel - 1];
            for (wfst::PhonemeId p : word.phonemes) {
                const unsigned dwell = 3 + unsigned(rng.below(3));
                for (unsigned d = 0; d < dwell; ++d)
                    frame_phones.push_back(p);
            }
        }
        const frontend::AudioSignal audio =
            engine.model().synthesizer().synthesizeFrames(frame_phones);

        const pipeline::RecognitionResult result =
            engine.recognize(audio);
        frontend_s += result.frontendSeconds;
        acoustic_s += result.acousticSeconds;
        search_s += result.searchSeconds;

        const decoder::WerResult wer =
            decoder::scoreWer(truth, result.words);
        total.substitutions += wer.substitutions;
        total.insertions += wer.insertions;
        total.deletions += wer.deletions;
        total.referenceLength += wer.referenceLength;

        std::printf("utterance %u (%.2f s): said \"", u + 1,
                    audio.durationSeconds());
        for (std::size_t i = 0; i < truth.size(); ++i)
            std::printf("%s%s", i ? " " : "",
                        lexicon[truth[i] - 1].name.c_str());
        std::printf("\" -> heard \"");
        for (std::size_t i = 0; i < result.words.size(); ++i)
            std::printf("%s%s", i ? " " : "",
                        words.name(result.words[i]).c_str());
        std::printf("\"  [WER %.0f%%]\n", 100.0 * wer.wer());
    }

    std::printf("\ncorpus WER: %.1f%% over %u reference words "
                "(%u sub, %u ins, %u del)\n",
                100.0 * total.wer(), total.referenceLength,
                total.substitutions, total.insertions,
                total.deletions);
    const double host_total = frontend_s + acoustic_s + search_s;
    std::printf("\nhost-side stage split (cf. Figure 1):\n");
    std::printf("  MFCC frontend : %5.1f%%\n",
                100.0 * frontend_s / host_total);
    std::printf("  DNN acoustic  : %5.1f%%\n",
                100.0 * acoustic_s / host_total);
    std::printf("  Viterbi search: %5.1f%%\n",
                100.0 * search_s / host_total);
    return total.wer() < 0.5 ? 0 : 1;
}

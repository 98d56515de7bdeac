/**
 * @file
 * Tests for the synthetic WFST generator: the statistical shape must
 * match the paper's transducer, generation must be reproducible, and
 * the graph must be structurally sound for decoding.
 */

#include <gtest/gtest.h>

#include "wfst/generate.hh"
#include "wfst/stats.hh"

using namespace asr;
using namespace asr::wfst;

namespace {

Wfst
makeDefault(StateId states, std::uint64_t seed)
{
    GeneratorConfig cfg;
    cfg.numStates = states;
    cfg.seed = seed;
    return generateWfst(cfg);
}

} // namespace

TEST(Generator, Deterministic)
{
    const Wfst a = makeDefault(5000, 42);
    const Wfst b = makeDefault(5000, 42);
    ASSERT_EQ(a.numArcs(), b.numArcs());
    for (ArcId i = 0; i < a.numArcs(); ++i) {
        ASSERT_EQ(a.arc(i).dest, b.arc(i).dest);
        ASSERT_EQ(a.arc(i).weight, b.arc(i).weight);
        ASSERT_EQ(a.arc(i).ilabel, b.arc(i).ilabel);
    }
}

TEST(Generator, SeedChangesOutput)
{
    const Wfst a = makeDefault(5000, 1);
    const Wfst b = makeDefault(5000, 2);
    bool any_diff = a.numArcs() != b.numArcs();
    for (ArcId i = 0; !any_diff && i < a.numArcs(); ++i)
        any_diff = a.arc(i).dest != b.arc(i).dest;
    EXPECT_TRUE(any_diff);
}

TEST(Generator, MeanDegreeNearKaldi)
{
    // The paper's transducer: 34.7 M arcs / 13.5 M states = 2.56.
    const Wfst w = makeDefault(50000, 7);
    EXPECT_NEAR(w.meanOutDegree(), 2.56, 0.45);
}

TEST(Generator, EpsilonFractionNearKaldi)
{
    // Sec. II: 11.5% of Kaldi's arcs are epsilon.
    const Wfst w = makeDefault(50000, 7);
    EXPECT_NEAR(epsilonArcFraction(w), 0.115, 0.02);
}

TEST(Generator, MaxDegreeBounded)
{
    const Wfst w = makeDefault(100000, 3);
    EXPECT_LE(w.maxOutDegree(), 770u);
    // With 100 k draws the heavy tail should be exercised.
    EXPECT_GT(w.maxOutDegree(), 100u);
}

TEST(Generator, NoAbsorbingSelfLoopStates)
{
    // Every state with exactly one non-epsilon arc must advance:
    // a self-loop-only state would trap the search frontier.
    const Wfst w = makeDefault(20000, 11);
    for (StateId s = 0; s < w.numStates(); ++s) {
        const auto arcs = w.nonEpsArcs(s);
        if (arcs.size() == 1) {
            ASSERT_NE(arcs[0].dest, s) << "state " << s;
        }
    }
}

TEST(Generator, AtMostOneSelfLoopPerState)
{
    const Wfst w = makeDefault(20000, 13);
    for (StateId s = 0; s < w.numStates(); ++s) {
        unsigned loops = 0;
        for (const auto &a : w.nonEpsArcs(s))
            loops += a.dest == s;
        ASSERT_LE(loops, 1u) << "state " << s;
    }
}

TEST(Generator, ForwardEpsilonIsAcyclic)
{
    const Wfst w = makeDefault(20000, 17);
    for (StateId s = 0; s < w.numStates(); ++s)
        for (const auto &a : w.epsArcs(s))
            ASSERT_GT(a.dest, s) << "eps arc must point forward";
}

TEST(Generator, CyclicEpsilonModeAllowsBackArcs)
{
    GeneratorConfig cfg;
    cfg.numStates = 20000;
    cfg.forwardEpsilonOnly = false;
    cfg.seed = 19;
    const Wfst w = generateWfst(cfg);
    bool any_back = false;
    for (StateId s = 0; s < w.numStates() && !any_back; ++s)
        for (const auto &a : w.epsArcs(s))
            any_back = any_back || a.dest < s;
    EXPECT_TRUE(any_back);
    // But never an epsilon self-loop (those would never terminate).
    for (StateId s = 0; s < w.numStates(); ++s)
        for (const auto &a : w.epsArcs(s))
            ASSERT_NE(a.dest, s);
}

TEST(Generator, WeightsAreNegativeLogProbs)
{
    const Wfst w = makeDefault(10000, 23);
    for (ArcId i = 0; i < w.numArcs(); ++i) {
        ASSERT_LT(w.arc(i).weight, 0.0f);
        ASSERT_GE(w.arc(i).weight, -3.1f);
    }
}

TEST(Generator, LabelsInRange)
{
    GeneratorConfig cfg;
    cfg.numStates = 10000;
    cfg.numPhonemes = 100;
    cfg.numWords = 50;
    cfg.seed = 29;
    const Wfst w = generateWfst(cfg);
    for (ArcId i = 0; i < w.numArcs(); ++i) {
        const ArcEntry &a = w.arc(i);
        ASSERT_LE(a.ilabel, 100u);
        ASSERT_LE(a.olabel, 50u);
        if (!a.isEpsilon()) {
            ASSERT_GE(a.ilabel, 1u);
        }
    }
}

TEST(Generator, InitialStateHasFanout)
{
    const Wfst w = makeDefault(1000, 31);
    EXPECT_GE(w.state(w.initialState()).numArcs(), 8u);
}

/** Sweep: the shape holds across scales and seeds. */
struct GenCase
{
    StateId states;
    std::uint64_t seed;
};

class GeneratorSweep : public ::testing::TestWithParam<GenCase>
{
};

TEST_P(GeneratorSweep, ShapeInvariants)
{
    GeneratorConfig cfg;
    cfg.numStates = GetParam().states;
    cfg.seed = GetParam().seed;
    const Wfst w = generateWfst(cfg);
    w.validate();
    EXPECT_EQ(w.numStates(), GetParam().states);
    EXPECT_GT(w.meanOutDegree(), 1.8);
    EXPECT_LT(w.meanOutDegree(), 3.4);
    EXPECT_LE(w.maxOutDegree(), 770u);
    EXPECT_NEAR(epsilonArcFraction(w), 0.115, 0.05);
}

/**
 * gtest names each case after the printed bytes of its GenCase,
 * padding included; constant initialization keeps that padding zero.
 */
constexpr GenCase kGenCases[] = {
    {100, 1},
    {1000, 2},
    {1000, 3},
    {10000, 4},
    {10000, 5},
    {100000, 6},
};

INSTANTIATE_TEST_SUITE_P(Scales, GeneratorSweep,
                         ::testing::ValuesIn(kGenCases));

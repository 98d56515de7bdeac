#include "common/cpuinfo.hh"

#include <atomic>
#include <cstdlib>
#include <cstring>

#if (defined(__GNUC__) || defined(__clang__)) && \
    (defined(__x86_64__) || defined(__i386__))
#define ASR_PROBE_X86 1
#else
#define ASR_PROBE_X86 0
#endif

namespace asr::cpu {

namespace {

/** Test cap: -1 unset (the environment decides), else a SimdCap. */
std::atomic<int> testCap{-1};

bool
probeAvx2()
{
#if ASR_PROBE_X86
    return __builtin_cpu_supports("avx2");
#else
    return false;
#endif
}

bool
probeAvx512()
{
    // The probe also checks that the OS saves the zmm state (XCR0),
    // so a kernel that disabled AVX-512 reads as "no AVX-512F".
#if ASR_PROBE_X86
    return __builtin_cpu_supports("avx512f");
#else
    return false;
#endif
}

bool
envForcesScalar()
{
    const char *v = std::getenv("ASR_FORCE_SCALAR");
    return v != nullptr && v[0] != '\0' &&
           std::strcmp(v, "0") != 0;
}

/** The widest family the overrides allow, whatever the hardware. */
SimdCap
allowed()
{
    const int t = testCap.load(std::memory_order_relaxed);
    if (t >= 0)
        return SimdCap(t);
    return envForcesScalar() ? SimdCap::Scalar : SimdCap::Avx512;
}

} // namespace

bool
cpuSupportsAvx2()
{
    static const bool supported = probeAvx2();
    return supported;
}

bool
cpuSupportsAvx512()
{
    static const bool supported = probeAvx512();
    return supported;
}

bool
simdForcedOff()
{
    return allowed() == SimdCap::Scalar;
}

bool
hasAvx2()
{
    return cpuSupportsAvx2() && allowed() >= SimdCap::Avx2;
}

bool
hasAvx512()
{
    return cpuSupportsAvx512() && allowed() >= SimdCap::Avx512;
}

void
setSimdCapForTest(SimdCap cap)
{
    testCap.store(int(cap), std::memory_order_relaxed);
}

void
clearSimdCapForTest()
{
    testCap.store(-1, std::memory_order_relaxed);
}

std::string_view
simdLevel()
{
    if (hasAvx512())
        return "avx512";
    return hasAvx2() ? "avx2" : "scalar";
}

} // namespace asr::cpu

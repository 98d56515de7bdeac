#include "common/cpuinfo.hh"

#include <atomic>
#include <cstdlib>
#include <cstring>

namespace asr::cpu {

namespace {

/** Tri-state test override: -1 unset, 0 allow SIMD, 1 force scalar. */
std::atomic<int> testOverride{-1};

bool
probeAvx2()
{
#if (defined(__GNUC__) || defined(__clang__)) && \
    (defined(__x86_64__) || defined(__i386__))
    return __builtin_cpu_supports("avx2");
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

} // namespace

bool
cpuSupportsAvx2()
{
    static const bool supported = probeAvx2();
    return supported;
}

bool
simdForcedOff()
{
    const int t = testOverride.load(std::memory_order_relaxed);
    if (t >= 0)
        return t == 1;
    return envForcesScalar();
}

bool
hasAvx2()
{
    return cpuSupportsAvx2() && !simdForcedOff();
}

void
setForceScalarForTest(bool force)
{
    testOverride.store(force ? 1 : 0, std::memory_order_relaxed);
}

void
clearForceScalarForTest()
{
    testOverride.store(-1, std::memory_order_relaxed);
}

std::string_view
simdLevel()
{
    return hasAvx2() ? "avx2" : "scalar";
}

} // namespace asr::cpu

/**
 * @file
 * Tiny argv helpers shared by the bench, example and tool binaries.
 */

#ifndef ASR_COMMON_CLI_HH
#define ASR_COMMON_CLI_HH

#include <cstdint>
#include <cstdio>
#include <cstdlib>

namespace asr {

// Strict positive-integer argv parser: rejects junk and negative
// values instead of letting atoi wrap them into huge unsigneds.
inline unsigned
parseCountArg(const char *arg, const char *what, unsigned max)
{
    char *end = nullptr;
    const unsigned long v = std::strtoul(arg, &end, 10);
    if (arg[0] == '\0' || arg[0] == '-' || *end != '\0' || v == 0
        || v > max) {
        std::fprintf(stderr, "invalid %s '%s' (want 1..%u)\n", what,
                     arg, max);
        std::exit(EXIT_FAILURE);
    }
    return unsigned(v);
}

// Strict TCP port parser: decimal digits only (no sign, whitespace
// or trailing junk), range-checked before narrowing so an
// out-of-range value cannot wrap onto a valid port.  Port 0 ("pick
// an ephemeral port") is accepted only when @p allow_zero.
inline bool
tryParsePort(const char *arg, bool allow_zero, std::uint16_t &port)
{
    if (arg[0] < '0' || arg[0] > '9')
        return false;
    char *end = nullptr;
    // Overflow saturates at ULLONG_MAX, which the range check rejects.
    const unsigned long long v = std::strtoull(arg, &end, 10);
    if (*end != '\0' || v > 65535 || (v == 0 && !allow_zero))
        return false;
    port = std::uint16_t(v);
    return true;
}

// tryParsePort for argv: exits with a diagnostic on a bad port.
inline std::uint16_t
parsePortArg(const char *arg, bool allow_zero)
{
    std::uint16_t port = 0;
    if (!tryParsePort(arg, allow_zero, port)) {
        std::fprintf(stderr, "invalid port '%s' (want %u..65535)\n",
                     arg, allow_zero ? 0u : 1u);
        std::exit(EXIT_FAILURE);
    }
    return port;
}

} // namespace asr

#endif // ASR_COMMON_CLI_HH

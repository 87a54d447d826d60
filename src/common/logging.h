#ifndef TENCENTREC_COMMON_LOGGING_H_
#define TENCENTREC_COMMON_LOGGING_H_

#include <cstdio>
#include <cstdlib>

namespace tencentrec {

/// Log severities. Logging defaults to warnings and above so test and
/// benchmark output stays readable; simulations can raise verbosity.
enum class LogLevel : int { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// Process-wide minimum level that actually prints. The initial level is
/// read from the TR_LOG_LEVEL environment variable at startup (values:
/// debug|info|warning|warn|error, case-insensitive, or a numeric 0-3),
/// defaulting to kWarning — so deployments can verbose the admin plane and
/// watchdog dumps, or silence them, without a rebuild.
LogLevel GetLogLevel();
void SetLogLevel(LogLevel level);

/// Parses a TR_LOG_LEVEL-style string; null/unrecognized returns
/// `fallback`. Exposed for tests.
LogLevel ParseLogLevel(const char* value, LogLevel fallback);

namespace internal {
/// Formats "[L file:line] message\n" into one buffer and emits it with a
/// single stdio write, so concurrent workers (tstorm tasks, store flush
/// owners) never interleave fragments of each other's lines.
#if defined(__GNUC__) || defined(__clang__)
__attribute__((format(printf, 4, 5)))
#endif
void LogMessage(LogLevel level, const char* file, int line, const char* fmt,
                ...);
}  // namespace internal

}  // namespace tencentrec

/// printf-style logging. Example: TR_LOG(kInfo, "loaded %zu items", n);
#define TR_LOG(level, ...)                                                  \
  do {                                                                      \
    if (::tencentrec::LogLevel::level >= ::tencentrec::GetLogLevel()) {     \
      ::tencentrec::internal::LogMessage(::tencentrec::LogLevel::level,     \
                                         __FILE__, __LINE__, __VA_ARGS__);  \
    }                                                                       \
  } while (false)

/// Fatal invariant check; active in all build types (database-style: a
/// broken invariant in state management must never be silently ignored).
#define TR_CHECK(cond)                                                    \
  do {                                                                    \
    if (!(cond)) {                                                        \
      ::tencentrec::internal::LogMessage(::tencentrec::LogLevel::kError,  \
                                         __FILE__, __LINE__,              \
                                         "CHECK failed: %s", #cond);      \
      std::abort();                                                       \
    }                                                                     \
  } while (false)

#endif  // TENCENTREC_COMMON_LOGGING_H_

// Lightweight CHECK/DCHECK macros in the spirit of the Google C++ style
// guide. Library code uses these for programmer-error invariants instead of
// exceptions; violations print a message and abort.

#ifndef DSKETCH_UTIL_LOGGING_H_
#define DSKETCH_UTIL_LOGGING_H_

#include <atomic>
#include <cstdio>
#include <cstdlib>

namespace dsketch {
namespace internal {

/// Called after a CHECK-failure message prints, before abort. Installed
/// by obs::InstallTraceFatalHandlers to dump the flight recorder; must
/// be safe to run from any thread mid-crash.
using FatalHook = void (*)();

inline std::atomic<FatalHook>& FatalHookSlot() {
  static std::atomic<FatalHook> slot{nullptr};
  return slot;
}

inline void SetFatalHook(FatalHook hook) {
  FatalHookSlot().store(hook, std::memory_order_release);
}

[[noreturn]] inline void CheckFailed(const char* file, int line,
                                     const char* expr) {
  std::fprintf(stderr, "CHECK failed at %s:%d: %s\n", file, line, expr);
  if (FatalHook hook = FatalHookSlot().load(std::memory_order_acquire)) {
    hook();
  }
  std::abort();
}

}  // namespace internal
}  // namespace dsketch

/// Aborts the process if `cond` does not hold. Always enabled.
#define DSKETCH_CHECK(cond)                                        \
  do {                                                             \
    if (!(cond)) {                                                 \
      ::dsketch::internal::CheckFailed(__FILE__, __LINE__, #cond); \
    }                                                              \
  } while (0)

/// Like DSKETCH_CHECK but compiled out in NDEBUG builds. Use on hot paths.
/// -DDSKETCH_FORCE_DCHECK=ON keeps these active even in optimized builds —
/// the sanitizer CI job uses it so the DCHECK'd contracts (reserved keys,
/// position validity) stay enforced under asan+ubsan.
#if defined(NDEBUG) && !defined(DSKETCH_FORCE_DCHECK)
#define DSKETCH_DCHECK(cond) \
  do {                       \
  } while (0)
#else
#define DSKETCH_DCHECK(cond) DSKETCH_CHECK(cond)
#endif

/// True when DSKETCH_DCHECK is active (death tests on DCHECK'd contracts
/// compile only when this is 1).
#if defined(NDEBUG) && !defined(DSKETCH_FORCE_DCHECK)
#define DSKETCH_DCHECK_IS_ON 0
#else
#define DSKETCH_DCHECK_IS_ON 1
#endif

#endif  // DSKETCH_UTIL_LOGGING_H_

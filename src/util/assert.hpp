// Checked assertions for the musketeer library.
//
// MUSK_ASSERT is active in all build types: the invariants it guards
// (flow conservation, budget balance, capacity feasibility) are cheap
// relative to the solves around them, and a silent violation would
// invalidate every downstream economic property.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <string_view>

namespace musketeer::util {

[[noreturn]] inline void assert_fail(std::string_view expr, std::string_view file,
                                     int line, std::string_view msg) {
  std::fprintf(stderr, "musketeer assertion failed: %.*s\n  at %.*s:%d\n  %.*s\n",
               static_cast<int>(expr.size()), expr.data(),
               static_cast<int>(file.size()), file.data(), line,
               static_cast<int>(msg.size()), msg.data());
  // abort() skips stdio teardown: flush so a redirected stdout (a bench
  // table printed before its gate fired) keeps what was already written.
  std::fflush(nullptr);
  std::abort();
}

}  // namespace musketeer::util

#define MUSK_ASSERT(expr)                                                      \
  ((expr) ? static_cast<void>(0)                                               \
          : ::musketeer::util::assert_fail(#expr, __FILE__, __LINE__, ""))

#define MUSK_ASSERT_MSG(expr, msg)                                             \
  ((expr) ? static_cast<void>(0)                                               \
          : ::musketeer::util::assert_fail(#expr, __FILE__, __LINE__, (msg)))

// Proves the -DLEIME_PROF=OFF contract at the macro level: with
// LEIME_PROF_DISABLED defined before including the header (exactly what the
// CMake option does globally), LEIME_PROF_SCOPE / LEIME_PROF_COUNT expand
// to nothing at all. The names below are deliberately invalid — if the
// macros still reached intern_section they would throw at first execution,
// and if they evaluated their arguments the side effect below would fire.
#define LEIME_PROF_DISABLED
#include "prof/profiler.h"

#include <gtest/gtest.h>

namespace leime::prof {
namespace {

int evaluations = 0;
// Named only inside the compiled-out macros, so never called.
[[maybe_unused]] const char* name_with_side_effect() {
  ++evaluations;
  return "THIS IS NOT A VALID SECTION NAME";
}

void instrumented_but_compiled_out() {
  LEIME_PROF_SCOPE(name_with_side_effect());
  LEIME_PROF_COUNT(name_with_side_effect(), 1);
  LEIME_PROF_SCOPE("also not valid!");
}

TEST(ProfilerDisabled, MacrosExpandToNothing) {
  // The runtime API still exists (the library is always built); only the
  // instrumentation sites vanish. Even with the gate forced on, the
  // compiled-out sites record nothing and never evaluate their arguments.
  set_enabled(true);
  reset();
  instrumented_but_compiled_out();
  set_enabled(false);
  EXPECT_EQ(evaluations, 0);
  EXPECT_TRUE(report().empty());
}

}  // namespace
}  // namespace leime::prof

// Test-only global allocation counters.
//
// Linking alloc_hooks.cpp into a test binary replaces the global
// operator new/delete family with malloc/free wrappers that bump an atomic
// counter per allocation. Tests then assert a region of code allocates
// exactly zero times by diffing allocation_count() around it — the gate
// that keeps the DES hot path's zero-allocation steady state (DESIGN.md
// §10) from silently regressing.
//
// The hooks also track the live heap, as glibc's malloc_usable_size of
// every block not yet freed, and its high-water mark, so a test can bound
// the peak heap of a run.
//
// The counters are process-global and include gtest's own allocations, so
// only ever compare *deltas* across a region that runs nothing but the
// code under test.
#pragma once

#include <cstddef>
#include <cstdint>

namespace leime::testsupport {

/// Number of global operator new invocations (all forms) since start.
std::uint64_t allocation_count();

/// Number of global operator delete invocations (all forms) since start.
std::uint64_t deallocation_count();

/// Bytes held by blocks from operator new not yet deleted (usable sizes).
std::size_t live_bytes();

/// The largest live_bytes() since start or since the last reset_peak().
std::size_t peak_live_bytes();

/// Restarts the high-water mark at the current live_bytes().
void reset_peak();

}  // namespace leime::testsupport

// Seeded violations for veridp_lint's relaxed-atomic rule: bare
// memory_order_relaxed uses outside the profiler internals,
// including one whose allow() is missing the required justification.
// Never compiled; linted by ctest (lint_fixture_relaxed_atomic expects
// this file to FAIL the lint with only relaxed-atomic findings).
#include <atomic>
#include <cstdint>

namespace fixture {

std::atomic<std::uint64_t> g_published{0};
std::atomic<bool> g_ready{false};

void publish() {
  // BAD: relaxed store that a reader will treat as "the table is
  // ready" — the exact flag-implies-other-memory pattern the rule
  // exists to flush out.
  g_ready.store(true, std::memory_order_relaxed);
}

std::uint64_t bump() {
  // BAD: allow present but no justification argument.
  // veridp-lint: allow(relaxed-atomic)
  return g_published.fetch_add(1, std::memory_order_relaxed);
}

std::uint64_t peek() {
  // OK (not reported): justified allow — this is the accepted form.
  // veridp-lint: allow(relaxed-atomic, monitoring counter; exactness not ordering)
  return g_published.load(std::memory_order_relaxed);
}

}  // namespace fixture

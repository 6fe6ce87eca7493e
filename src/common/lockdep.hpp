// Lockdep-style runtime lock-order checking + snapshot-lifecycle
// discipline (DESIGN.md §12).
//
// TSan proves the *absence of data races on the schedules it saw*; it
// is structurally blind to lock-order inversions (an ABBA pair that
// never interleaved in CI deadlocks in production) and to a retired
// epoch snapshot quietly serving one more batch. This module monitors
// those two invariants the way the paper monitors the data plane:
// continuously, on every execution, instead of trusting one run.
//
// Lock-order half (after the Linux kernel's lockdep): every
// veridp::Mutex / veridp::SharedMutex constructed with a name belongs
// to a lock *class* keyed by that construction-site name — the
// per-lane mutexes of the parallel server all collapse into the single
// class "ParallelServer::Lane::mu", so one observed nesting validates
// the rule for every lane. Each thread keeps a held-class stack;
// acquiring class B while holding class A records the directed edge
// A -> B in a process-global graph. A *blocking* acquisition that
// would close a cycle aborts immediately with both acquisition stacks
// (the current one and the one recorded when the conflicting edge was
// first seen) — the deadlock is reported the first time the *order*
// inverts, not the first time the timing loses. try_lock acquisitions
// record their edges (the declared-vs-observed CI diff wants them) but
// never abort: an acquisition that cannot block cannot complete a
// deadlock cycle. Reader/writer acquisitions are tracked with their
// mode and treated conservatively as ordering constraints — a
// shared/shared cycle is still a hierarchy violation even where the
// scheduler could not wedge on it.
//
// Snapshot-lifecycle half (the PR 5 arena-generation trick, extended
// from BddRefs to EpochSnapshots): every EpochSnapshot registers a
// monotonically increasing lifecycle generation at construction and
// unregisters it at destruction; an owner may also *retire* a
// generation it must never serve again (no server does today: the one
// failsafe keeps serving the last published snapshot). Using a retired
// or destroyed snapshot (EpochSnapshot::view()) aborts with the reason —
// catching use-after-retire and dangling handles instead of letting a
// stale table answer one more probe.
//
// Everything here is compiled away unless VERIDP_LOCKDEP is defined
// (the `lockdep` CMake preset / -DVERIDP_LOCKDEP=ON): in release
// builds the hooks are empty inlines, the wrappers keep their exact
// std-primitive layout, and the hot path is untouched — the perf-smoke
// gate runs against the release build precisely so this stays true.
//
// Observability: with VERIDP_LOCKDEP_DUMP_DIR set in the environment,
// the process dumps its observed lock-class order graph as JSON
// (lockdep.<pid>.json) at clean exit. tools/lock_order_extract.py
// merges those dumps and diffs them against the ACQUIRED_BEFORE /
// ACQUIRED_AFTER hierarchy declared in the source, so an undeclared or
// inverted edge fails CI even when no deadlock fired.
#pragma once

#include <cstddef>
#include <cstdint>

namespace veridp {
namespace lockdep {

/// Acquisition/hold mode of one lock operation.
enum class Mode : std::uint8_t { kExclusive = 0, kShared = 1 };

/// Sentinel class id for untracked (unnamed) locks.
inline constexpr std::uint16_t kNoClass = 0xffff;

#ifdef VERIDP_LOCKDEP

/// Interns `name` into the process-global class registry and returns
/// its class id. Identical names (by content) share a class — that is
/// what collapses per-instance locks into construction-site classes.
/// `name` must outlive the process (string literals do).
std::uint16_t register_class(const char* name);

/// Called BEFORE a blocking acquisition of `cls`: records held -> cls
/// edges, runs cycle detection, and aborts with both acquisition
/// stacks on an inversion. Aborting before the underlying lock() means
/// the checker reports the deadlock instead of joining it.
void pre_acquire(std::uint16_t cls, Mode mode);

/// Called AFTER any successful acquisition: pushes onto the per-thread
/// held stack. For try-acquisitions (`trylock` true) this also records
/// the held -> cls edges (flagged, never aborting).
void post_acquire(std::uint16_t cls, Mode mode, bool trylock);

/// Called on release: pops the most recent matching held entry.
void on_release(std::uint16_t cls, Mode mode);

/// Dumps the observed lock-class order graph as JSON to `path`.
/// Returns false on IO failure. Also triggered at process exit for
/// every process that recorded at least one acquisition when
/// VERIDP_LOCKDEP_DUMP_DIR is set.
bool dump_json(const char* path);

/// Number of distinct order edges observed so far (test hook).
std::size_t observed_edge_count();

/// Drops all recorded state — graph, classes stay interned. Test-only:
/// never call with locks held anywhere in the process.
void reset_for_testing();

namespace snapshot {

/// Registers a new snapshot lifecycle handle; returns its generation.
std::uint64_t register_gen();

/// Marks `gen` retired with a human-readable reason. Idempotent; retiring generation 0 is a no-op so
/// release-built objects (which carry gen 0) interoperate.
void retire(std::uint64_t gen, const char* why);

/// Unregisters at destruction; subsequent checks abort (the handle no
/// longer exists — any use is a dangling reference).
void unregister(std::uint64_t gen);

/// Aborts with `what` + the retire reason if `gen` is retired or
/// unregistered. gen 0 (release-built object) passes.
void check(std::uint64_t gen, const char* what);

}  // namespace snapshot

#else  // !VERIDP_LOCKDEP — every hook is a free no-op.

inline std::uint16_t register_class(const char*) { return kNoClass; }
inline void pre_acquire(std::uint16_t, Mode) {}
inline void post_acquire(std::uint16_t, Mode, bool) {}
inline void on_release(std::uint16_t, Mode) {}
inline bool dump_json(const char*) { return false; }
inline std::size_t observed_edge_count() { return 0; }
inline void reset_for_testing() {}

namespace snapshot {
inline std::uint64_t register_gen() { return 0; }
inline void retire(std::uint64_t, const char*) {}
inline void unregister(std::uint64_t) {}
inline void check(std::uint64_t, const char*) {}
}  // namespace snapshot

#endif  // VERIDP_LOCKDEP

}  // namespace lockdep
}  // namespace veridp

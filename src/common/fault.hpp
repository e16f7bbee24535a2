// Deterministic fault injection for rollback / fault-tolerance testing.
//
// The loader pipeline is sprinkled with named fault points
// (`fault::maybe_fail("bulk.merge")`); each is a single relaxed atomic
// load when nothing is armed, so the hooks are compiled in always — no
// special build flavour needed — and tests (or the environment) can
// provoke a failure at any stage of a load to prove the rollback
// machinery restores the database exactly.
//
// Arming:
//   * programmatic — fault::arm("loader.shred", 3) throws InjectedFault
//     on the 3rd hit of that point, then disarms itself (one-shot, so at
//     most one failure fires per arm even with concurrent workers); a
//     `fires` count > 1 keeps the point armed and failing on every
//     subsequent hit until that many faults have fired — how tests force
//     retry loops to exhaust their attempts;
//   * environment — XMLREL_FAULT_INJECT="point[:count[:abort|repeat]]"
//     arms the point at process start; the optional `abort` mode calls
//     std::abort() instead of throwing (crash-style testing of external
//     supervisors), `repeat` keeps firing on every hit.
//
// Fault-point catalogue (kept in sync with DESIGN.md §7):
//   xml.parse          entry of xml::parse_document
//   loader.shred       per element shredded (Loader::load_element)
//   bulk.merge         per table merged (BulkLoader staging → storage)
//   rdb.index_rebuild  per table index rebuild (Table::end_bulk)
//   loader.resolve     per IDREF row visited during resolution
//   wal.append         per WAL record buffered (Wal::append)
//   wal.fsync          outermost-commit flush, before any byte moves
//   snapshot.write     before the snapshot temp file is written
//   snapshot.rename    before the temp file is renamed into place
//   recovery.replay    per WAL record applied during Database::open
//   service.admit      per submission, inside QueryService admission
//   exec.cancel_poll   per cancellation poll in the SQL executor
//   write.retry        per attempt of QueryService::execute_write
//   snapshot.verify    before checkpoint() re-reads the snapshot it wrote
//
// The catalogue is compiled into known_points(); arm() refuses names
// that are not in it (a typo'd XMLREL_FAULT_INJECT used to arm a point
// that could never fire, silently testing nothing).
#pragma once

#include <atomic>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "common/error.hpp"

namespace xr::fault {

/// Thrown by an armed fault point.  Derives from xr::Error so it flows
/// through the same recovery paths as organic failures, but is
/// distinguishable (loaders classify it as retryable).
class InjectedFault : public Error {
public:
    using Error::Error;
};

namespace detail {
extern std::atomic<bool> g_armed;
void hit(const char* point);  // slow path; only reached while armed
}  // namespace detail

/// Fault point: no-op unless a matching point is armed.  Safe to call
/// from concurrent workers.
inline void maybe_fail(const char* point) {
    if (detail::g_armed.load(std::memory_order_acquire)) detail::hit(point);
}

/// Arm `point` to fail on its `countdown`-th hit (1 = next hit).  With
/// `abort_instead` the process aborts rather than throwing.  `fires` is
/// the total number of faults to inject: after the first fires, every
/// further hit fires too until `fires` failures happened (so retry loops
/// can be made to exhaust deterministically); the usual one-shot is
/// fires = 1.  Re-arming replaces any previous arm.  Must not race with
/// in-flight loads.
///
/// Unknown point names are rejected: a warning goes to stderr, the armed
/// state is left untouched, and arm() returns false.  Returns true when
/// the point was armed.
bool arm(std::string_view point, long countdown = 1, bool abort_instead = false,
         long fires = 1);

/// Arm `point` to run `action` on its next hit instead of throwing
/// (one-shot).  Models a fault that changes state rather than failing
/// the call, e.g. a disk that returns other bytes than were written.
/// Same name check and return value as arm().
bool arm_action(std::string_view point, std::function<void()> action);

/// Every fault-point name compiled into the binary (the catalogue
/// above), sorted.  arm() accepts exactly these.
[[nodiscard]] const std::vector<std::string_view>& known_points();

/// Disarm without firing.
void disarm();

/// True while a point is armed (the fault has not fired yet).
[[nodiscard]] bool armed();

/// True once the armed fault has fired (reset by the next arm()).
[[nodiscard]] bool fired();

/// Hits recorded on the armed point since the last arm().
[[nodiscard]] long hits();

}  // namespace xr::fault

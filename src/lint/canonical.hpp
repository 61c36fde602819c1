// Schedule-equivalence canonicalizer.
//
// Many mutants the search loop proposes differ only in ways the compiled
// filter scripts cannot observe: the order of events acting on different
// (side, message-type) counters, stale payload fields a fault kind never
// reads (a drop's delay), or events that provably never fire (a type the
// protocol stub never produces). canonicalize() rewrites a FaultSchedule
// into a normal form in which all such equivalent schedules collide, and
// canonical_key() strings it (with the protocol) so callers can dedup:
//
//   * pfi_campaign --lint groups cells whose canonical keys match and
//     reports the provably-equivalent duplicates;
//   * the search (`pfi_campaign --explore`) answers equivalent mutants
//     from the representative's record without simulating them
//     (SearchResult::equiv_skipped).
//
// Soundness contract: canonicalize(s).compile() and s.compile() drive
// byte-identical fault behaviour for every message trace the protocol stub
// can produce. Rewrites stay inside that contract:
//
//   * events on different sides, or on disjoint message-type match sets,
//     commute — but a side mixing wildcard "*" targets with concrete types
//     is left in source order ("*" intersects every type's match set);
//   * two events on the same (side, type) counter commute only when their
//     occurrence windows are disjoint (a reorder window spans
//     [occurrence, occurrence + batch - 1], every other kind one point);
//   * only provably-dead events are dropped: a concrete type the stub's
//     (non-empty) published type list lacks, or a non-reorder event with
//     occurrence < 1 (counters are 1-based). A no-op-looking fault that
//     still perturbs the trace — delay <= 0 (timestamp ordering),
//     duplicate with copies < 1 (the filter still logs the intercept) —
//     is NOT dropped;
//   * payload fields a kind never reads reset to their defaults, and a
//     reorder batch clamps to >= 2, mirroring compile();
//   * same-slot redundancy collapses per the PfiLayer dispatch contract:
//     identical drops dedup (the dropped flag is idempotent), a delay or
//     duplicate dies when a drop targets the same (side, type, occurrence)
//     slot (dispatch discards before reading either field), and of several
//     delays (or duplicates) on one slot only the last survives (the
//     fields are overwritten, not accumulated). Corrupt events are exempt
//     — their compiled action consumes `dst_uniform` randomness even when
//     masked — as are reorders, whose hold preempts the drop flag.
//
// shadowed_faults() is the diagnostic face of the same interval reasoning:
// send-side faults that renumber or scramble arrivals make same-type
// receive-side occurrence targets aim at a different message than written,
// and a same-side drop makes a same-slot delay/duplicate dead outright.
#pragma once

#include <string>
#include <vector>

#include "campaign/schedule.hpp"
#include "lint/diagnostic.hpp"

namespace pfi::lint {

/// Normal form of `sched` for `protocol` (see file comment). Idempotent:
/// canonicalize(canonicalize(s)) == canonicalize(s).
campaign::FaultSchedule canonicalize(const campaign::FaultSchedule& sched,
                                     const std::string& protocol);

/// "<protocol>|<json of canonicalize(sched)>" — equal keys mean provably
/// equivalent fault behaviour.
std::string canonical_key(const campaign::FaultSchedule& sched,
                          const std::string& protocol);

/// shadowed-fault warnings: receive-side occurrence targets whose numbering
/// a send-side drop/duplicate/reorder of the same type skews. `context`
/// labels the diagnostics (cell id or file name).
std::vector<Diagnostic> shadowed_faults(const campaign::FaultSchedule& sched,
                                        const std::string& context);

}  // namespace pfi::lint

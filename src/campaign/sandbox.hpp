// Fork-based cell isolation (--isolate).
//
// The paper's central irony is that a fault injector must survive the
// faults it provokes: a campaign cell whose testbed dereferences a wild
// pointer (or trips an ASan abort) takes the whole campaign process — and
// every finished result — down with it. Under isolation each cell runs in
// a forked child; the child executes run_cell() as usual and streams an
// exact serialisation of its RunResult back through a pipe, then _exit()s.
// The parent turns whatever actually happened into a record:
//
//   child wrote a result and exited 0   -> that result, byte-exact
//   child died on a signal              -> error record "signal SIGSEGV (11)"
//   child wedged past its wall budget   -> SIGKILL + the same deterministic
//                                          timeout record the in-process
//                                          watchdog would have produced
//   child exited non-zero (ASan abort)  -> error record with the status
//
// The wire format round-trips every field exactly (doubles travel as %a
// hex floats), so records remain byte-identical with and without --isolate.
// Fork-safety note: spawn only from a single-threaded parent (the isolate
// executor path is single-threaded by design; the children provide the
// parallelism).
#pragma once

#include <string>
#include <string_view>

#include <sys/types.h>

#include "campaign/runner.hpp"
#include "campaign/spec.hpp"

namespace pfi::campaign {

/// Exact, self-delimiting serialisation of a RunResult (kv.hpp entries).
/// Not JSON on purpose: decoding must be trivial and lossless. A decode
/// fails on a malformed entry or number, or without the closing `end`.
std::string wire_encode(const RunResult& r);
bool wire_decode(std::string_view bytes, RunResult* out);

struct SandboxChild {
  pid_t pid = -1;
  int fd = -1;  // read end of the result pipe (parent side)
};

/// Fork a child running `cell`; returns false (with *err) if fork/pipe
/// fails. The caller owns child.fd and must waitpid(child.pid).
bool sandbox_spawn(const RunCell& cell, SandboxChild* child, std::string* err);

/// Turn a finished child into a record (see table above). `bytes` is
/// everything read from the pipe; `killed_on_timeout` means the parent
/// SIGKILLed the child for exceeding the cell's wall-clock budget.
RunResult sandbox_finish(const RunCell& cell, int wait_status,
                         const std::string& bytes, bool killed_on_timeout);

}  // namespace pfi::campaign

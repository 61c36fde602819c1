#include "lint/registry.hpp"

#include <algorithm>

#include "pfi/pfi_layer.hpp"
#include "pfi/scripted_driver.hpp"
#include "sim/scheduler.hpp"

namespace pfi::lint {

namespace {

/// Read the registry from the hosts that provide commands: each command
/// is credited to the first host that provides it.
std::vector<RegisteredCommand> build_registry() {
  sim::Scheduler sched;
  const script::Interp fresh;
  core::PfiLayer filter{sched, core::PfiConfig{}};
  core::ScriptedDriver driver{sched, core::ScriptedDriver::Config{}};

  std::vector<RegisteredCommand> table;
  const auto add = [&table](const script::Interp& host, Origin origin) {
    for (const script::CommandSig& sig : host.signatures()) {
      if (std::none_of(table.begin(), table.end(),
                       [&sig](const RegisteredCommand& c) {
                         return c.name == sig.name;
                       })) {
        table.push_back({sig, origin});
      }
    }
  };
  add(fresh, Origin::kCore);
  add(filter.send_interp(), Origin::kFilter);
  add(driver.interp(), Origin::kDriver);
  std::sort(table.begin(), table.end(),
            [](const RegisteredCommand& a, const RegisteredCommand& b) {
              return a.name < b.name;
            });
  return table;
}

}  // namespace

const std::vector<RegisteredCommand>& builtin_registry() {
  static const std::vector<RegisteredCommand> table = build_registry();
  return table;
}

const RegisteredCommand* find_command(std::string_view name) {
  const auto& table = builtin_registry();
  const auto it = std::lower_bound(
      table.begin(), table.end(), name,
      [](const RegisteredCommand& c, std::string_view n) {
        return c.name < n;
      });
  if (it != table.end() && it->name == name) return &*it;
  return nullptr;
}

const std::vector<std::string>& protocol_message_types(
    std::string_view protocol) {
  // Mirrors the stub type tables in src/pfi/{gmp,tcp,tpc}_stub.hpp; each
  // stub also reports "unknown" for unrecognised bytes, and schedules may
  // match "*" (every message).
  static const std::vector<std::string> gmp = {
      "*",        "gmp-ack",   "gmp-commit",    "gmp-death", "gmp-heartbeat",
      "gmp-join", "gmp-mc",    "gmp-nak",       "gmp-proclaim", "rel-ack",
      "unknown"};
  static const std::vector<std::string> tcp = {
      "*",       "tcp-ack", "tcp-data", "tcp-fin", "tcp-rst",
      "tcp-syn", "tcp-synack", "unknown"};
  static const std::vector<std::string> tpc = {
      "*",          "tpc-ack",          "tpc-decision", "tpc-decision-req",
      "tpc-vote-no", "tpc-vote-req",    "tpc-vote-yes", "unknown"};
  static const std::vector<std::string> none;
  if (protocol == "gmp") return gmp;
  if (protocol == "tcp") return tcp;
  if (protocol == "tpc") return tpc;
  return none;
}

const std::vector<RuleInfo>& rule_catalog() {
  // Sorted by id. Script-analysis rules first existed in v1; the
  // flow-sensitive engine added use-before-def, invariant-loop,
  // unused-proc and unused-suppression; the schedule canonicalizer added
  // shadowed-fault.
  static const std::vector<RuleInfo> rules = {
      {"bad-arity", "command called with an argument count outside the "
                    "implementation's bounds"},
      {"bad-expr", "constant guard expression fails to evaluate"},
      {"bad-occurrence", "fault occurrence can never match (occurrences are "
                         "1-based) or plans zero events"},
      {"bad-oracle", "oracle is not valid for the cell's protocol"},
      {"bad-protocol", "protocol is unknown to the campaign runner"},
      {"bad-scenario", "driver scenario is unknown for the protocol"},
      {"bad-target", "target node is outside the cluster"},
      {"conflicting-faults", "two faults claim the same message occurrence "
                             "(drop vs. other, or inside a reorder window)"},
      {"constant-condition", "if/while guard folds to a constant on every "
                             "reaching path"},
      {"dead-timeline", "conformance inject window can never fire"},
      {"degenerate-reorder", "reorder window holds fewer than 2 messages; "
                             "releasing it reversed is the identity"},
      {"duplicate-event", "two schedule events are identical"},
      {"empty-fault-window", "faults install after the run already ended"},
      {"empty-schedule", "fault schedule has no events"},
      {"expect-before-inject", "expect of a faulted type completes before "
                               "any colliding inject window opens"},
      {"infinite-loop", "loop can never exit, or runs past the "
                        "interpreter's iteration budget"},
      {"invariant-loop", "loop guard reads only variables the body never "
                         "assigns"},
      {"missing-script", "referenced script file does not exist"},
      {"no-op-fault", "fault parameters make the fault do nothing"},
      {"overlapping-windows", "two reorder hold windows overlap on one "
                              "message type"},
      {"parse-error", "script or spec source fails to parse"},
      {"script-path", "script resolves relative to the process working "
                      "directory, not the spec file"},
      {"shadowed-fault", "send-side fault skews the arrival numbering a "
                         "receive-side occurrence target relies on"},
      {"undefined-var", "variable is read but never set in any visible "
                        "scope"},
      {"unknown-command", "command is neither a builtin, a registered host "
                          "command, nor a script-defined proc"},
      {"unknown-directive", "conformance timeline directive is not part of "
                            "the .pdt grammar"},
      {"unknown-message-type", "message type is not produced by the "
                               "protocol stub"},
      {"unreachable-code", "command can never execute (the block already "
                           "returned)"},
      {"unreachable-expect", "expect window opens after the run already "
                             "ended"},
      {"unused-proc", "proc is defined but never called"},
      {"unused-suppression", "pfi-lint suppression comment matches no "
                             "diagnostic"},
      {"unused-var", "variable is set but never read"},
      {"use-before-def", "an execution path reaches a read before any "
                         "assignment"},
  };
  return rules;
}

int rule_index(std::string_view rule) {
  const auto& rules = rule_catalog();
  for (std::size_t i = 0; i < rules.size(); ++i) {
    if (rules[i].id == rule) return static_cast<int>(i);
  }
  return -1;
}

}  // namespace pfi::lint

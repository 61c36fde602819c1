// Machine-readable registry of every command a filter script may call,
// read once from the signatures of three live hosts: a fresh Interp (the
// builtins), a PfiLayer filter interpreter and a ScriptedDriver. Each entry
// is the signature the interpreter enforces (script::CommandSig), so lint
// and the interpreter agree on every argument count.
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "campaign/spec.hpp"
#include "script/interp.hpp"

namespace pfi::lint {

enum class Origin {
  kCore,    // interpreter builtin (always available)
  kFilter,  // PfiLayer's host table (send/receive filter interps)
  kDriver,  // ScriptedDriver's host table (drv_* scripts)
};

/// A registered command and the first host (in the order above) that
/// provides it.
struct RegisteredCommand : script::CommandSig {
  Origin origin = Origin::kCore;
};

/// The full registry, sorted by name.
const std::vector<RegisteredCommand>& builtin_registry();

/// Lookup by command name; nullptr when unknown.
const RegisteredCommand* find_command(std::string_view name);

/// Message types a protocol's packet stub recognises (plus "*" wildcard
/// and the stub's "unknown" bucket). Empty for unknown protocols.
const std::vector<std::string>& protocol_message_types(
    std::string_view protocol);

/// Oracles the campaign runner accepts for a protocol: the campaign's one
/// oracle table.
using campaign::protocol_oracles;

/// One lint rule: the stable id suppressions name and a one-line
/// description. The catalog feeds SARIF tool metadata and docs/LINT.md.
struct RuleInfo {
  std::string id;
  std::string description;
};

/// Every rule id any pass can emit, sorted by id. tests/lint_test.cpp
/// asserts the catalog covers exactly what the passes produce.
const std::vector<RuleInfo>& rule_catalog();

/// Index of `rule` in rule_catalog(); -1 when unknown.
int rule_index(std::string_view rule);

}  // namespace pfi::lint

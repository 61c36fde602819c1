// Interactive REPL for the PFI scripting language (the Tcl subset).
//
//   $ echo 'expr {6 * 7}' | ./script_repl
//   $ ./script_repl            # interactive; Ctrl-D to exit
//
// Useful for prototyping filter scripts before installing them into a PFI
// layer: all core commands are available, plus stub-free demo commands
// showing how hosts extend the interpreter.
#include <unistd.h>

#include <cstdio>
#include <iostream>
#include <string>

#include "script/interp.hpp"

int main() {
  pfi::script::Interp interp;

  // A taste of host-registered commands (the real PFI layer registers the
  // msg_*/x*/dst_* families the same way).
  interp.register_command(
      {"hello", 0, 1, "hello ?name?"},
      [](pfi::script::Interp&, const std::vector<std::string>& args) {
        std::string who = args.size() > 1 ? args[1] : "world";
        return pfi::script::Result::ok("hello, " + who);
      });

  std::string line;
  std::string pending;
  const bool tty = isatty(0) != 0;
  if (tty) {
    std::printf("pfi-tcl repl -- core commands plus [hello ?name?]\n");
  }
  while (true) {
    if (tty) std::printf(pending.empty() ? "%% " : "> ");
    if (!std::getline(std::cin, line)) break;
    pending += line;
    // Continue reading while braces are unbalanced (multi-line scripts).
    int depth = 0;
    for (char c : pending) {
      if (c == '{') ++depth;
      if (c == '}') --depth;
    }
    if (depth > 0) {
      pending += '\n';
      continue;
    }
    pfi::script::Result r = interp.eval(pending);
    pending.clear();
    const std::string out = interp.take_output();
    if (!out.empty()) std::fputs(out.c_str(), stdout);
    if (r.is_error()) {
      std::printf("error: %s\n", r.value.c_str());
    } else if (!r.value.empty()) {
      std::printf("%s\n", r.value.c_str());
    }
  }
  return 0;
}

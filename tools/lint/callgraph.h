// Stage 2b of the aqua_lint pipeline: links per-TU symbol tables
// (lint/parser.h) into a project-wide call graph and propagates hot-path
// reachability along it.
//
// Hotness seeds at every function whose parameter list takes a
// `Workspace&` — the repo convention marking steady-state sample-path code
// — and flows caller -> callee, so a helper two calls below `Modem::push`
// is hot even though its own signature never mentions the arena.
//
// Name resolution is heuristic: a call site `f(...)` binds to every
// project function named `f` (filtered by the `Cls::` qualifier when one
// is spelled and matches). That over-approximates — which is the right
// direction for a lint — and under-approximates dynamic dispatch, which
// the `// lint-call: Target` comment escape covers. One receiver is known
// for sure: `field_.f(...)` on a field declared with a `std::` type calls
// the library, so it binds to nothing.
//
// A function annotated `// lint: hot-alloc-ok(reason)` at its definition
// is exempt: propagation stops there (its body is not marked hot and its
// callees gain no hotness through it). Seeds stay hot regardless — taking
// a Workspace& IS the hot-path contract.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "lint/parser.h"

namespace aqua::lint {

/// One TU's contribution to the graph build. `exempt[f]` is true when
/// functions[f] carries a `hot-alloc-ok` definition annotation.
struct CallGraphTu {
  const SymbolTable* sym = nullptr;
  std::vector<char> exempt;
};

/// Per-function hot-path verdicts, indexed [tu][function].
struct HotInfo {
  /// Body is on the hot path (seed or reached from one).
  std::vector<std::vector<char>> hot;
  /// The function's `hot-alloc-ok` exemption actually intercepted
  /// propagation (an exemption that never fires is a stale annotation).
  std::vector<std::vector<char>> exempt_used;
  /// Human-readable witness: "Modem::push -> helper -> tail_copy" for
  /// propagated functions, "" for seeds and cold functions.
  std::vector<std::vector<std::string>> chain;
};

/// Builds the cross-TU graph and runs seed propagation.
HotInfo propagate_hot(const std::vector<CallGraphTu>& tus);

}  // namespace aqua::lint

// aqua_lint rule engine: repo-invariant rule families over the symbol-graph
// IR built by lint/lexer.h -> lint/parser.h -> lint/callgraph.h.
//
// Per-file families (token/line level):
//
//   layering      #include "..." edges must follow the ARCHITECTURE.md layer
//                 DAG (obs interfaces < dsp < coding/phy/channel < core <
//                 obs impl < mac < sim). src/core/annotations.h is
//                 dependency-free and sits at the bottom with the obs
//                 interfaces.
//   pos-sub       unguarded size_t subtraction on sample-position
//                 identifiers (*_pos, *_base, abs_*): the PR 4 wraparound
//                 bug class. A comparison / std::min / std::max / assert
//                 mentioning an operand within the preceding 8 lines counts
//                 as a guard.
//   determinism   rand/srand, std::random_device, *_clock::now, time(),
//                 getenv() outside the sanctioned wall-clock file
//                 (src/obs/registry.h), and ranged-for over an unordered
//                 container whose body accumulates with +=.
//   float-narrow  float declarations in src/dsp and src/phy initialized
//                 from unsuffixed double literals or double-returning
//                 <cmath> calls without a visible conversion.
//   global-state  namespace-scope mutable non-atomic variables in src/
//                 (shared state the thousand-node sim cannot shard), and
//                 `thread_local` outside the sanctioned workspace /
//                 FFT-plan-cache files.
//
// Interprocedural families (require the project call graph; hotness seeds
// at functions taking a `Workspace&` and flows caller -> callee, so these
// fire in transitively-reached helpers too):
//
//   hot-alloc     `new` / make_unique / make_shared anywhere in
//                 dsp/phy/core; owning-container construction / growth
//                 and local Workspace arenas inside hot functions.
//                 Annotating a function definition with
//                 `// lint: hot-alloc-ok(reason)` exempts it from
//                 *inherited* hotness and stops propagation through it.
//   hot-throw     `throw` on the hot path: exceptions off the per-sample
//                 path mean a malformed packet can cost milliseconds in
//                 unwinding; validate at setup time instead.
//   lease-escape  a Workspace lease (Scratch*/acquire) or a span derived
//                 from it stored into a member/global, captured by
//                 reference in an escaping lambda, or returned — the arena
//                 reclaims the buffer when the lease dies, so every escape
//                 is a dangling view.
//   guarded-by    fields annotated AQUA_GUARDED_BY(m) (src/core/
//                 annotations.h) must only be touched in member functions
//                 that lock `m` first (lock_guard / scoped_lock /
//                 unique_lock / shared_lock / m.lock()).
//
// Findings print as `file:line:col: rule-id: message`; `--json` emits the
// schema in lint/json.h. Suppress a finding with a trailing or immediately
// preceding own-line comment:
//
//   // lint: alloc-ok(<reason>)      suppresses hot-alloc
//   // lint: throw-ok(<reason>)      suppresses hot-throw
//   // lint: lease-ok(<reason>)      suppresses lease-escape
//   // lint: guard-ok(<reason>)      suppresses guarded-by
//   // lint: global-ok(<reason>)     suppresses global-state
//   // lint: pos-sub-ok(<reason>)    suppresses pos-sub
//   // lint: det-ok(<reason>)        suppresses determinism
//   // lint: layer-ok(<reason>)      suppresses layering
//   // lint: narrow-ok(<reason>)     suppresses float-narrow
//
// The reason is mandatory; a suppression without one — or one that matches
// no finding — is itself reported (rule id `suppression`).
#pragma once

#include <string>
#include <string_view>
#include <vector>

#include "lint/json.h"

namespace aqua::lint {

/// Rule-family selection. An empty `rules` list enables everything; the
/// `suppression` and `io` meta-rules are always on.
struct LintOptions {
  std::vector<std::string> rules;

  bool enabled(std::string_view rule) const {
    if (rule == "suppression" || rule == "io") return true;
    if (rules.empty()) return true;
    for (const std::string& r : rules) {
      if (r == rule) return true;
    }
    return false;
  }
};

/// Lints one in-memory translation unit (the call graph spans just this
/// TU). `rel_path` (repo-relative, e.g. "src/phy/foo.cpp") selects the
/// layer and file sanctions; `display_path` is what findings print.
std::vector<Finding> lint_source(const std::string& display_path,
                                 const std::string& rel_path,
                                 std::string_view source,
                                 const LintOptions& options = {});

/// Lints a file on disk. The repo-relative path is derived from the last
/// "src/" component of `path`; a `// lint-as: src/...` comment in the
/// file's first lines overrides it (used by the fixture corpus).
std::vector<Finding> lint_file(const std::string& path,
                               const LintOptions& options = {});

/// Recursively collects every .h/.cpp under each path (plain files are
/// taken directly), builds the project-wide call graph across all of them,
/// and runs every enabled family. Returns findings sorted by
/// (file, line, col). Unreadable paths become findings with rule "io".
std::vector<Finding> lint_paths(const std::vector<std::string>& paths,
                                const LintOptions& options = {});

/// Human-readable rule table for --list-rules.
std::string rules_help();

}  // namespace aqua::lint

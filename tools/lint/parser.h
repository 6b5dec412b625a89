// Stage 2 of the aqua_lint pipeline: a lightweight declaration/function
// parser over the token stream from lint/lexer.h.
//
// This is a heuristic C++ symbol scanner, not a semantic front end. It
// recognizes exactly the shapes the rule families need:
//
//   - function definitions (free, member, out-of-line `Cls::f`, lambdas)
//     with their parameter-list and body token ranges, whether the
//     parameter list takes a `Workspace&` (the hot-path seed), and the
//     enclosing class;
//   - class/struct scopes, their field declarations (noting which have a
//     `std::` type), and fields annotated `AQUA_GUARDED_BY(mutex)`;
//   - namespace-scope variable declarations (for the global-state rule),
//     classified const/constexpr, atomic, static, thread_local;
//   - call sites inside each function body, by callee name with an
//     optional `Cls::` qualifier or `obj.` receiver, plus explicit
//     `// lint-call: <name>`
//     escape-hatch edges for calls the heuristic cannot see (function
//     pointers, virtual dispatch, macro-hidden calls).
//
// The per-TU SymbolTable feeds lint/callgraph.h, which links tables across
// the project and propagates hot-path reachability.
#pragma once

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

#include "lint/lexer.h"

namespace aqua::lint {

constexpr std::size_t kNpos = static_cast<std::size_t>(-1);

/// For every opener token index, the index of its matching closer (and the
/// reverse). Parens, braces and brackets share one stack; mismatches (macro
/// tricks) leave entries unmatched, which the rules treat as "unknown".
struct Matches {
  std::vector<std::size_t> close_of;  ///< opener index -> closer (or kNpos)
  std::vector<std::size_t> open_of;   ///< closer index -> opener (or kNpos)
};

Matches match_pairs(const std::vector<Token>& toks);

inline bool is_punct(const Token& t, std::string_view p) {
  return t.kind == Tok::kPunct && t.text == p;
}

inline bool is_ident(const Token& t, std::string_view w) {
  return t.kind == Tok::kIdent && t.text == w;
}

/// Walks a `<`...`>` template argument list starting at the `<` token
/// index; returns the index one past the closing `>`, treating ">>" as two
/// closes. Returns `start` unchanged if this does not look like template
/// arguments.
std::size_t skip_template_args(const std::vector<Token>& toks,
                               std::size_t start);

/// A function definition (with a body) found in the TU.
struct FunctionSym {
  std::string name;        ///< unqualified name ("<lambda>" for lambdas)
  std::string class_name;  ///< enclosing class or `Cls::` qualifier; ""=free
  std::size_t name_tok = kNpos;    ///< token index of the name (kNpos: lambda)
  std::size_t params_open = kNpos;   ///< `(` token index (kNpos: none)
  std::size_t params_close = kNpos;  ///< `)` token index
  std::size_t body_open = kNpos;     ///< `{` token index
  std::size_t body_close = kNpos;    ///< `}` token index
  int line = 0;                      ///< definition line (name or `{`)
  int col = 0;
  bool takes_workspace = false;  ///< parameter list contains `Workspace&`
  bool is_lambda = false;
  bool is_ctor_or_dtor = false;
  std::size_t parent = kNpos;  ///< enclosing FunctionSym index (lambdas)
};

/// A class field annotated `AQUA_GUARDED_BY(mutex)`.
struct GuardedFieldSym {
  std::string class_name;
  std::string field;
  std::string mutex_name;
  int line = 0;
  int col = 0;
};

/// A class field declaration. When its type is spelled `std::...`, as in
/// `std::optional<Det> pending_;`, a call on it (`pending_.reset()`) is a
/// library call, never one of the project's functions.
struct FieldSym {
  std::string class_name;
  std::string field;
  bool std_type = false;
};

/// A call site inside a function body: `callee(...)`, `Cls::callee(...)`,
/// `obj.callee(...)`, or an explicit `// lint-call: callee` edge.
struct CallSiteSym {
  std::size_t caller = kNpos;  ///< index into SymbolTable::functions
  std::string callee;          ///< unqualified callee name
  std::string qualifier;       ///< `X::callee` qualifier (class or ns), or ""
  bool member_call = false;    ///< spelled `obj.callee(` / `ptr->callee(`
  /// `obj` in `obj.callee(`, `this->obj.callee(` or `x.obj.callee(`, else
  /// "". Not recorded through `->`: a pointer's pointee type is unknown.
  std::string receiver;
  /// The receiver is a field of another object (`x.obj.callee(`), not of
  /// the caller's own class.
  bool receiver_nested = false;
  bool explicit_edge = false;  ///< from a `// lint-call:` comment
  int line = 0;
  int col = 0;
};

/// A namespace-scope (file-scope) variable declaration.
struct GlobalSym {
  std::string name;
  int line = 0;
  int col = 0;
  bool is_static = false;
  bool is_thread_local = false;
  bool is_const = false;   ///< const or constexpr (immutable)
  bool is_atomic = false;  ///< declared type mentions std::atomic
  bool is_extern = false;  ///< pure declaration, storage elsewhere
};

/// A `thread_local` keyword occurrence (any scope).
struct ThreadLocalSym {
  int line = 0;
  int col = 0;
};

struct SymbolTable {
  std::vector<FunctionSym> functions;
  std::vector<GuardedFieldSym> guarded_fields;
  std::vector<FieldSym> fields;
  std::vector<CallSiteSym> calls;
  std::vector<GlobalSym> globals;
  std::vector<ThreadLocalSym> thread_locals;

  /// Index of the innermost function whose body spans token `tok`, or
  /// kNpos. Lambdas win over their enclosing function.
  std::size_t enclosing_function(std::size_t tok) const;

  /// Filled by parse_symbols: token index -> innermost FunctionSym index.
  std::vector<std::size_t> owner_;
};

/// Builds the symbol table for one TU. `comments` supplies the
/// `// lint-call:` explicit call edges.
SymbolTable parse_symbols(const std::vector<Token>& toks, const Matches& m,
                          const std::vector<Comment>& comments);

}  // namespace aqua::lint

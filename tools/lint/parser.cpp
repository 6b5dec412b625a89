#include "lint/parser.h"

#include <unordered_set>

namespace aqua::lint {

namespace {

// Statement-like keywords that look like `name (...)` but are not calls or
// function definitions.
const std::unordered_set<std::string_view> kControlKeywords = {
    "if",     "for",      "while",    "switch",        "catch",
    "noexcept", "return", "sizeof",   "alignof",       "decltype",
    "static_assert",      "assert",   "alignas",       "throw",
    "new",    "delete",   "operator", "static_cast",   "dynamic_cast",
    "const_cast",         "reinterpret_cast",          "typeid",
    "co_return", "co_await", "co_yield",
};

// Namespaces whose qualified calls must never resolve into the project:
// `std::max(...)` is not an edge to a project function named `max`.
const std::unordered_set<std::string_view> kForeignNamespaces = {
    "std", "chrono", "filesystem", "this_thread", "numbers", "ranges",
    "literals",
};

// Identifiers that open a class-body statement which declares no field
// and need not hold a `(` (class heads are consumed before the field scan).
const std::unordered_set<std::string_view> kNonFieldHeads = {
    "public", "private", "protected", "using", "typedef", "friend",
    "template",
};

// Specifiers that may precede a field's type.
const std::unordered_set<std::string_view> kDeclSpecifiers = {
    "mutable", "static", "const", "constexpr", "inline", "volatile",
    "thread_local",
};

bool params_take_workspace(const std::vector<Token>& toks, std::size_t open,
                           std::size_t close) {
  for (std::size_t i = open + 1; i + 1 < close; ++i) {
    if (is_ident(toks[i], "Workspace") && is_punct(toks[i + 1], "&")) {
      return true;
    }
  }
  return false;
}

enum class ScopeKind { kNamespace, kClass, kFunction, kBlock };

struct Scope {
  std::size_t open = kNpos;
  std::size_t close = kNpos;
  ScopeKind kind = ScopeKind::kBlock;
  std::string_view class_name;  ///< for kClass
  std::size_t fn = kNpos;       ///< FunctionSym index for kFunction
};

// Walks backwards from a `{` over a ctor member-initializer list
// (`: a_(x), b_{y} {`) so the qualifier/param walk below lands on the
// parameter list's `)`. Returns the token index just past the list (i.e.
// pointing at the `:`'s predecessor) or `i` unchanged.
std::size_t skip_member_init_list(const std::vector<Token>& toks,
                                  const Matches& m, std::size_t i) {
  std::size_t j = i;
  while (j > 0 &&
         (is_punct(toks[j - 1], ")") || is_punct(toks[j - 1], "}"))) {
    const std::size_t open = m.open_of[j - 1];
    if (open == kNpos || open == 0) break;
    if (toks[open - 1].kind != Tok::kIdent) break;
    const std::size_t member = open - 1;
    if (member == 0) break;
    const Token& sep = toks[member - 1];
    if (is_punct(sep, ",")) {
      j = member - 1;  // previous initializer's closer
    } else if (is_punct(sep, ":")) {
      return member - 1;  // past the `:` — j - 1 is the param list `)`
    } else {
      break;
    }
  }
  return i;
}

}  // namespace

std::size_t skip_template_args(const std::vector<Token>& toks,
                               std::size_t start) {
  if (start >= toks.size() || !is_punct(toks[start], "<")) return start;
  int depth = 0;
  for (std::size_t i = start; i < toks.size(); ++i) {
    if (toks[i].kind != Tok::kPunct) continue;
    if (toks[i].text == "<") ++depth;
    if (toks[i].text == ">") {
      if (--depth == 0) return i + 1;
    }
    if (toks[i].text == ">>") {
      depth -= 2;
      if (depth <= 0) return i + 1;
    }
    if (toks[i].text == ";" || toks[i].text == "{") return start;  // not args
  }
  return start;
}

Matches match_pairs(const std::vector<Token>& toks) {
  Matches m;
  m.close_of.assign(toks.size(), kNpos);
  m.open_of.assign(toks.size(), kNpos);
  std::vector<std::size_t> stack;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (toks[i].kind != Tok::kPunct) continue;
    const std::string_view t = toks[i].text;
    if (t == "(" || t == "{" || t == "[") {
      stack.push_back(i);
    } else if (t == ")" || t == "}" || t == "]") {
      const char want = t == ")" ? '(' : (t == "}" ? '{' : '[');
      // Pop until the matching opener kind (tolerates unbalanced input).
      while (!stack.empty() && toks[stack.back()].text[0] != want) {
        stack.pop_back();
      }
      if (!stack.empty()) {
        m.close_of[stack.back()] = i;
        m.open_of[i] = stack.back();
        stack.pop_back();
      }
    }
  }
  return m;
}

std::size_t SymbolTable::enclosing_function(std::size_t tok) const {
  if (tok < owner_.size()) return owner_[tok];
  return kNpos;
}

SymbolTable parse_symbols(const std::vector<Token>& toks, const Matches& m,
                          const std::vector<Comment>& comments) {
  SymbolTable out;
  std::vector<Scope> scopes;

  // Name of the most recent `class`/`struct`/`union` head awaiting its `{`.
  std::string_view pending_class;

  const auto innermost_class = [&]() -> std::string_view {
    for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
      if (it->kind == ScopeKind::kClass) return it->class_name;
      if (it->kind == ScopeKind::kFunction) break;  // local scope shadows
    }
    return {};
  };

  const auto innermost_function = [&]() -> std::size_t {
    for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
      if (it->kind == ScopeKind::kFunction) return it->fn;
      if (it->kind == ScopeKind::kClass) break;  // methods of a local class
    }
    return kNpos;
  };

  // ---- Pass 1: scopes, functions, guarded fields, thread_local sites ----
  for (std::size_t i = 0; i < toks.size(); ++i) {
    while (!scopes.empty() && i > scopes.back().close) scopes.pop_back();
    const Token& t = toks[i];

    if (is_ident(t, "thread_local")) {
      out.thread_locals.push_back({t.line, t.col});
    }

    if (t.kind == Tok::kIdent &&
        (t.text == "class" || t.text == "struct" || t.text == "union" ||
         t.text == "enum") &&
        i + 1 < toks.size()) {
      // `enum class X`, `class X`, `struct X : Base` — remember the head
      // name until its `{` (or a `;` kills it: forward declaration).
      std::size_t name_at = i + 1;
      if (is_ident(toks[name_at], "class") ||
          is_ident(toks[name_at], "struct")) {
        ++name_at;  // enum class X
      }
      if (name_at < toks.size() && toks[name_at].kind == Tok::kIdent) {
        pending_class = toks[name_at].text;
      } else if (t.text != "enum") {
        pending_class = "<anon>";  // anonymous struct/union
      }
      continue;
    }
    if (is_punct(t, ";")) {
      pending_class = {};
      continue;
    }

    // Guarded fields: `Type name_ AQUA_GUARDED_BY(mu_);` directly inside a
    // class body.
    if (is_ident(t, "AQUA_GUARDED_BY") && i + 2 < toks.size() &&
        is_punct(toks[i + 1], "(") && i > 0 &&
        toks[i - 1].kind == Tok::kIdent) {
      const std::string_view cls = innermost_class();
      if (!cls.empty() && innermost_function() == kNpos) {
        std::string_view mu;
        const std::size_t close = m.close_of[i + 1];
        for (std::size_t j = i + 2; j < close && j < toks.size(); ++j) {
          if (toks[j].kind == Tok::kIdent) {
            mu = toks[j].text;
            break;
          }
        }
        if (!mu.empty()) {
          out.guarded_fields.push_back({std::string(cls),
                                        std::string(toks[i - 1].text),
                                        std::string(mu), t.line, t.col});
        }
      }
      continue;
    }

    // Field declarations: `[mutable|static|...] Type name_ [= init];` at the
    // start of a statement directly inside a class body. A `(` outside
    // template arguments makes it a member function instead.
    if (t.kind == Tok::kIdent && !kNonFieldHeads.contains(t.text) && i > 0 &&
        (is_punct(toks[i - 1], ";") || is_punct(toks[i - 1], "{") ||
         is_punct(toks[i - 1], "}") || is_punct(toks[i - 1], ":")) &&
        !innermost_class().empty() && innermost_function() == kNpos) {
      std::size_t j = i;
      while (j < toks.size() && kDeclSpecifiers.contains(toks[j].text)) ++j;
      FieldSym field;
      field.class_name = std::string(innermost_class());
      field.std_type = j + 1 < toks.size() && is_ident(toks[j], "std") &&
                       is_punct(toks[j + 1], "::");
      for (; j < toks.size(); ++j) {
        const Token& d = toks[j];
        if (is_punct(d, "<")) {
          const std::size_t past = skip_template_args(toks, j);
          if (past != j) j = past - 1;
          continue;
        }
        if (is_punct(d, "(")) {
          field.field.clear();
          break;
        }
        if (is_punct(d, ";") || is_punct(d, "=") || is_punct(d, "{") ||
            is_punct(d, "}") || is_punct(d, "[") || is_punct(d, ":") ||
            is_punct(d, ",") || is_ident(d, "AQUA_GUARDED_BY")) {
          break;
        }
        if (d.kind == Tok::kIdent) field.field = std::string(d.text);
      }
      if (!field.field.empty()) out.fields.push_back(std::move(field));
    }

    if (!is_punct(t, "{")) continue;
    const std::size_t close = m.close_of[i];
    if (close == kNpos) continue;

    Scope sc;
    sc.open = i;
    sc.close = close;

    // namespace [A[::B]] {
    {
      std::size_t j = i;
      while (j > 0 && (toks[j - 1].kind == Tok::kIdent ||
                       is_punct(toks[j - 1], "::"))) {
        --j;
        if (is_ident(toks[j], "namespace")) break;
      }
      if (j < i && is_ident(toks[j], "namespace")) {
        sc.kind = ScopeKind::kNamespace;
        scopes.push_back(sc);
        continue;
      }
      if (j > 0 && is_ident(toks[j - 1], "namespace")) {
        sc.kind = ScopeKind::kNamespace;  // anonymous namespace
        scopes.push_back(sc);
        continue;
      }
    }

    if (!pending_class.empty()) {
      sc.kind = ScopeKind::kClass;
      sc.class_name = pending_class;
      pending_class = {};
      scopes.push_back(sc);
      continue;
    }

    // Function-definition shapes. Walk back over a ctor initializer list,
    // then trailing qualifiers/return types, to the parameter list `)`.
    std::size_t j = skip_member_init_list(toks, m, i);
    const bool had_init_list = j != i;
    while (j > 0) {
      const Token& p = toks[j - 1];
      if (p.kind == Tok::kIdent || is_punct(p, "::") || is_punct(p, "<") ||
          is_punct(p, ">") || is_punct(p, ">>") || is_punct(p, "&") ||
          is_punct(p, "&&") || is_punct(p, "*") || is_punct(p, "->")) {
        --j;
        continue;
      }
      break;
    }

    FunctionSym fn;
    bool is_function = false;
    if (j > 0 && is_punct(toks[j - 1], ")") && m.open_of[j - 1] != kNpos) {
      const std::size_t open = m.open_of[j - 1];
      fn.params_open = open;
      fn.params_close = j - 1;
      if (open > 0 && toks[open - 1].kind == Tok::kIdent) {
        const std::string_view name = toks[open - 1].text;
        if (!kControlKeywords.contains(name)) {
          is_function = true;
          fn.name = std::string(name);
          fn.name_tok = open - 1;
          fn.line = toks[open - 1].line;
          fn.col = toks[open - 1].col;
          if (open > 1 && is_punct(toks[open - 2], "~")) {
            fn.is_ctor_or_dtor = true;
          }
          if (open > 2 && is_punct(toks[open - 2], "::") &&
              toks[open - 3].kind == Tok::kIdent) {
            fn.class_name = std::string(toks[open - 3].text);
            if (toks[open - 3].text == name) fn.is_ctor_or_dtor = true;
          } else if (const std::string_view cls = innermost_class();
                     !cls.empty()) {
            fn.class_name = std::string(cls);
            if (cls == name) fn.is_ctor_or_dtor = true;
          }
          if (had_init_list) fn.is_ctor_or_dtor = true;
          if (!fn.is_ctor_or_dtor) {
            fn.takes_workspace =
                params_take_workspace(toks, open, j - 1);
          }
        }
      } else if (open > 0 && is_punct(toks[open - 1], "]")) {
        is_function = true;
        fn.is_lambda = true;
        fn.name = "<lambda>";
        fn.line = toks[open - 1].line;
        fn.col = toks[open - 1].col;
        fn.takes_workspace = params_take_workspace(toks, open, j - 1);
      }
    } else if (j > 0 && is_punct(toks[j - 1], "]") && j == i) {
      is_function = true;  // capture-only lambda: `[&] { ... }`
      fn.is_lambda = true;
      fn.name = "<lambda>";
      fn.line = toks[j - 1].line;
      fn.col = toks[j - 1].col;
    }

    if (is_function) {
      sc.kind = ScopeKind::kFunction;
      fn.body_open = i;
      fn.body_close = close;
      fn.parent = innermost_function();
      if (fn.line == 0) {
        fn.line = t.line;
        fn.col = t.col;
      }
      sc.fn = out.functions.size();
      out.functions.push_back(fn);
    } else {
      sc.kind = ScopeKind::kBlock;
    }
    scopes.push_back(sc);
  }

  // ---- Pass 2: token -> innermost enclosing function ----
  out.owner_.assign(toks.size(), kNpos);
  for (std::size_t f = 0; f < out.functions.size(); ++f) {
    const FunctionSym& fn = out.functions[f];
    if (fn.body_open == kNpos || fn.body_close == kNpos) continue;
    // Later (inner) functions overwrite their enclosing function's claim.
    for (std::size_t k = fn.body_open; k <= fn.body_close; ++k) {
      out.owner_[k] = f;
    }
  }

  // ---- Pass 3: namespace-scope variable declarations ----
  {
    scopes.clear();
    std::vector<std::size_t> stmt;  // token indices of the current statement
    bool stmt_poisoned = false;     // contains a shape that is not a decl

    const auto flush = [&](bool terminated_by_semi) {
      if (!terminated_by_semi || stmt_poisoned || stmt.size() < 2) {
        stmt.clear();
        stmt_poisoned = false;
        return;
      }
      GlobalSym g;
      bool skip = false;
      std::size_t eq = kNpos;
      for (std::size_t si = 0; si < stmt.size(); ++si) {
        const Token& st = toks[stmt[si]];
        if (st.kind == Tok::kIdent) {
          if (st.text == "using" || st.text == "typedef" ||
              st.text == "template" || st.text == "friend" ||
              st.text == "operator" || st.text == "static_assert" ||
              st.text == "class" || st.text == "struct" ||
              st.text == "union" || st.text == "enum" ||
              st.text == "namespace") {
            skip = true;
            break;
          }
          if (st.text == "static") g.is_static = true;
          if (st.text == "thread_local") g.is_thread_local = true;
          if (st.text == "const" || st.text == "constexpr" ||
              st.text == "constinit") {
            g.is_const = true;
          }
          if (st.text == "atomic" || st.text == "atomic_flag" ||
              st.text == "mutex" || st.text == "shared_mutex" ||
              st.text == "once_flag") {
            // Synchronization primitives are themselves thread-safe state.
            g.is_atomic = true;
          }
          if (st.text == "extern") g.is_extern = true;
        } else if (toks[stmt[si]].kind == Tok::kPunct) {
          if (toks[stmt[si]].text == "=" && eq == kNpos) eq = si;
          // A paren before any `=` means function declaration/definition
          // (or a ctor-style init, which this heuristic cedes).
          if (toks[stmt[si]].text == "(" && eq == kNpos) {
            skip = true;
            break;
          }
        }
      }
      if (!skip && !g.is_extern) {
        // Declared name: last identifier before `=` (or before the
        // terminating `;` for brace/default init).
        const std::size_t limit = eq == kNpos ? stmt.size() : eq;
        for (std::size_t si = limit; si-- > 0;) {
          const Token& st = toks[stmt[si]];
          if (st.kind == Tok::kIdent && !is_ident(st, "const") &&
              !is_ident(st, "constexpr")) {
            g.name = std::string(st.text);
            g.line = st.line;
            g.col = st.col;
            break;
          }
        }
        if (!g.name.empty()) out.globals.push_back(g);
      }
      stmt.clear();
      stmt_poisoned = false;
    };

    for (std::size_t i = 0; i < toks.size(); ++i) {
      while (!scopes.empty() && i > scopes.back().close) scopes.pop_back();
      const Token& t = toks[i];
      const bool ns_scope = [&] {
        for (auto it = scopes.rbegin(); it != scopes.rend(); ++it) {
          return it->kind == ScopeKind::kNamespace;
        }
        return true;
      }();

      if (is_punct(t, "{") && m.close_of[i] != kNpos) {
        Scope sc;
        sc.open = i;
        sc.close = m.close_of[i];
        // Namespace re-detection (same shape as pass 1); everything else
        // is an opaque body for statement purposes.
        std::size_t j = i;
        while (j > 0 && (toks[j - 1].kind == Tok::kIdent ||
                         is_punct(toks[j - 1], "::"))) {
          --j;
          if (is_ident(toks[j], "namespace")) break;
        }
        const bool is_ns =
            (j < i && is_ident(toks[j], "namespace")) ||
            (j > 0 && is_ident(toks[j - 1], "namespace"));
        sc.kind = is_ns ? ScopeKind::kNamespace : ScopeKind::kBlock;
        if (is_ns) {
          flush(false);  // `namespace X {` is not a declaration
        } else if (ns_scope) {
          // Opaque body inside a namespace-scope statement: skip it whole.
          // Brace-initializers keep the statement alive; function/class
          // bodies poison it via their `(`/keyword tokens already seen.
          i = sc.close;
          continue;
        }
        scopes.push_back(sc);
        continue;
      }

      if (!ns_scope) continue;
      if (t.kind == Tok::kPreproc) {
        flush(false);
        continue;
      }
      if (is_punct(t, ";")) {
        flush(true);
        continue;
      }
      if (is_punct(t, "}")) {
        flush(false);
        continue;
      }
      stmt.push_back(i);
    }
    flush(false);
  }

  // ---- Pass 4: call sites ----
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Tok::kIdent) continue;
    const std::size_t caller = out.enclosing_function(i);
    if (caller == kNpos) continue;
    if (kControlKeywords.contains(t.text)) continue;

    // `name(` or `name<...>(`
    std::size_t after = i + 1;
    if (is_punct(toks[after], "<")) {
      const std::size_t skipped = skip_template_args(toks, after);
      if (skipped == after) continue;
      after = skipped;
    }
    if (after >= toks.size() || !is_punct(toks[after], "(")) continue;

    CallSiteSym cs;
    cs.caller = caller;
    cs.callee = std::string(t.text);
    cs.line = t.line;
    cs.col = t.col;
    if (i > 0) {
      const Token& p = toks[i - 1];
      if (is_ident(p, "new")) continue;  // ctor call via new: not an edge
      if (is_punct(p, ".") || is_punct(p, "->")) {
        cs.member_call = true;
        // `obj.callee(`, `this->obj.callee(` or `x.obj.callee(`.
        if (is_punct(p, ".") && i > 1 && toks[i - 2].kind == Tok::kIdent &&
            !(i > 2 && is_punct(toks[i - 3], "::"))) {
          cs.receiver = std::string(toks[i - 2].text);
          cs.receiver_nested =
              i > 2 && (is_punct(toks[i - 3], ".") ||
                        (is_punct(toks[i - 3], "->") &&
                         !(i > 3 && is_ident(toks[i - 4], "this"))));
        }
      } else if (is_punct(p, "::") && i > 1 &&
                 toks[i - 2].kind == Tok::kIdent) {
        if (kForeignNamespaces.contains(toks[i - 2].text)) continue;
        cs.qualifier = std::string(toks[i - 2].text);
      }
    }
    out.calls.push_back(std::move(cs));
  }

  // Explicit `// lint-call: Name` / `// lint-call: Cls::Name` edges.
  for (const Comment& c : comments) {
    const std::size_t at = c.text.find("lint-call:");
    if (at == std::string_view::npos) continue;
    std::string_view rest = c.text.substr(at + 10);
    while (!rest.empty() && (rest.front() == ' ' || rest.front() == '\t')) {
      rest.remove_prefix(1);
    }
    std::size_t end = 0;
    while (end < rest.size() &&
           (std::isalnum(static_cast<unsigned char>(rest[end])) ||
            rest[end] == '_' || rest[end] == ':')) {
      ++end;
    }
    std::string_view name = rest.substr(0, end);
    if (name.empty()) continue;
    CallSiteSym cs;
    cs.explicit_edge = true;
    cs.line = c.line;
    cs.col = c.col;
    const std::size_t sep = name.rfind("::");
    if (sep != std::string_view::npos) {
      cs.qualifier = std::string(name.substr(0, sep));
      cs.callee = std::string(name.substr(sep + 2));
    } else {
      cs.callee = std::string(name);
    }
    // Attribute to the innermost function whose body spans the comment's
    // line (explicit edges inside no function are ignored).
    std::size_t best = kNpos;
    for (std::size_t f = 0; f < out.functions.size(); ++f) {
      const FunctionSym& fn = out.functions[f];
      if (fn.body_open == kNpos || fn.body_close == kNpos) continue;
      const int lo = toks[fn.body_open].line;
      const int hi = toks[fn.body_close].line;
      if (c.line < lo || c.line > hi) continue;
      if (best == kNpos ||
          toks[fn.body_open].line >= toks[out.functions[best].body_open].line) {
        best = f;
      }
    }
    if (best == kNpos) continue;
    cs.caller = best;
    out.calls.push_back(std::move(cs));
  }

  return out;
}

}  // namespace aqua::lint

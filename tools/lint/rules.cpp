#include "lint/rules.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <memory>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "lint/callgraph.h"
#include "lint/lexer.h"
#include "lint/parser.h"

namespace aqua::lint {

namespace {

// ---------------------------------------------------------------------------
// Layer model (docs/ARCHITECTURE.md "Layer map"). A file may include its own
// layer and any layer in its allowed set. src/obs splits at file granularity:
// the dependency-free interfaces (sink.h, registry.h/.cpp) sit below dsp,
// the trace/replay implementations sit above core. src/core/annotations.h
// (the AQUA_GUARDED_BY no-op macros) is dependency-free by construction and
// sits at the bottom with the obs interfaces so every layer may include it.
// ---------------------------------------------------------------------------
enum Layer : unsigned {
  kObsIface = 0,
  kDsp,
  kCoding,
  kPhy,
  kChannel,
  kCore,
  kObsImpl,
  kMac,
  kSim,
  kLayerCount,
  kUnknownLayer,
};

constexpr const char* kLayerNames[kLayerCount] = {
    "obs interfaces", "dsp", "coding", "phy", "channel",
    "core",           "obs", "mac",    "sim",
};

constexpr unsigned bit(Layer l) { return 1u << l; }

// allowed_deps[from] = bitmask of layers `from` may include (self-layer is
// always allowed and not listed).
constexpr unsigned kAllowedDeps[kLayerCount] = {
    /*obs ifaces*/ 0,
    /*dsp*/ bit(kObsIface),
    /*coding*/ bit(kDsp) | bit(kObsIface),
    /*phy*/ bit(kDsp) | bit(kCoding) | bit(kObsIface),
    /*channel*/ bit(kDsp) | bit(kObsIface),
    /*core*/ bit(kDsp) | bit(kCoding) | bit(kPhy) | bit(kChannel) |
        bit(kObsIface),
    /*obs impl*/ bit(kCore) | bit(kDsp) | bit(kCoding) | bit(kPhy) |
        bit(kChannel) | bit(kObsIface),
    /*mac*/ bit(kObsImpl) | bit(kCore) | bit(kDsp) | bit(kCoding) |
        bit(kPhy) | bit(kChannel) | bit(kObsIface),
    /*sim*/ bit(kObsImpl) | bit(kCore) | bit(kDsp) | bit(kCoding) |
        bit(kPhy) | bit(kChannel) | bit(kObsIface) | bit(kMac),
};

Layer layer_of(std::string_view rel) {
  if (rel == "src/core/annotations.h") return kObsIface;
  if (!rel.starts_with("src/")) return kUnknownLayer;
  rel.remove_prefix(4);
  const std::size_t slash = rel.find('/');
  if (slash == std::string_view::npos) return kUnknownLayer;
  const std::string_view dir = rel.substr(0, slash);
  const std::string_view file = rel.substr(slash + 1);
  if (dir == "dsp") return kDsp;
  if (dir == "coding") return kCoding;
  if (dir == "phy") return kPhy;
  if (dir == "channel") return kChannel;
  if (dir == "core") return kCore;
  if (dir == "mac") return kMac;
  if (dir == "sim") return kSim;
  if (dir == "obs") {
    if (file == "sink.h" || file == "registry.h" || file == "registry.cpp") {
      return kObsIface;
    }
    return kObsImpl;
  }
  return kUnknownLayer;
}

bool may_include(Layer from, Layer to) {
  if (from == kUnknownLayer || to == kUnknownLayer) return true;
  if (from == to) return true;
  return (kAllowedDeps[from] & bit(to)) != 0;
}

std::string allowed_list(Layer from) {
  std::string out;
  for (unsigned l = 0; l < kLayerCount; ++l) {
    if (kAllowedDeps[from] & (1u << l)) {
      if (!out.empty()) out += ", ";
      out += kLayerNames[l];
    }
  }
  return out.empty() ? "nothing outside its own layer" : out;
}

// ---------------------------------------------------------------------------
// Suppressions: `// lint: <id>-ok(reason)`. A suppression covers its own
// line, plus the next line when the comment stands alone on its line.
// `hot-alloc-ok` on a function definition is special: it exempts the whole
// function from *inherited* hotness (lint/callgraph.h stops propagation
// there) and is tracked under the internal rule id "hot-fn-exempt".
// ---------------------------------------------------------------------------
struct Suppression {
  int line = 0;
  bool own_line = false;
  std::string rule;  // rule id the suppression applies to
  std::string reason;
  bool used = false;
};

constexpr std::pair<std::string_view, std::string_view> kSuppressionIds[] = {
    {"hot-alloc-ok", "hot-fn-exempt"},
    {"alloc-ok", "hot-alloc"},
    {"throw-ok", "hot-throw"},
    {"lease-ok", "lease-escape"},
    {"guard-ok", "guarded-by"},
    {"global-ok", "global-state"},
    {"pos-sub-ok", "pos-sub"},
    {"det-ok", "determinism"},
    {"layer-ok", "layering"},
    {"narrow-ok", "float-narrow"},
};

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() &&
         (s.back() == ' ' || s.back() == '\t' || s.back() == '\r')) {
    s.remove_suffix(1);
  }
  return s;
}

// ---------------------------------------------------------------------------
// Per-TU state. Token string_views point into `source`, so a Tu is kept
// behind a unique_ptr and never relocated after lexing.
// ---------------------------------------------------------------------------
struct Tu {
  std::string file;  // display path (printed in findings)
  std::string rel;   // repo-relative path (layer / sanction selection)
  Layer layer = kUnknownLayer;
  std::string source;
  std::string blanked;                  // source with comment bytes blanked
  std::vector<std::string_view> lines;  // 0-based views into `blanked`
  LexResult lx;
  Matches m;
  SymbolTable sym;
  std::vector<Suppression> sups;
  std::vector<char> fn_exempt;             // per-function hot-alloc-ok
  std::vector<std::size_t> fn_exempt_sup;  // function -> suppression index
};

struct Ctx {
  Tu& tu;
  const LintOptions& opts;
  std::vector<Finding>& out;

  bool suppressed(std::string_view rule, int line) {
    for (Suppression& s : tu.sups) {
      if (s.rule != rule) continue;
      if (s.line == line || (s.own_line && s.line + 1 == line)) {
        s.used = true;
        return true;
      }
    }
    return false;
  }

  void report(int line, int col, std::string_view rule, std::string message) {
    if (!opts.enabled(rule)) return;
    if (suppressed(rule, line)) return;
    out.push_back({tu.file, line, col, std::string(rule),
                   std::move(message)});
  }

  std::string_view line_text(int line) const {
    if (line < 1 || line > static_cast<int>(tu.lines.size())) return {};
    return tu.lines[static_cast<std::size_t>(line - 1)];
  }
};

// Blanks comment bytes with spaces using the lexer's byte ranges — the
// lexer already walked raw strings correctly, so unlike a character-level
// re-scan this cannot mistake `//` inside a multi-line raw string for a
// comment (the bug that shifted every position after such a literal).
// Newlines are preserved so line numbering is unchanged.
std::string blank_comments(std::string_view src,
                           const std::vector<Comment>& comments) {
  std::string out(src);
  for (const Comment& c : comments) {
    for (std::size_t i = c.begin; i < c.end && i < out.size(); ++i) {
      if (out[i] != '\n') out[i] = ' ';
    }
  }
  return out;
}

void split_lines(std::string_view src, std::vector<std::string_view>& lines) {
  std::size_t start = 0;
  for (std::size_t i = 0; i <= src.size(); ++i) {
    if (i == src.size() || src[i] == '\n') {
      lines.push_back(src.substr(start, i - start));
      start = i + 1;
    }
  }
}

void parse_suppressions(Ctx& ctx) {
  for (const Comment& c : ctx.tu.lx.comments) {
    const std::size_t at = c.text.find("lint:");
    if (at == std::string_view::npos) continue;
    std::string_view rest = trim(c.text.substr(at + 5));
    std::string_view rule;
    for (const auto& [id, mapped] : kSuppressionIds) {
      if (rest.starts_with(id)) {
        rule = mapped;
        rest.remove_prefix(id.size());
        break;
      }
    }
    if (rule.empty()) {
      ctx.report(c.line, c.col, "suppression",
                 "unknown suppression id; expected one of hot-alloc-ok, "
                 "alloc-ok, throw-ok, lease-ok, guard-ok, global-ok, "
                 "pos-sub-ok, det-ok, layer-ok, narrow-ok");
      continue;
    }
    rest = trim(rest);
    if (!rest.starts_with("(") || rest.find(')') == std::string_view::npos) {
      ctx.report(c.line, c.col, "suppression",
                 "suppression for '" + std::string(rule) +
                     "' must carry a reason: use the form "
                     "<id>-ok(<reason>)");
      continue;
    }
    const std::string_view reason = trim(rest.substr(1, rest.rfind(')') - 1));
    if (reason.empty()) {
      ctx.report(c.line, c.col, "suppression",
                 "suppression reason must not be empty; write what makes "
                 "this site safe");
      continue;
    }
    ctx.tu.sups.push_back(
        {c.line, c.own_line, std::string(rule), std::string(reason)});
  }
}

// Binds `hot-alloc-ok` suppressions to the function definitions they sit
// on, so lint/callgraph.h can stop hot propagation there.
void bind_function_exemptions(Tu& tu) {
  tu.fn_exempt.assign(tu.sym.functions.size(), 0);
  tu.fn_exempt_sup.assign(tu.sym.functions.size(), kNpos);
  for (std::size_t f = 0; f < tu.sym.functions.size(); ++f) {
    const FunctionSym& fn = tu.sym.functions[f];
    for (std::size_t s = 0; s < tu.sups.size(); ++s) {
      const Suppression& sup = tu.sups[s];
      if (sup.rule != "hot-fn-exempt") continue;
      if (sup.line == fn.line || (sup.own_line && sup.line + 1 == fn.line)) {
        tu.fn_exempt[f] = 1;
        tu.fn_exempt_sup[f] = s;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Hot-path helpers over the propagated call graph.
// ---------------------------------------------------------------------------
std::string fn_display(const FunctionSym& f) {
  if (f.is_lambda) return "<lambda>";
  if (f.class_name.empty()) return f.name;
  return f.class_name + "::" + f.name;
}

// Token-level hot mask: every token inside the body of a hot function.
// Nested lambdas are separate FunctionSyms but hot via their parent edge,
// so their tokens are covered either way.
std::vector<char> hot_token_mask(const Tu& tu,
                                 const std::vector<char>& fn_hot) {
  std::vector<char> mask(tu.lx.tokens.size(), 0);
  for (std::size_t f = 0; f < tu.sym.functions.size(); ++f) {
    if (!fn_hot[f]) continue;
    const FunctionSym& fn = tu.sym.functions[f];
    if (fn.body_open == kNpos || fn.body_close == kNpos) continue;
    for (std::size_t i = fn.body_open; i <= fn.body_close; ++i) mask[i] = 1;
  }
  return mask;
}

// " [hot path: seed -> ... -> fn]" when the token's function gained its
// hotness interprocedurally; "" for seeds (their signature says it all).
std::string hot_context(const Tu& tu,
                        const std::vector<std::string>& chains,
                        std::size_t tok) {
  const std::size_t f = tu.sym.enclosing_function(tok);
  if (f == kNpos || f >= chains.size() || chains[f].empty()) return "";
  return " [hot path: " + chains[f] + "]";
}

const std::unordered_set<std::string_view> kStmtKeywords = {
    "if", "for", "while", "switch", "catch", "noexcept", "return",
    "sizeof", "alignof", "decltype", "static_assert",
};

// ---------------------------------------------------------------------------
// Rule: layering.
// ---------------------------------------------------------------------------
void check_layering(Ctx& ctx) {
  if (ctx.tu.layer == kUnknownLayer) return;
  for (const Token& t : ctx.tu.lx.tokens) {
    if (t.kind != Tok::kPreproc) continue;
    const std::size_t inc = t.text.find("include");
    if (inc == std::string_view::npos) continue;
    const std::size_t q1 = t.text.find('"', inc);
    if (q1 == std::string_view::npos) continue;
    const std::size_t q2 = t.text.find('"', q1 + 1);
    if (q2 == std::string_view::npos) continue;
    const std::string inc_path(t.text.substr(q1 + 1, q2 - q1 - 1));
    const Layer target = layer_of("src/" + inc_path);
    if (target == kUnknownLayer) continue;
    if (!may_include(ctx.tu.layer, target)) {
      ctx.report(
          t.line, t.col, "layering",
          std::string(kLayerNames[ctx.tu.layer]) + " may not include \"" +
              inc_path + "\" (" + kLayerNames[target] +
              "); this layer may depend on: " + allowed_list(ctx.tu.layer));
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: hot-alloc.
// ---------------------------------------------------------------------------
const std::unordered_set<std::string_view> kOwningContainers = {
    "vector", "string",        "deque",         "list",
    "map",    "set",           "multimap",      "multiset",
    "unordered_map",           "unordered_set", "unordered_multimap",
    "unordered_multiset",      "basic_string",
};

const std::unordered_set<std::string_view> kGrowingMembers = {
    "resize",  "reserve",       "push_back", "emplace_back", "push_front",
    "emplace_front", "insert",  "emplace",   "assign",       "append",
};

void check_hot_alloc(Ctx& ctx, const std::vector<char>& hot,
                     const std::vector<std::string>& chains) {
  if (ctx.tu.layer != kDsp && ctx.tu.layer != kPhy &&
      ctx.tu.layer != kCore) {
    return;
  }
  const std::vector<Token>& toks = ctx.tu.lx.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Tok::kIdent && t.kind != Tok::kPunct) continue;

    // Anywhere in dsp/phy/core: raw heap allocation.
    if (is_ident(t, "new")) {
      ctx.report(t.line, t.col, "hot-alloc",
                 "`new` in a hot-path layer; use Workspace leases (or "
                 "suppress with // lint: alloc-ok(reason) for setup-time "
                 "allocation)");
      continue;
    }
    if (t.kind == Tok::kIdent &&
        (t.text == "make_unique" || t.text == "make_shared") &&
        i + 1 < toks.size() &&
        (is_punct(toks[i + 1], "<") || is_punct(toks[i + 1], "("))) {
      ctx.report(t.line, t.col, "hot-alloc",
                 std::string(t.text) +
                     " in a hot-path layer; construction-time caches need "
                     "// lint: alloc-ok(reason)");
      continue;
    }

    if (!hot[i]) continue;

    // A fresh arena starts empty, so every lease from it allocates; the
    // caller's arena is already in hand (or one call up).
    if (is_ident(t, "Workspace") && i + 1 < toks.size() &&
        ((toks[i + 1].kind == Tok::kIdent &&
          !kStmtKeywords.contains(toks[i + 1].text)) ||
         is_punct(toks[i + 1], "{") || is_punct(toks[i + 1], "("))) {
      ctx.report(t.line, t.col, "hot-alloc",
                 "local Workspace on the hot path; pass the caller's arena "
                 "through" +
                     hot_context(ctx.tu, chains, i));
      continue;
    }

    // Owning-container construction.
    if (t.kind == Tok::kIdent && kOwningContainers.contains(t.text)) {
      std::size_t after = i + 1;
      if (after < toks.size() && is_punct(toks[after], "<")) {
        const std::size_t skipped = skip_template_args(toks, after);
        if (skipped == after) continue;  // comparison, not template args
        after = skipped;
      } else if (t.text != "string") {
        continue;  // bare container name without args: type context only
      }
      if (after >= toks.size()) continue;
      const Token& nx = toks[after];
      const bool decl =
          nx.kind == Tok::kIdent && !kStmtKeywords.contains(nx.text);
      const bool temp = is_punct(nx, "(") || is_punct(nx, "{");
      if (decl || temp) {
        ctx.report(t.line, t.col, "hot-alloc",
                   "owning container " + std::string(t.text) +
                       " constructed in steady-state code; lease scratch "
                       "from the Workspace instead" +
                       hot_context(ctx.tu, chains, i));
      }
      continue;
    }

    // Growing-member calls: `.resize(...)`, `->push_back(...)`, ...
    if ((is_punct(t, ".") || is_punct(t, "->")) && i + 2 < toks.size() &&
        toks[i + 1].kind == Tok::kIdent &&
        kGrowingMembers.contains(toks[i + 1].text) &&
        is_punct(toks[i + 2], "(")) {
      ctx.report(toks[i + 1].line, toks[i + 1].col, "hot-alloc",
                 "container ." + std::string(toks[i + 1].text) +
                     "() in steady-state code; size Workspace leases up "
                     "front (or justify with // lint: alloc-ok(reason))" +
                     hot_context(ctx.tu, chains, i));
      ++i;
      continue;
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: hot-throw. Throwing off the per-sample path means a malformed
// packet costs an unwind instead of a decode error; validation belongs at
// plan/setup time. Rethrows (`throw;`) pass — they only appear in catch
// blocks that already paid for the exception.
// ---------------------------------------------------------------------------
void check_hot_throw(Ctx& ctx, const std::vector<char>& hot,
                     const std::vector<std::string>& chains) {
  if (ctx.tu.layer != kDsp && ctx.tu.layer != kPhy &&
      ctx.tu.layer != kCore) {
    return;
  }
  const std::vector<Token>& toks = ctx.tu.lx.tokens;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!is_ident(toks[i], "throw") || !hot[i]) continue;
    if (i + 1 < toks.size() && is_punct(toks[i + 1], ";")) continue;
    ctx.report(toks[i].line, toks[i].col, "hot-throw",
               "`throw` on the hot path: exceptions off the sample path "
               "stall the decode chain; validate at plan/setup time or "
               "justify with // lint: throw-ok(reason)" +
                   hot_context(ctx.tu, chains, i));
  }
}

// ---------------------------------------------------------------------------
// Rule: pos-sub.
// ---------------------------------------------------------------------------
bool pos_identifier(std::string_view name) {
  if (name.empty()) return false;
  if (name.back() == '_') name.remove_suffix(1);
  return name == "pos" || name == "base" || name.ends_with("_pos") ||
         name.ends_with("_base") || name.starts_with("abs_");
}

bool word_at(std::string_view line, std::size_t pos, std::string_view word) {
  if (line.compare(pos, word.size(), word) != 0) return false;
  const auto is_word = [](char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
  };
  if (pos > 0 && is_word(line[pos - 1])) return false;
  const std::size_t end = pos + word.size();
  if (end < line.size() && is_word(line[end])) return false;
  return true;
}

// True if `line` contains `name` adjacent to a comparison operator, or a
// guard-ish construct (assert / std::min / std::max / std::clamp) together
// with `name`.
bool line_guards(std::string_view line, std::string_view name) {
  bool has_name = false;
  for (std::size_t at = line.find(name); at != std::string_view::npos;
       at = line.find(name, at + 1)) {
    if (!word_at(line, at, name)) continue;
    has_name = true;
    // Comparison operator after the name?
    std::size_t a = at + name.size();
    while (a < line.size() && (line[a] == ' ' || line[a] == ')')) ++a;
    if (a < line.size() &&
        (line[a] == '<' || line[a] == '>' ||
         ((line[a] == '=' || line[a] == '!') && a + 1 < line.size() &&
          line[a + 1] == '='))) {
      // `x <` could open template args; a following space or operand is
      // close enough for a lint heuristic.
      return true;
    }
    // Comparison operator before the name?
    std::size_t b = at;
    while (b > 0 && line[b - 1] == ' ') --b;
    if (b > 0 && (line[b - 1] == '<' || line[b - 1] == '>')) return true;
    if (b > 1 && line[b - 1] == '=' &&
        (line[b - 2] == '<' || line[b - 2] == '>' || line[b - 2] == '=' ||
         line[b - 2] == '!')) {
      return true;
    }
  }
  if (!has_name) return false;
  return line.find("assert") != std::string_view::npos ||
         line.find("min(") != std::string_view::npos ||
         line.find("max(") != std::string_view::npos ||
         line.find("clamp(") != std::string_view::npos;
}

constexpr int kGuardWindowLines = 8;

void check_pos_sub(Ctx& ctx) {
  const std::vector<Token>& toks = ctx.tu.lx.tokens;
  const Matches& m = ctx.tu.m;
  for (std::size_t i = 0; i < toks.size(); ++i) {
    if (!is_punct(toks[i], "-")) continue;
    if (i == 0 || i + 1 >= toks.size()) continue;

    // Unary minus: no left operand.
    const Token& prev = toks[i - 1];
    if (prev.kind == Tok::kPunct && prev.text != ")" && prev.text != "]") {
      continue;
    }
    if (prev.kind == Tok::kIdent &&
        (prev.text == "return" || prev.text == "case")) {
      continue;
    }

    // Left operand name: the identifier adjacent to the minus — the last
    // member of an `a.b->c` chain, or the callee of `f(...) - x`.
    std::string_view left;
    if (prev.kind == Tok::kIdent) {
      left = prev.text;
    } else if ((prev.text == ")" || prev.text == "]") &&
               m.open_of[i - 1] != kNpos) {
      const std::size_t open = m.open_of[i - 1];
      if (open > 0 && toks[open - 1].kind == Tok::kIdent) {
        left = toks[open - 1].text;
      }
    }

    // Right operand name: chase `a.b->c` / `x::y` chains to the last
    // identifier.
    std::string_view right;
    {
      std::size_t j = i + 1;
      if (j < toks.size() && toks[j].kind == Tok::kIdent) {
        right = toks[j].text;
        while (j + 2 < toks.size() &&
               (is_punct(toks[j + 1], ".") || is_punct(toks[j + 1], "->") ||
                is_punct(toks[j + 1], "::")) &&
               toks[j + 2].kind == Tok::kIdent) {
          j += 2;
          right = toks[j].text;
        }
      }
    }

    const bool left_pos = pos_identifier(left);
    const bool right_pos = pos_identifier(right);
    if (!left_pos && !right_pos) continue;

    // Guard scan: a comparison / min / max / assert mentioning either
    // operand within the preceding window (or on the line itself).
    const int line = toks[i].line;
    bool guarded = false;
    for (int l = std::max(1, line - kGuardWindowLines);
         l <= line && !guarded; ++l) {
      const std::string_view text = ctx.line_text(l);
      if (!left.empty() && line_guards(text, left)) guarded = true;
      if (!right.empty() && line_guards(text, right)) guarded = true;
    }
    if (guarded) continue;

    const std::string_view which = left_pos ? left : right;
    ctx.report(line, toks[i].col, "pos-sub",
               "unguarded subtraction on sample-position identifier '" +
                   std::string(which) +
                   "' (size_t wraps below zero); guard with a comparison/"
                   "std::min/std::max/assert in the preceding " +
                   std::to_string(kGuardWindowLines) +
                   " lines or suppress with // lint: pos-sub-ok(reason)");
  }
}

// ---------------------------------------------------------------------------
// Rule: determinism.
// ---------------------------------------------------------------------------
void check_determinism(Ctx& ctx) {
  const std::vector<Token>& toks = ctx.tu.lx.tokens;
  const Matches& m = ctx.tu.m;
  // src/obs/registry.h is the sanctioned wall-clock probe (StageTimer);
  // its values reach stderr/JSON only, never deterministic stdout.
  const bool sanctioned = ctx.tu.rel == "src/obs/registry.h";

  // Owning unordered containers declared in this file, by variable name.
  std::unordered_set<std::string_view> unordered_vars;
  for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
    if (toks[i].kind != Tok::kIdent) continue;
    if (toks[i].text != "unordered_map" && toks[i].text != "unordered_set" &&
        toks[i].text != "unordered_multimap" &&
        toks[i].text != "unordered_multiset") {
      continue;
    }
    std::size_t after = skip_template_args(toks, i + 1);
    if (after == i + 1) continue;
    while (after < toks.size() &&
           (is_punct(toks[after], "&") || is_punct(toks[after], "*"))) {
      ++after;
    }
    if (after < toks.size() && toks[after].kind == Tok::kIdent) {
      unordered_vars.insert(toks[after].text);
    }
  }

  for (std::size_t i = 0; i < toks.size(); ++i) {
    const Token& t = toks[i];
    if (t.kind != Tok::kIdent) continue;
    const bool call = i + 1 < toks.size() && is_punct(toks[i + 1], "(");

    if (!sanctioned) {
      if ((t.text == "rand" || t.text == "srand") && call) {
        ctx.report(t.line, t.col, "determinism",
                   "rand()/srand() is nondeterministic global state; use a "
                   "seeded std::mt19937 derived from the scenario/item seed");
      } else if (t.text == "random_device") {
        ctx.report(t.line, t.col, "determinism",
                   "std::random_device draws entropy from the host; derive "
                   "seeds from the scenario/item index instead");
      } else if (t.text == "getenv" && call) {
        ctx.report(t.line, t.col, "determinism",
                   "getenv() makes results depend on the environment; "
                   "sanctioned uses need // lint: det-ok(reason)");
      } else if (t.text == "time" && call) {
        ctx.report(t.line, t.col, "determinism",
                   "time() is wall-clock input; deterministic code must not "
                   "read it");
      } else if (t.text.ends_with("_clock") && i + 2 < toks.size() &&
                 is_punct(toks[i + 1], "::") &&
                 is_ident(toks[i + 2], "now")) {
        ctx.report(t.line, t.col, "determinism",
                   std::string(t.text) +
                       "::now() outside the sanctioned wall-clock files; "
                       "timing belongs in obs::StageTimer (stderr/JSON "
                       "only)");
      }
    }

    // Ranged-for over an unordered container with += accumulation in the
    // body: iteration order is unspecified, so floating-point sums differ
    // across runs/implementations.
    if (t.text == "for" && call) {
      const std::size_t open = i + 1;
      const std::size_t close = m.close_of[open];
      if (close == kNpos) continue;
      std::size_t colon = kNpos;
      for (std::size_t j = open + 1; j < close; ++j) {
        if (is_punct(toks[j], ":")) {
          colon = j;
          break;
        }
      }
      if (colon == kNpos) continue;
      bool over_unordered = false;
      for (std::size_t j = colon + 1; j < close; ++j) {
        if (toks[j].kind == Tok::kIdent &&
            (unordered_vars.contains(toks[j].text) ||
             toks[j].text.starts_with("unordered_"))) {
          over_unordered = true;
          break;
        }
      }
      if (!over_unordered) continue;
      // Body: `{ ... }` or a single statement up to `;`.
      std::size_t body_begin = close + 1;
      std::size_t body_end = body_begin;
      if (body_begin < toks.size() && is_punct(toks[body_begin], "{")) {
        body_end = m.close_of[body_begin];
        if (body_end == kNpos) continue;
      } else {
        while (body_end < toks.size() && !is_punct(toks[body_end], ";")) {
          ++body_end;
        }
      }
      for (std::size_t j = body_begin; j < body_end; ++j) {
        if (is_punct(toks[j], "+=")) {
          ctx.report(toks[j].line, toks[j].col, "determinism",
                     "accumulation over unordered-container iteration: the "
                     "order is unspecified, so floating-point sums are not "
                     "reproducible; iterate a sorted copy or restructure");
          break;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: float-narrow.
// ---------------------------------------------------------------------------
// <cmath> functions that return double; assigning their result to a float
// silently narrows unless wrapped in a visible conversion.
const std::unordered_set<std::string_view> kDoubleMathFns = {
    "cos",  "sin",   "tan",   "acos",  "asin", "atan",  "atan2", "cosh",
    "sinh", "tanh",  "sqrt",  "cbrt",  "exp",  "exp2",  "log",   "log2",
    "log10", "pow",  "hypot", "fma",   "floor", "ceil", "round", "trunc",
    "fmod", "fabs",
};

// True for a floating literal spelled as a double (no f/F suffix): "0.5",
// "1e-3", "0x1.8p1". "0x1E6" is an integer — hex literals are floating only
// when they carry a binary exponent.
bool unsuffixed_double_literal(std::string_view text) {
  if (text.empty()) return false;
  const char last = text.back();
  if (last == 'f' || last == 'F') return false;
  const bool hex = text.size() > 1 && text[0] == '0' &&
                   (text[1] == 'x' || text[1] == 'X');
  if (hex) {
    return text.find('p') != std::string_view::npos ||
           text.find('P') != std::string_view::npos;
  }
  return text.find('.') != std::string_view::npos ||
         text.find('e') != std::string_view::npos ||
         text.find('E') != std::string_view::npos;
}

// The sanctioned mic-boundary conversions (dsp/types.h) and the explicit
// cast spellings that make a narrowing visible at the site.
bool narrowing_is_explicit(const std::vector<Token>& toks, std::size_t begin,
                           std::size_t end) {
  for (std::size_t i = begin; i < end; ++i) {
    if (toks[i].kind != Tok::kIdent) continue;
    const std::string_view t = toks[i].text;
    if (t == "narrow_sample" || t == "narrow_samples" ||
        t == "convert_samples" || t == "round_to") {
      return true;
    }
    if (t == "static_cast" && i + 2 < end && is_punct(toks[i + 1], "<") &&
        is_ident(toks[i + 2], "float")) {
      return true;
    }
  }
  return false;
}

// Flags `float x = <expr>` declarations in src/dsp and src/phy whose
// initializer contains an unsuffixed double literal or a double-returning
// <cmath> call with no visible conversion: the front end's precision
// boundary lives in the sanctioned dsp/types.h helpers, so narrowing
// anywhere else should be spelled out (f-suffix, static_cast<float>, or a
// narrow_* helper). Lexical heuristic: declarations only, expression-level
// narrowing through intermediate doubles is out of reach.
void check_float_narrow(Ctx& ctx) {
  if (ctx.tu.layer != kDsp && ctx.tu.layer != kPhy) return;
  if (ctx.tu.rel == "src/dsp/types.h") return;  // the sanctioned helpers
  const std::vector<Token>& toks = ctx.tu.lx.tokens;
  for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
    if (!is_ident(toks[i], "float")) continue;
    if (toks[i + 1].kind != Tok::kIdent) continue;
    if (!is_punct(toks[i + 2], "=")) continue;
    // Statement scan: the initializer list runs to the terminating ';'
    // (covers every declarator of `float a = ..., b = ...;`).
    std::size_t end = i + 3;
    while (end < toks.size() && !is_punct(toks[end], ";")) ++end;
    if (!narrowing_is_explicit(toks, i + 3, end)) {
      for (std::size_t j = i + 3; j < end; ++j) {
        const Token& t = toks[j];
        if (t.kind == Tok::kNumber && unsuffixed_double_literal(t.text)) {
          ctx.report(t.line, t.col, "float-narrow",
                     "double literal '" + std::string(t.text) +
                         "' narrows implicitly into a float; spell it with "
                         "an f suffix or convert through the dsp/types.h "
                         "narrowing helpers");
          break;
        }
        if (t.kind == Tok::kIdent && kDoubleMathFns.contains(t.text) &&
            j + 1 < end && is_punct(toks[j + 1], "(")) {
          ctx.report(t.line, t.col, "float-narrow",
                     "std::" + std::string(t.text) +
                         "() returns double and narrows implicitly into a "
                         "float; wrap it in static_cast<float> or a "
                         "dsp/types.h narrowing helper");
          break;
        }
      }
    }
    i = end;
  }
}

// ---------------------------------------------------------------------------
// Rule: global-state. Namespace-scope mutable non-atomic variables in src/
// are shared state the thousand-node sim cannot shard; thread_local is
// confined to the sanctioned plan cache (FFT plans, moving-DFT phasors).
// ---------------------------------------------------------------------------
const std::unordered_set<std::string_view> kThreadLocalSanctioned = {
    "src/dsp/plan_cache.h",
};

void check_global_state(Ctx& ctx) {
  if (ctx.tu.layer == kUnknownLayer) return;  // src/ (or lint-as) only
  for (const GlobalSym& g : ctx.tu.sym.globals) {
    if (g.is_const || g.is_atomic || g.is_extern || g.is_thread_local) {
      continue;
    }
    ctx.report(g.line, g.col, "global-state",
               std::string("mutable ") +
                   (g.is_static ? "file-scope static" : "namespace-scope "
                                                        "global") +
                   " '" + g.name +
                   "' is cross-node shared state; make it const/constexpr, "
                   "std::atomic, or hang it off the owning object "
                   "(// lint: global-ok(reason) if it truly is "
                   "process-wide)");
  }
  if (!kThreadLocalSanctioned.contains(std::string_view(ctx.tu.rel))) {
    for (const ThreadLocalSym& t : ctx.tu.sym.thread_locals) {
      ctx.report(t.line, t.col, "global-state",
                 "thread_local outside the sanctioned plan cache "
                 "(src/dsp/plan_cache.h): per-thread state breaks the "
                 "sharded-sim ownership model");
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: guarded-by. Fields annotated AQUA_GUARDED_BY(m) may only be
// touched by member functions that lock `m` earlier in the body
// (lock_guard / scoped_lock / unique_lock / shared_lock / m.lock()).
// Constructors and destructors run single-threaded and pass.
// ---------------------------------------------------------------------------
// class name -> [(field, mutex)], collected across every TU so fields
// declared in a header guard method bodies in the matching .cpp.
using GuardMap =
    std::unordered_map<std::string,
                       std::vector<std::pair<std::string, std::string>>>;

const std::unordered_set<std::string_view> kLockTypes = {
    "lock_guard", "scoped_lock", "unique_lock", "shared_lock",
};

bool lock_held_before(const std::vector<Token>& toks, const Matches& m,
                      std::size_t begin, std::size_t end,
                      std::string_view mutex) {
  for (std::size_t i = begin; i < end; ++i) {
    if (toks[i].kind != Tok::kIdent) continue;
    if (kLockTypes.contains(toks[i].text)) {
      // lock_guard<std::mutex> lk(mu_);  /  scoped_lock lk{mu_, other};
      std::size_t j = skip_template_args(toks, i + 1);
      // Skip the variable name and find the argument list.
      while (j < end && toks[j].kind == Tok::kIdent) ++j;
      if (j < end && (is_punct(toks[j], "(") || is_punct(toks[j], "{"))) {
        const std::size_t close = m.close_of[j];
        const std::size_t stop = close == kNpos ? end : close;
        for (std::size_t k = j + 1; k < stop && k < end; ++k) {
          if (toks[k].kind == Tok::kIdent && toks[k].text == mutex) {
            return true;
          }
        }
      }
      continue;
    }
    // mu_.lock() / mu_.lock_shared()
    if (toks[i].text == mutex && i + 2 < end &&
        (is_punct(toks[i + 1], ".") || is_punct(toks[i + 1], "->")) &&
        toks[i + 2].kind == Tok::kIdent &&
        (toks[i + 2].text == "lock" || toks[i + 2].text == "lock_shared")) {
      return true;
    }
  }
  return false;
}

void check_guarded_by(Ctx& ctx, const GuardMap& guards) {
  const std::vector<Token>& toks = ctx.tu.lx.tokens;
  for (const FunctionSym& fn : ctx.tu.sym.functions) {
    if (fn.class_name.empty() || fn.is_ctor_or_dtor) continue;
    if (fn.body_open == kNpos || fn.body_close == kNpos) continue;
    const auto it = guards.find(fn.class_name);
    if (it == guards.end()) continue;
    for (const auto& [field, mutex] : it->second) {
      for (std::size_t k = fn.body_open + 1; k < fn.body_close; ++k) {
        if (toks[k].kind != Tok::kIdent || toks[k].text != field) continue;
        // `other.field` is a different object — only unqualified and
        // `this->field` accesses are this object's state.
        if (k >= 1 &&
            (is_punct(toks[k - 1], ".") || is_punct(toks[k - 1], "->"))) {
          if (!(k >= 2 && is_ident(toks[k - 2], "this"))) continue;
        }
        if (!lock_held_before(toks, ctx.tu.m, fn.body_open + 1, k, mutex)) {
          ctx.report(toks[k].line, toks[k].col, "guarded-by",
                     "field '" + field + "' is AQUA_GUARDED_BY(" + mutex +
                         ") but " + fn_display(fn) +
                         " touches it without locking " + mutex +
                         " first (lock_guard/scoped_lock/unique_lock/"
                         "shared_lock or " + mutex + ".lock())");
          break;  // one finding per field per function
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Rule: lease-escape. A Workspace lease (Scratch<V> and its aliases) hands
// back a pooled buffer when it goes out of scope, so any view of it that
// outlives the function — stored into a member or global, captured by
// reference in a lambda that escapes, or returned — dangles.
//
// Taint model (per function): lease objects seed the taint set; `auto`/
// span/reference declarations initialized from a tainted object or its
// span()/subspan()/first()/last()/data() views propagate it. Indexed loads
// (`sp[i]`) and non-view members (`sp.size()`) are values and do not.
// ---------------------------------------------------------------------------
const std::unordered_set<std::string_view> kLeaseTypes = {
    "Scratch",    "ScratchReal",  "ScratchCplx",
    "ScratchU32", "ScratchRealF", "ScratchCplxF",
};

const std::unordered_set<std::string_view> kViewMembers = {
    "span", "subspan", "first", "last", "data",
};

using TaintSet = std::unordered_set<std::string_view>;

// Scans [begin, end) for a mention of a tainted name that yields the
// object or a view of it (not an element / scalar). Returns the name.
// Mentions inside nested parens/braces are call arguments — the enclosing
// call's *result* is what flows on, and that is (usually) a value, so only
// depth-0 mentions count: `return buf.span()` escapes, `return f(buf.span())`
// does not.
std::string_view expr_derives_view(const std::vector<Token>& toks,
                                   std::size_t begin, std::size_t end,
                                   const TaintSet& taint) {
  int depth = 0;
  for (std::size_t k = begin; k < end; ++k) {
    if (toks[k].kind == Tok::kPunct) {
      const std::string_view p = toks[k].text;
      if (p == "(" || p == "[" || p == "{") ++depth;
      if (p == ")" || p == "]" || p == "}") --depth;
      continue;
    }
    if (toks[k].kind != Tok::kIdent || !taint.contains(toks[k].text)) {
      continue;
    }
    if (depth > 0) continue;
    if (k + 1 >= end) return toks[k].text;  // bare mention at the end
    const Token& nx = toks[k + 1];
    if (is_punct(nx, "[")) continue;  // element access: a value
    if (is_punct(nx, ".") || is_punct(nx, "->")) {
      if (k + 2 < end && toks[k + 2].kind == Tok::kIdent &&
          kViewMembers.contains(toks[k + 2].text)) {
        return toks[k].text;  // sp.span(), sp.data(), ...
      }
      continue;  // sp.size() and friends: values
    }
    return toks[k].text;  // whole-object copy / reference binding
  }
  return {};
}

// Capture-list inspection for a lambda: which parent-tainted names does it
// capture by reference (explicit `&name` or a `[&]` default that mentions
// a tainted name in the body)?
TaintSet lambda_ref_taints(const Tu& tu, const FunctionSym& lam,
                           const TaintSet& parent_taint) {
  TaintSet out;
  if (parent_taint.empty()) return out;
  const std::vector<Token>& toks = tu.lx.tokens;
  const std::size_t close =
      lam.params_open != kNpos ? lam.params_open - 1 : lam.body_open - 1;
  if (close >= toks.size() || !is_punct(toks[close], "]")) return out;
  const std::size_t open = tu.m.open_of[close];
  if (open == kNpos) return out;
  bool by_ref_all = false;
  for (std::size_t i = open + 1; i < close; ++i) {
    if (is_punct(toks[i], "&")) {
      if (i + 1 >= close || is_punct(toks[i + 1], ",")) {
        by_ref_all = true;
      } else if (toks[i + 1].kind == Tok::kIdent &&
                 parent_taint.contains(toks[i + 1].text)) {
        out.insert(toks[i + 1].text);
      }
    }
  }
  if (by_ref_all && lam.body_open != kNpos && lam.body_close != kNpos) {
    for (std::size_t i = lam.body_open + 1; i < lam.body_close; ++i) {
      if (toks[i].kind == Tok::kIdent && parent_taint.contains(toks[i].text)) {
        out.insert(toks[i].text);
      }
    }
  }
  return out;
}

void check_lease_escape(Ctx& ctx,
                        const std::unordered_set<std::string>& globals) {
  const std::vector<Token>& toks = ctx.tu.lx.tokens;
  const SymbolTable& sym = ctx.tu.sym;

  // body_open token -> function index, to skip nested lambda bodies while
  // walking a function's own statements.
  std::unordered_map<std::size_t, std::size_t> body_fn;
  for (std::size_t f = 0; f < sym.functions.size(); ++f) {
    if (sym.functions[f].body_open != kNpos) {
      body_fn.emplace(sym.functions[f].body_open, f);
    }
  }

  std::vector<TaintSet> taint(sym.functions.size());
  // Taints whose lease is declared in this function itself (as opposed to
  // inherited through a lambda ref-capture). A lambda returning a view of a
  // *captured* lease is fine while the enclosing function runs — the
  // dangerous case, the lambda itself escaping, is reported at the parent.
  std::vector<TaintSet> own_taint(sym.functions.size());

  const auto is_member_name = [&](std::size_t name_tok) {
    const std::string_view name = toks[name_tok].text;
    if (!name.empty() && name.back() == '_') return true;
    return name_tok >= 2 && is_punct(toks[name_tok - 1], "->") &&
           is_ident(toks[name_tok - 2], "this");
  };

  for (std::size_t f = 0; f < sym.functions.size(); ++f) {
    const FunctionSym& fn = sym.functions[f];
    if (fn.body_open == kNpos || fn.body_close == kNpos) continue;
    TaintSet& tt = taint[f];
    TaintSet& own = own_taint[f];
    if (fn.is_lambda && fn.parent != kNpos) {
      tt = lambda_ref_taints(ctx.tu, fn, taint[fn.parent]);
    }

    // Lambdas (by index) whose expression sits inside the current
    // statement — needed to catch `cb_ = [&]{ use(sp); };`.
    std::vector<std::size_t> stmt_lambdas;

    const auto process_stmt = [&](std::size_t s, std::size_t e) {
      if (s >= e) return;

      // Lease declarations: `ScratchReal buf(ws, n);` (also {..} or =).
      for (std::size_t k = s; k < e; ++k) {
        if (toks[k].kind != Tok::kIdent ||
            !kLeaseTypes.contains(toks[k].text)) {
          continue;
        }
        if (k > 0 && (is_ident(toks[k - 1], "class") ||
                      is_ident(toks[k - 1], "struct") ||
                      is_ident(toks[k - 1], "using") ||
                      is_punct(toks[k - 1], "="))) {
          continue;  // definition or alias of the lease type itself
        }
        std::size_t j = skip_template_args(toks, k + 1);
        if (j < e && toks[j].kind == Tok::kIdent && j + 1 < e &&
            (is_punct(toks[j + 1], "(") || is_punct(toks[j + 1], "{") ||
             is_punct(toks[j + 1], "="))) {
          tt.insert(toks[j].text);
          own.insert(toks[j].text);
        }
      }

      // Does any lambda in this statement ref-capture a tainted lease?
      std::string_view lam_taint;
      for (std::size_t lf : stmt_lambdas) {
        const TaintSet caps =
            lambda_ref_taints(ctx.tu, sym.functions[lf], tt);
        if (!caps.empty()) {
          lam_taint = *caps.begin();
          break;
        }
      }

      // `return <expr>;` escaping the lease or a view of it.
      if (is_ident(toks[s], "return")) {
        const std::string_view via = expr_derives_view(toks, s + 1, e, own);
        if (!via.empty()) {
          ctx.report(toks[s].line, toks[s].col, "lease-escape",
                     "Workspace lease '" + std::string(via) +
                         "' (or a span derived from it) is returned from " +
                         fn_display(fn) +
                         "; the arena reclaims the buffer when the lease "
                         "dies, so the caller holds a dangling view");
        } else if (!lam_taint.empty()) {
          ctx.report(toks[s].line, toks[s].col, "lease-escape",
                     "returned lambda captures Workspace lease '" +
                         std::string(lam_taint) +
                         "' by reference; the lease dies with " +
                         fn_display(fn) + ", leaving a dangling capture");
        }
        return;
      }

      // Top-level assignment: find `=` at paren/bracket depth 0.
      std::size_t eq = kNpos;
      int depth = 0;
      for (std::size_t k = s; k < e; ++k) {
        if (toks[k].kind != Tok::kPunct) continue;
        const std::string_view p = toks[k].text;
        if (p == "(" || p == "[" || p == "{") ++depth;
        if (p == ")" || p == "]" || p == "}") --depth;
        if (p == "=" && depth == 0) {
          eq = k;
          break;
        }
      }
      if (eq == kNpos || eq == s || toks[eq - 1].kind != Tok::kIdent) return;

      const std::size_t name_tok = eq - 1;
      const std::string_view name = toks[name_tok].text;
      const std::string_view via = expr_derives_view(toks, eq + 1, e, tt);
      const bool member = is_member_name(name_tok);
      const bool global = globals.contains(std::string(name));

      if (!via.empty() || !lam_taint.empty()) {
        const std::string what =
            !via.empty()
                ? "a view of Workspace lease '" + std::string(via) + "'"
                : "a lambda ref-capturing Workspace lease '" +
                      std::string(lam_taint) + "'";
        if (member) {
          ctx.report(toks[name_tok].line, toks[name_tok].col, "lease-escape",
                     "member '" + std::string(name) + "' stores " + what +
                         "; the arena reclaims the buffer when " +
                         fn_display(fn) +
                         " returns, so the member dangles");
          return;
        }
        if (global) {
          ctx.report(toks[name_tok].line, toks[name_tok].col, "lease-escape",
                     "global '" + std::string(name) + "' stores " + what +
                         "; the arena reclaims the buffer when " +
                         fn_display(fn) + " returns");
          return;
        }
        if (!via.empty()) {
          tt.insert(name);  // local view: propagate taint
          if (own.contains(via)) own.insert(name);
        }
      }
    };

    std::size_t stmt = fn.body_open + 1;
    for (std::size_t i = fn.body_open + 1; i < fn.body_close; ++i) {
      // Skip a nested function/lambda body but remember the lambda for the
      // statement-level capture checks.
      if (is_punct(toks[i], "{")) {
        const auto child = body_fn.find(i);
        if (child != body_fn.end() && child->second != f) {
          if (sym.functions[child->second].is_lambda) {
            stmt_lambdas.push_back(child->second);
          }
          const std::size_t close = sym.functions[child->second].body_close;
          if (close != kNpos && close > i) {
            i = close;  // loop ++ steps past the closing brace
            continue;
          }
        }
      }
      if (is_punct(toks[i], ";") || is_punct(toks[i], "{") ||
          is_punct(toks[i], "}")) {
        process_stmt(stmt, i);
        stmt = i + 1;
        stmt_lambdas.clear();
      }
    }
    process_stmt(stmt, fn.body_close);
  }
}

void check_unused_suppressions(Ctx& ctx) {
  for (const Suppression& s : ctx.tu.sups) {
    if (s.used) continue;
    if (s.rule == "hot-fn-exempt") {
      if (!ctx.opts.enabled("hot-alloc")) continue;
      ctx.out.push_back(
          {ctx.tu.file, s.line, 0, "suppression",
           "unused hot-alloc-ok function exemption: no hot path reaches "
           "this function — remove it so annotations stay honest"});
      continue;
    }
    if (!ctx.opts.enabled(s.rule)) continue;
    ctx.out.push_back(
        {ctx.tu.file, s.line, 0, "suppression",
         "unused suppression for rule '" + s.rule +
             "': no finding here — remove it so annotations stay honest"});
  }
}

// ---------------------------------------------------------------------------
// Project driver: prepare each TU, link the call graph, run the families.
// ---------------------------------------------------------------------------
std::string derive_rel_path(const std::string& path) {
  // Use the last "src/" component so build trees and absolute paths both
  // resolve to repo-relative form.
  const std::size_t at = path.rfind("src/");
  if (at != std::string::npos && (at == 0 || path[at - 1] == '/')) {
    return path.substr(at);
  }
  return path;
}

// First-lines `lint-as: <path>` override (fixture corpus support).
std::string lint_as_override(const LexResult& lx) {
  for (const Comment& c : lx.comments) {
    if (c.line > 5) break;
    const std::size_t at = c.text.find("lint-as:");
    if (at == std::string_view::npos) continue;
    return std::string(trim(c.text.substr(at + 8)));
  }
  return {};
}

std::vector<Finding> lint_project(std::vector<std::unique_ptr<Tu>> tus,
                                  const LintOptions& opts,
                                  std::vector<Finding> out) {
  for (auto& tu : tus) {
    tu->layer = layer_of(tu->rel);
    tu->lx = lex(tu->source);
    tu->m = match_pairs(tu->lx.tokens);
    tu->sym = parse_symbols(tu->lx.tokens, tu->m, tu->lx.comments);
    tu->blanked = blank_comments(tu->source, tu->lx.comments);
    split_lines(tu->blanked, tu->lines);
    Ctx ctx{*tu, opts, out};
    parse_suppressions(ctx);
    bind_function_exemptions(*tu);
  }

  // Stage 2: cross-TU call graph + hot propagation.
  std::vector<CallGraphTu> cg;
  cg.reserve(tus.size());
  for (auto& tu : tus) {
    cg.push_back({&tu->sym, tu->fn_exempt});
  }
  const HotInfo hot = propagate_hot(cg);
  for (std::size_t t = 0; t < tus.size(); ++t) {
    for (std::size_t f = 0; f < tus[t]->sym.functions.size(); ++f) {
      if (hot.exempt_used[t][f] && tus[t]->fn_exempt_sup[f] != kNpos) {
        tus[t]->sups[tus[t]->fn_exempt_sup[f]].used = true;
      }
    }
  }

  // Project-wide guarded-field and global-name maps (fields live in
  // headers, method bodies in the matching .cpp).
  GuardMap guards;
  std::unordered_set<std::string> global_names;
  for (const auto& tu : tus) {
    for (const GuardedFieldSym& g : tu->sym.guarded_fields) {
      guards[g.class_name].push_back({g.field, g.mutex_name});
    }
    for (const GlobalSym& g : tu->sym.globals) {
      if (!g.is_const) global_names.insert(g.name);
    }
  }

  // Stage 3: rule families per TU.
  for (std::size_t t = 0; t < tus.size(); ++t) {
    Ctx ctx{*tus[t], opts, out};
    if (opts.enabled("layering")) check_layering(ctx);
    if (opts.enabled("hot-alloc") || opts.enabled("hot-throw")) {
      const std::vector<char> mask = hot_token_mask(*tus[t], hot.hot[t]);
      if (opts.enabled("hot-alloc")) {
        check_hot_alloc(ctx, mask, hot.chain[t]);
      }
      if (opts.enabled("hot-throw")) {
        check_hot_throw(ctx, mask, hot.chain[t]);
      }
    }
    if (opts.enabled("pos-sub")) check_pos_sub(ctx);
    if (opts.enabled("determinism")) check_determinism(ctx);
    if (opts.enabled("float-narrow")) check_float_narrow(ctx);
    if (opts.enabled("global-state")) check_global_state(ctx);
    if (opts.enabled("guarded-by")) check_guarded_by(ctx, guards);
    if (opts.enabled("lease-escape")) check_lease_escape(ctx, global_names);
    check_unused_suppressions(ctx);
  }

  std::stable_sort(out.begin(), out.end(),
                   [](const Finding& a, const Finding& b) {
                     if (a.file != b.file) return a.file < b.file;
                     if (a.line != b.line) return a.line < b.line;
                     return a.col < b.col;
                   });
  return out;
}

std::unique_ptr<Tu> load_tu(const std::string& path, std::vector<Finding>& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    out.push_back({path, 0, 0, "io", "cannot open file"});
    return nullptr;
  }
  std::ostringstream buf;
  buf << in.rdbuf();
  auto tu = std::make_unique<Tu>();
  tu->file = path;
  tu->source = buf.str();
  // Peek at the first lines for a lint-as override; the real lex result is
  // produced again inside lint_project (cheap, and keeps load_tu dumb).
  const LexResult lx = lex(tu->source);
  tu->rel = lint_as_override(lx);
  if (tu->rel.empty()) tu->rel = derive_rel_path(path);
  return tu;
}

}  // namespace

std::vector<Finding> lint_source(const std::string& display_path,
                                 const std::string& rel_path,
                                 std::string_view source,
                                 const LintOptions& options) {
  auto tu = std::make_unique<Tu>();
  tu->file = display_path;
  tu->rel = rel_path;
  tu->source = std::string(source);
  std::vector<std::unique_ptr<Tu>> tus;
  tus.push_back(std::move(tu));
  return lint_project(std::move(tus), options, {});
}

std::vector<Finding> lint_file(const std::string& path,
                               const LintOptions& options) {
  std::vector<Finding> pre;
  auto tu = load_tu(path, pre);
  if (!tu) return pre;
  std::vector<std::unique_ptr<Tu>> tus;
  tus.push_back(std::move(tu));
  return lint_project(std::move(tus), options, std::move(pre));
}

std::vector<Finding> lint_paths(const std::vector<std::string>& paths,
                                const LintOptions& options) {
  namespace fs = std::filesystem;
  std::vector<std::string> files;
  std::vector<Finding> pre;
  for (const std::string& p : paths) {
    std::error_code ec;
    if (fs::is_directory(p, ec)) {
      for (fs::recursive_directory_iterator it(p, ec), end;
           it != end && !ec; it.increment(ec)) {
        if (!it->is_regular_file()) continue;
        const std::string ext = it->path().extension().string();
        if (ext == ".h" || ext == ".cpp" || ext == ".hpp" || ext == ".cc") {
          files.push_back(it->path().generic_string());
        }
      }
      if (ec) pre.push_back({p, 0, 0, "io", "walk failed: " + ec.message()});
    } else if (fs::exists(p, ec)) {
      files.push_back(p);
    } else {
      pre.push_back({p, 0, 0, "io", "no such file or directory"});
    }
  }
  std::sort(files.begin(), files.end());
  std::vector<std::unique_ptr<Tu>> tus;
  for (const std::string& f : files) {
    if (auto tu = load_tu(f, pre)) tus.push_back(std::move(tu));
  }
  return lint_project(std::move(tus), options, std::move(pre));
}

std::string rules_help() {
  return
      "aqua_lint rule families (suppression id in brackets):\n"
      "  layering     [layer-ok]    #include \"...\" edges must follow the\n"
      "                             ARCHITECTURE.md layer DAG (obs interfaces\n"
      "                             < dsp < coding/phy/channel < core < obs\n"
      "                             impl < mac < sim)\n"
      "  hot-alloc    [alloc-ok]    new/make_unique/make_shared anywhere in\n"
      "                             dsp/phy/core; owning-container growth and\n"
      "                             local Workspace arenas in any function\n"
      "                             reached from a Workspace&-taking entry\n"
      "                             (interprocedural; // lint: hot-alloc-ok\n"
      "                             on a definition exempts the function and\n"
      "                             stops propagation)\n"
      "  hot-throw    [throw-ok]    `throw` inside hot-path functions,\n"
      "                             including transitively-reached helpers\n"
      "  lease-escape [lease-ok]    a Workspace Scratch lease or a span/\n"
      "                             pointer derived from it stored into a\n"
      "                             member/global, ref-captured by an\n"
      "                             escaping lambda, or returned\n"
      "  guarded-by   [guard-ok]    fields annotated AQUA_GUARDED_BY(m) must\n"
      "                             only be touched under a lock of m\n"
      "  global-state [global-ok]   namespace-scope mutable non-atomic\n"
      "                             variables in src/; thread_local outside\n"
      "                             src/dsp/plan_cache.h\n"
      "  pos-sub      [pos-sub-ok]  unguarded size_t subtraction on sample-\n"
      "                             position identifiers (*_pos, *_base,\n"
      "                             abs_*)\n"
      "  determinism  [det-ok]      rand/srand, random_device, *_clock::now,\n"
      "                             time(), getenv() outside sanctioned\n"
      "                             files; unordered-container iteration\n"
      "                             feeding += accumulation\n"
      "  float-narrow [narrow-ok]   float declarations in src/dsp and\n"
      "                             src/phy initialized from unsuffixed\n"
      "                             double literals or double-returning\n"
      "                             <cmath> calls; narrowing belongs in the\n"
      "                             dsp/types.h mic-boundary helpers or an\n"
      "                             explicit static_cast<float>\n"
      "  suppression  (always on)   suppressions must carry a reason and\n"
      "                             must match a finding\n"
      "Explicit call-graph edge for dispatch the scanner cannot see:\n"
      "  // lint-call: Cls::callee   (inside the calling function's body)\n"
      "Suppress one finding: trailing or preceding own-line comment\n"
      "  // lint: alloc-ok(<why this site is safe>)\n";
}

}  // namespace aqua::lint

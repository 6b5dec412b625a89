// aqua_lint: repo-invariant static analysis over src/.
//
// Usage:
//   aqua_lint [options] <path>...
//
// Options:
//   --list-rules       print the rule-family table and exit
//   --rules=a,b,c      run only the listed families (suppression/io stay on)
//   --json             print findings as JSON (lint/json.h schema) instead
//                      of text
//   --json-out FILE    additionally write the full JSON report to FILE
//                      (text still goes to stdout; this is the CI artifact)
//
// Walks each path (directories recurse over .h/.hpp/.cpp/.cc), builds the
// project-wide symbol/call-graph IR, runs the rule families documented in
// lint/rules.h, and prints findings as
//
//   file:line:col: rule-id: message
//
// Exit status: 0 when clean, 1 when findings exist, 2 on usage/IO error.
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "lint/json.h"
#include "lint/rules.h"

namespace {

constexpr char kUsage[] =
    "usage: aqua_lint [--list-rules] [--rules=a,b,c] [--json] "
    "[--json-out FILE] <path>...\n";

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> paths;
  aqua::lint::LintOptions options;
  bool json_stdout = false;
  std::string json_out;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--list-rules") {
      std::fputs(aqua::lint::rules_help().c_str(), stdout);
      return 0;
    }
    if (arg == "-h" || arg == "--help") {
      std::fputs(kUsage, stdout);
      return 0;
    }
    if (arg == "--json") {
      json_stdout = true;
      continue;
    }
    if (arg.starts_with("--rules=")) {
      std::string_view list = arg.substr(8);
      while (!list.empty()) {
        const std::size_t comma = list.find(',');
        const std::string_view one = list.substr(0, comma);
        if (!one.empty()) options.rules.emplace_back(one);
        if (comma == std::string_view::npos) break;
        list.remove_prefix(comma + 1);
      }
      if (options.rules.empty()) {
        std::fprintf(stderr, "aqua_lint: --rules= needs at least one id\n");
        return 2;
      }
      continue;
    }
    if (arg == "--json-out") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "aqua_lint: --json-out needs a file argument\n");
        return 2;
      }
      json_out = argv[++i];
      continue;
    }
    if (arg.starts_with("-")) {
      std::fprintf(stderr, "aqua_lint: unknown option '%s'\n", argv[i]);
      return 2;
    }
    paths.emplace_back(arg);
  }
  if (paths.empty()) {
    std::fputs(kUsage, stderr);
    return 2;
  }

  const std::vector<aqua::lint::Finding> findings =
      aqua::lint::lint_paths(paths, options);

  if (!json_out.empty()) {
    std::ofstream out(json_out, std::ios::binary | std::ios::trunc);
    if (!out) {
      std::fprintf(stderr, "aqua_lint: cannot write '%s'\n",
                   json_out.c_str());
      return 2;
    }
    out << aqua::lint::findings_to_json(findings);
  }

  if (json_stdout) {
    std::fputs(aqua::lint::findings_to_json(findings).c_str(), stdout);
  } else {
    for (const aqua::lint::Finding& f : findings) {
      std::fprintf(stdout, "%s:%d:%d: %s: %s\n", f.file.c_str(), f.line,
                   f.col, f.rule.c_str(), f.message.c_str());
    }
    if (!findings.empty()) {
      std::fprintf(stdout, "aqua_lint: %zu finding%s\n", findings.size(),
                   findings.size() == 1 ? "" : "s");
    }
  }
  return findings.empty() ? 0 : 1;
}

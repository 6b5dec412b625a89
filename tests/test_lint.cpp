// aqua_lint rule-engine tests: the fixture corpus under tests/lint_fixtures/
// (one passing and one failing file per rule family), suppression grammar
// enforcement, and the gate that the live src/ tree lints clean.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "lint/rules.h"

namespace {

using aqua::lint::Finding;
using aqua::lint::lint_file;
using aqua::lint::lint_paths;
using aqua::lint::lint_source;

std::string fixture(const std::string& name) {
  return std::string(AQUA_LINT_FIXTURE_DIR) + "/" + name;
}

std::string describe(const std::vector<Finding>& findings) {
  std::string out;
  for (const Finding& f : findings) {
    out += f.file + ":" + std::to_string(f.line) + ": " + f.rule + ": " +
           f.message + "\n";
  }
  return out;
}

int count_rule(const std::vector<Finding>& findings, std::string_view rule) {
  return static_cast<int>(
      std::count_if(findings.begin(), findings.end(),
                    [&](const Finding& f) { return f.rule == rule; }));
}

void expect_clean(const std::string& name) {
  const std::vector<Finding> findings = lint_file(fixture(name));
  EXPECT_TRUE(findings.empty())
      << name << " should lint clean but reported:\n"
      << describe(findings);
}

// Every finding in a failing fixture must come from the rule under test —
// a fixture that trips a second rule family is a fixture bug.
void expect_only(const std::string& name, std::string_view rule,
                 int min_count) {
  const std::vector<Finding> findings = lint_file(fixture(name));
  EXPECT_GE(count_rule(findings, rule), min_count)
      << name << " reported:\n"
      << describe(findings);
  for (const Finding& f : findings) {
    EXPECT_EQ(f.rule, rule) << describe(findings);
  }
}

TEST(LintLayering, CleanEdgesPass) { expect_clean("layering_good.cpp"); }

TEST(LintLayering, InvertedEdgesFail) {
  expect_only("layering_bad.cpp", "layering", 2);
}

TEST(LintHotAlloc, WorkspaceLeasesPass) {
  expect_clean("hot_alloc_good.cpp");
}

TEST(LintHotAlloc, SteadyStateAllocationFails) {
  const std::vector<Finding> findings =
      lint_file(fixture("hot_alloc_bad.cpp"));
  // new + make_unique anywhere; a local Workspace, container
  // construction, resize and push_back inside the Workspace&-taking body.
  EXPECT_GE(count_rule(findings, "hot-alloc"), 6) << describe(findings);
  for (const Finding& f : findings) {
    EXPECT_EQ(f.rule, "hot-alloc") << describe(findings);
  }
}

TEST(LintPosSub, GuardedSubtractionsPass) {
  expect_clean("pos_sub_good.cpp");
}

TEST(LintPosSub, UnguardedSubtractionsFail) {
  expect_only("pos_sub_bad.cpp", "pos-sub", 3);
}

TEST(LintDeterminism, SeededStreamsPass) {
  expect_clean("determinism_good.cpp");
}

TEST(LintDeterminism, HostEntropyFails) {
  const std::vector<Finding> findings =
      lint_file(fixture("determinism_bad.cpp"));
  // random_device, srand, rand, steady_clock::now, time, getenv, and the
  // unordered-iteration accumulation.
  EXPECT_GE(count_rule(findings, "determinism"), 7) << describe(findings);
  for (const Finding& f : findings) {
    EXPECT_EQ(f.rule, "determinism") << describe(findings);
  }
}

TEST(LintFloatNarrow, ExplicitConversionsPass) {
  expect_clean("float_narrow_good.cpp");
}

TEST(LintFloatNarrow, ImplicitNarrowingFails) {
  // Unsuffixed literal, exponent literal, std::cos call, and the narrowing
  // declarator of the mixed declaration.
  expect_only("float_narrow_bad.cpp", "float-narrow", 4);
}

TEST(LintFloatNarrow, RuleIsScopedToFrontEndLayers) {
  // The same source is silent outside src/dsp and src/phy.
  const std::vector<Finding> from_sim = lint_source(
      "f.cpp", "src/sim/f.cpp", "const float gain = 0.3;\n");
  EXPECT_TRUE(from_sim.empty()) << describe(from_sim);
  const std::vector<Finding> from_dsp = lint_source(
      "f.cpp", "src/dsp/f.cpp", "const float gain = 0.3;\n");
  EXPECT_EQ(count_rule(from_dsp, "float-narrow"), 1) << describe(from_dsp);
  // dsp/types.h holds the sanctioned helpers and may narrow freely.
  const std::vector<Finding> from_types = lint_source(
      "types.h", "src/dsp/types.h", "const float gain = 0.3;\n");
  EXPECT_TRUE(from_types.empty()) << describe(from_types);
}

TEST(LintSuppression, ReasonedSuppressionsSilenceFindings) {
  expect_clean("suppression_good.cpp");
}

TEST(LintSuppression, MissingReasonAndStaleAnnotationsFail) {
  const std::vector<Finding> findings =
      lint_file(fixture("suppression_bad.cpp"));
  // Two reason-less suppressions plus one stale one...
  EXPECT_EQ(count_rule(findings, "suppression"), 3) << describe(findings);
  // ...and the reason-less ones must NOT have suppressed their findings.
  EXPECT_EQ(count_rule(findings, "hot-alloc"), 2) << describe(findings);
}

TEST(LintSuppression, SanctionedClockFileSkipsBannedCalls) {
  const std::vector<Finding> findings = lint_source(
      "registry.h", "src/obs/registry.h",
      "inline double wall_seconds() {\n"
      "  return std::chrono::steady_clock::now().time_since_epoch().count();\n"
      "}\n");
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

TEST(LintSuppression, LayerOverrideComesFromLintAsComment) {
  // The same source lints differently depending on the declared layer.
  const std::vector<Finding> from_dsp =
      lint_source("f.cpp", "src/dsp/f.cpp", "#include \"core/modem.h\"\n");
  EXPECT_EQ(count_rule(from_dsp, "layering"), 1) << describe(from_dsp);
  const std::vector<Finding> from_sim =
      lint_source("f.cpp", "src/sim/f.cpp", "#include \"core/modem.h\"\n");
  EXPECT_TRUE(from_sim.empty()) << describe(from_sim);
}

TEST(LintLeaseEscape, ScopedViewsPass) {
  expect_clean("lease_escape_good.cpp");
}

TEST(LintLeaseEscape, EscapingViewsFail) {
  // Direct return, derived-span return, member store, global store, and a
  // returned ref-capturing lambda.
  expect_only("lease_escape_bad.cpp", "lease-escape", 5);
}

TEST(LintGuardedBy, LockedAccessesPass) {
  expect_clean("guarded_by_good.cpp");
}

TEST(LintGuardedBy, UnlockedAccessesFail) {
  // One finding per touching function: bump() and read().
  expect_only("guarded_by_bad.cpp", "guarded-by", 2);
}

TEST(LintGlobalState, SanctionedGlobalsPass) {
  expect_clean("global_state_good.cpp");
}

TEST(LintGlobalState, MutableGlobalsFail) {
  // Static, two namespace-scope globals, and the stray thread_local.
  expect_only("global_state_bad.cpp", "global-state", 4);
}

TEST(LintHotThrow, SetupThrowsAndRethrowsPass) {
  expect_clean("hot_throw_good.cpp");
}

TEST(LintHotThrow, HotPathThrowsFail) {
  // One in the seed itself, one in a helper it reaches.
  expect_only("hot_throw_bad.cpp", "hot-throw", 2);
}

TEST(LintHotChain, TwoLevelPropagationCarriesWitness) {
  const std::vector<Finding> findings =
      lint_file(fixture("hot_chain_bad.cpp"));
  ASSERT_EQ(count_rule(findings, "hot-alloc"), 1) << describe(findings);
  // The finding sits in `leaf`, two calls from the Workspace&-taking seed,
  // and its message carries the full witness chain.
  const Finding& f = findings.front();
  EXPECT_NE(f.message.find("entry -> middle -> leaf"), std::string::npos)
      << describe(findings);
}

TEST(LintHotChain, BoundaryExemptionAbsorbsHotness) {
  // hot-alloc-ok on `middle` stops propagation, so the identical allocation
  // in `leaf` is sanctioned — and the exemption counts as used (no
  // unused-suppression finding either).
  expect_clean("hot_chain_good.cpp");
}

TEST(LintHotChain, ProjectFieldReceiverKeepsTheChain) {
  // `history_.reset()` and `slot_.live.reset()` on project-typed fields
  // reach the allocating History::reset.
  const std::vector<Finding> findings =
      lint_file(fixture("std_receiver_bad.cpp"));
  ASSERT_EQ(count_rule(findings, "hot-alloc"), 1) << describe(findings);
  EXPECT_NE(findings.front().message.find("Scanner::scan -> History::reset"),
            std::string::npos)
      << describe(findings);
}

TEST(LintHotChain, StdFieldReceiverReachesNoProjectFunction) {
  // `pending_.reset()` on a std::optional field and `slot_.live.reset()` on
  // a std::unique_ptr one call the library, not the project's
  // History::reset of the same name.
  expect_clean("std_receiver_good.cpp");
}

TEST(LintRawString, PositionsSurviveRawStrings) {
  // The fixture's raw string contains `//` and `/*` openers; positions for
  // code after it must come from the lexer, not a comment-stripper guess.
  const std::vector<Finding> findings =
      lint_file(fixture("raw_string_lines.cpp"));
  ASSERT_EQ(count_rule(findings, "hot-alloc"), 1) << describe(findings);
  EXPECT_EQ(findings.front().line, 13) << describe(findings);
  EXPECT_EQ(findings.front().col, 10) << describe(findings);
}

TEST(LintJson, RoundTripPreservesFindings) {
  // The --json / --json-out report, byte for byte: every escape the
  // writer knows (quote, backslash, newline, tab, carriage return, other
  // control characters) and the empty-report form.
  const std::vector<Finding> in = {
      {"src/dsp/a.cpp", 12, 3, "hot-alloc", "plain message"},
      {"src/phy/b.cpp", 1, 1, "lease-escape",
       "quotes \" backslash \\ newline \n tab \t cr \r bell \x07 done"},
  };
  EXPECT_EQ(aqua::lint::findings_to_json(in),
            R"({
  "version": 1,
  "findings": [
    {"file": "src/dsp/a.cpp", "line": 12, "col": 3, "rule": "hot-alloc", "message": "plain message"},
    {"file": "src/phy/b.cpp", "line": 1, "col": 1, "rule": "lease-escape", "message": "quotes \" backslash \\ newline \n tab \t cr \r bell \u0007 done"}
  ]
}
)");
  EXPECT_EQ(aqua::lint::findings_to_json({}),
            "{\n  \"version\": 1,\n  \"findings\": []\n}\n");
}

// The acceptance gate: the live tree must carry no findings, and every
// suppression in it must be attached to a real finding with a reason.
TEST(LintSrcTree, LiveSourcesLintClean) {
  const std::vector<Finding> findings = lint_paths({AQUA_SRC_DIR});
  EXPECT_TRUE(findings.empty()) << describe(findings);
}

}  // namespace

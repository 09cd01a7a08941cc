// Self-test for subrec_lint: parses fixture files with known violations and
// asserts that every rule in the default set fires where expected, and that
// a clean fixture stays clean.
#include "lint.h"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "gtest/gtest.h"

namespace subrec::lint {
namespace {

std::vector<Violation> LintFixtureAs(const std::string& fixture,
                                     const std::string& logical_path) {
  const std::string disk =
      std::string(SUBREC_LINT_TESTDATA_DIR) + "/" + fixture;
  std::vector<SourceFile> files = {LoadFileAs(disk, logical_path)};
  return RunRules(BuildDefaultRules(), files);
}

std::set<std::string> FiredRules(const std::vector<Violation>& vs) {
  std::set<std::string> names;
  for (const Violation& v : vs) names.insert(v.rule);
  return names;
}

TEST(LintViews, BlanksCommentsAndStrings) {
  SourceFile f = MakeSourceFile(
      "src/x/y.h",
      "int a = 1;  // trailing comment\n"
      "const char* s = \"std::rand inside a string\";\n"
      "/* block\n   spanning */ int b;\n");
  ASSERT_EQ(f.code.size(), 4u);
  EXPECT_EQ(f.code[0].find("trailing"), std::string::npos);
  EXPECT_EQ(f.code[1].find("std::rand"), std::string::npos);
  EXPECT_EQ(f.code[2].find("block"), std::string::npos);
  EXPECT_NE(f.code[3].find("int b;"), std::string::npos);
  EXPECT_NE(f.comments[0].find("trailing comment"), std::string::npos);
  EXPECT_EQ(f.comments[1].find("string"), std::string::npos);
  EXPECT_NE(f.comments[2].find("block"), std::string::npos);
}

TEST(LintSelfTest, EveryRuleFiresOnBadFixture) {
  const std::vector<Violation> vs =
      LintFixtureAs("bad_header.h", "src/bad/bad_header.h");
  const std::set<std::string> fired = FiredRules(vs);
  const std::vector<std::string> expected = {
      "include-guard",    "no-std-rand",  "no-using-namespace-header",
      "no-raw-stdio",     "no-float",     "no-thread-sleep",
      "todo-format",      "include-hygiene",
      "no-raw-concurrency-primitive",     "guarded-by-required"};
  for (const std::string& rule : expected) {
    EXPECT_TRUE(fired.count(rule)) << "rule did not fire: " << rule;
  }
}

TEST(LintSelfTest, ViolationsCarryLinesAndMessages) {
  const std::vector<Violation> vs =
      LintFixtureAs("bad_header.h", "src/bad/bad_header.h");
  for (const Violation& v : vs) {
    EXPECT_GT(v.line, 0u) << FormatViolation(v);
    EXPECT_FALSE(v.message.empty());
    EXPECT_EQ(v.file, "src/bad/bad_header.h");
  }
  const auto guard = std::find_if(vs.begin(), vs.end(), [](const Violation& v) {
    return v.rule == "include-guard";
  });
  ASSERT_NE(guard, vs.end());
  EXPECT_NE(guard->message.find("SUBREC_BAD_BAD_HEADER_H_"),
            std::string::npos)
      << guard->message;
}

TEST(LintSelfTest, GoodFixtureIsClean) {
  const std::vector<Violation> vs =
      LintFixtureAs("good_header.h", "src/good/good_header.h");
  for (const Violation& v : vs) ADD_FAILURE() << FormatViolation(v);
}

TEST(LintSelfTest, RulesScopeByPath) {
  // The same bad content outside src/ is exempt from the src/-only rules
  // (raw stdio, float) but still subject to the global ones.
  const std::vector<Violation> vs =
      LintFixtureAs("bad_header.h", "tools/bad/bad_header.h");
  const std::set<std::string> fired = FiredRules(vs);
  EXPECT_FALSE(fired.count("no-raw-stdio"));
  EXPECT_FALSE(fired.count("no-float"));
  EXPECT_FALSE(fired.count("no-thread-sleep"));
  EXPECT_FALSE(fired.count("no-raw-concurrency-primitive"));
  EXPECT_FALSE(fired.count("guarded-by-required"));
  EXPECT_TRUE(fired.count("no-std-rand"));
  EXPECT_TRUE(fired.count("no-using-namespace-header"));
}

TEST(LintConcurrency, GoodFixtureIsClean) {
  const std::vector<Violation> vs =
      LintFixtureAs("concurrency_good.h", "src/good/concurrency_good.h");
  for (const Violation& v : vs) ADD_FAILURE() << FormatViolation(v);
}

TEST(LintConcurrency, BadFixtureFiresBothRulesAtExpectedLines) {
  const std::vector<Violation> vs =
      LintFixtureAs("concurrency_bad.h", "src/bad/concurrency_bad.h");
  std::vector<size_t> guarded_lines;
  std::vector<size_t> raw_lines;
  for (const Violation& v : vs) {
    if (v.rule == "guarded-by-required") guarded_lines.push_back(v.line);
    if (v.rule == "no-raw-concurrency-primitive") raw_lines.push_back(v.line);
  }
  std::sort(guarded_lines.begin(), guarded_lines.end());
  ASSERT_EQ(raw_lines.size(), 1u);
  EXPECT_EQ(raw_lines[0], 13u);  // inline std::mutex g_raw_mutex;
  ASSERT_EQ(guarded_lines.size(), 3u);
  EXPECT_EQ(guarded_lines[0], 21u);  // int total_ = 0;
  EXPECT_EQ(guarded_lines[1], 22u);  // multi-line history_ declaration
  EXPECT_EQ(guarded_lines[2], 24u);  // alignas(16) double rate_ = 0.0;
}

TEST(LintConcurrency, RulesScopeToSrc) {
  // The same content under tools/ is outside the concurrency rules' scope.
  const std::vector<Violation> vs =
      LintFixtureAs("concurrency_bad.h", "tools/bad/concurrency_bad.h");
  const std::set<std::string> fired = FiredRules(vs);
  EXPECT_FALSE(fired.count("no-raw-concurrency-primitive"));
  EXPECT_FALSE(fired.count("guarded-by-required"));
}

TEST(LintConcurrency, MutexWrapperHeaderMayNameRawPrimitives) {
  // common/mutex.h is the one src/ file allowed to touch std primitives:
  // it is where they get wrapped.
  const std::vector<Violation> vs = RunRules(
      BuildDefaultRules(),
      {MakeSourceFile("src/common/mutex.h",
                      "std::mutex raw_;\n"
                      "std::condition_variable cv_;\n")});
  const std::set<std::string> fired = FiredRules(vs);
  EXPECT_FALSE(fired.count("no-raw-concurrency-primitive"));
  EXPECT_FALSE(fired.count("guarded-by-required"));
}

TEST(LintServeMatrix, BadFixtureFiresAtExpectedLines) {
  const std::vector<Violation> vs =
      LintFixtureAs("serve_matrix_bad.h", "src/serve/serve_matrix_bad.h");
  std::vector<size_t> lines;
  for (const Violation& v : vs) {
    if (v.rule == "no-nested-vector-matrix") lines.push_back(v.line);
  }
  std::sort(lines.begin(), lines.end());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], 10u);  // interest member
  EXPECT_EQ(lines[1], 11u);  // triply nested samples
  EXPECT_EQ(lines[2], 13u);  // bare marker without a reason is no opt-out
}

TEST(LintServeMatrix, GoodFixtureIsClean) {
  const std::vector<Violation> vs =
      LintFixtureAs("serve_matrix_good.h", "src/serve/serve_matrix_good.h");
  for (const Violation& v : vs) ADD_FAILURE() << FormatViolation(v);
}

TEST(LintServeMatrix, RuleScopesToServe) {
  // The identical content anywhere else in src/ (or outside src/) is out of
  // the slab rule's scope — training code legitimately builds row vectors.
  for (const std::string& path :
       {std::string("src/rec/serve_matrix_bad.h"),
        std::string("tools/serve_matrix_bad.h")}) {
    const std::vector<Violation> vs = LintFixtureAs("serve_matrix_bad.h", path);
    EXPECT_FALSE(FiredRules(vs).count("no-nested-vector-matrix")) << path;
  }
}

TEST(LintCpuProbe, BadFixtureFiresAtExpectedLines) {
  const std::vector<Violation> vs =
      LintFixtureAs("cpu_probe_bad.cc", "src/la/cpu_probe_bad.cc");
  std::vector<size_t> lines;
  for (const Violation& v : vs) {
    if (v.rule == "one-cpu-probe") lines.push_back(v.line);
  }
  std::sort(lines.begin(), lines.end());
  ASSERT_EQ(lines.size(), 3u);
  EXPECT_EQ(lines[0], 7u);   // __builtin_cpu_supports("avx2")
  EXPECT_EQ(lines[1], 8u);   // __builtin_cpu_supports("fma")
  EXPECT_EQ(lines[2], 11u);  // __builtin_cpu_is("znver3")
}

TEST(LintCpuProbe, GoodFixtureIsClean) {
  const std::vector<Violation> vs =
      LintFixtureAs("cpu_probe_good.cc", "src/la/cpu_probe_good.cc");
  for (const Violation& v : vs) ADD_FAILURE() << FormatViolation(v);
}

TEST(LintCpuProbe, OnlyTheDispatchUnitAndNonSrcMayProbe) {
  // The dispatch unit is where the probe lives; tests and tools may ask the
  // CPU whatever they need.
  for (const std::string& path :
       {std::string("src/la/cpu_dispatch.cc"),
        std::string("tests/cpu_probe_bad.cc"),
        std::string("tools/cpu_probe_bad.cc")}) {
    const std::vector<Violation> vs = LintFixtureAs("cpu_probe_bad.cc", path);
    EXPECT_FALSE(FiredRules(vs).count("one-cpu-probe")) << path;
  }
}

TEST(LintCollect, SkipsTestdataAndNonSources) {
  // Collecting over tools/ must not pick up the fixtures this test lints.
  const std::vector<std::string> files =
      CollectSourceFiles(SUBREC_LINT_REPO_ROOT, {"tools"});
  EXPECT_FALSE(files.empty());
  for (const std::string& f : files) {
    EXPECT_EQ(f.find("testdata"), std::string::npos) << f;
  }
}

}  // namespace
}  // namespace subrec::lint

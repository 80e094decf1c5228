// Self-test for tools/dj_alloc.cc: runs the real binary (path injected by
// CMake as DJ_ALLOC_BIN) over miniature fixture repos in
// tests/tools/testdata/alloc/ and asserts the may-allocate fixpoint fires
// at the expected file:line with the expected witness chain, that both
// suppression forms silence it, that annotation inheritance crosses the
// declaration/definition split, and that the real tree exits 0.
#include <sys/wait.h>

#include <cstdio>
#include <string>

#include <gtest/gtest.h>

namespace {

struct ToolRun {
  int exit_code = -1;
  std::string output;
};

ToolRun RunAlloc(const std::string& args) {
  const std::string cmd = std::string(DJ_ALLOC_BIN) + " " + args + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr) << "failed to launch: " << cmd;
  ToolRun run;
  if (!pipe) return run;
  char buf[512];
  while (fgets(buf, sizeof(buf), pipe) != nullptr) run.output += buf;
  const int rc = pclose(pipe);
  run.exit_code = WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
  return run;
}

std::string Fixture(const std::string& subdir) {
  return std::string(DJ_ALLOC_TESTDATA) + "/" + subdir;
}

TEST(DjAllocTest, CleanTreeExitsZero) {
  // An allocation-free DJ_NOALLOC chain, plus an allocating function that
  // no annotated root reaches and an allocating namesake of the root in
  // another namespace (keys are namespace-qualified): nothing to report.
  const ToolRun run = RunAlloc("--root " + Fixture("clean"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("dj_alloc: clean"), std::string::npos)
      << run.output;
}

TEST(DjAllocTest, DirectAllocationInAnnotatedFunctionReports) {
  // Grow() is DJ_NOALLOC via its declaration only — the finding proves the
  // definition inherits the header contract — and allocates with `new` in
  // its own body.
  const ToolRun run = RunAlloc("--root " + Fixture("direct"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("src/direct.cc:8: error: [noalloc]"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find(
                "DJ_NOALLOC function 'fixture::Grow' may allocate: "
                "new (src/direct.cc:9)"),
            std::string::npos)
      << run.output;
}

TEST(DjAllocTest, TransitiveCrossTuChainReportsWitness) {
  // Root() (root.cc) -> Leaf() (leaf.cc) -> std::to_string: the fixpoint
  // crosses the translation-unit boundary and prints the full chain down
  // to the allocating line.
  const ToolRun run = RunAlloc("--root " + Fixture("transitive"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("src/root.cc:11: error: [noalloc]"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find(
                "DJ_NOALLOC function 'fixture::Root' may allocate: "
                "fixture::Leaf() -> to_string() (src/leaf.cc:7)"),
            std::string::npos)
      << run.output;
}

TEST(DjAllocTest, AttributedClassMembersKeyByTheirClass) {
  // `class [[nodiscard]] DJ_CAPABILITY("status") alignas(8) Status` and
  // `struct alignas(16) Builder` both define a member Make: everything
  // between the class-key and the name is skipped, so Status::Make()
  // resolves to its own allocating body instead of being dropped as an
  // ambiguous name.
  const ToolRun run = RunAlloc("--root " + Fixture("attributed"));
  EXPECT_EQ(run.exit_code, 1) << run.output;
  EXPECT_NE(run.output.find("src/attributed.cc:23: error: [noalloc]"),
            std::string::npos)
      << run.output;
  EXPECT_NE(run.output.find(
                "DJ_NOALLOC function 'fixture::Check' may allocate: "
                "Status::Make() -> new (src/attributed.cc:11)"),
            std::string::npos)
      << run.output;
}

TEST(DjAllocTest, SuppressionsSilenceEventAndEdge) {
  // Same-line allow() on a growth event and line-above allow() on a call
  // edge: both forms make the fixture clean.
  const ToolRun run = RunAlloc("--root " + Fixture("suppressed"));
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("dj_alloc: clean"), std::string::npos)
      << run.output;
}

TEST(DjAllocTest, RealTreeIsClean) {
  // The actual repository must stay allocation-disciplined: every
  // DJ_NOALLOC chain clean, every suppression justified in-line.
  const ToolRun run = RunAlloc(std::string("--root ") + DJ_SOURCE_ROOT);
  EXPECT_EQ(run.exit_code, 0) << run.output;
}

TEST(DjAllocTest, ListRulesMentionsSuppressionSyntax) {
  const ToolRun run = RunAlloc("--list-rules");
  EXPECT_EQ(run.exit_code, 0) << run.output;
  EXPECT_NE(run.output.find("noalloc"), std::string::npos) << run.output;
  EXPECT_NE(run.output.find("dj_alloc: allow(alloc)"), std::string::npos)
      << run.output;
}

TEST(DjAllocTest, UnknownFlagFailsUsage) {
  const ToolRun run = RunAlloc("--bogus");
  EXPECT_EQ(run.exit_code, 2) << run.output;
}

}  // namespace

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "tests/testing.h"

namespace lqdb {
namespace {

#ifndef LQDB_SHELL_BINARY
#define LQDB_SHELL_BINARY "lqdb_shell"
#endif

/// Runs the shell on a script in batch mode and captures stdout.
std::string RunShellScript(const std::string& script_body) {
  const std::string script_path =
      ::testing::TempDir() + "/shell_test_script.txt";
  {
    std::ofstream out(script_path);
    out << script_body;
  }
  std::string cmd = std::string(LQDB_SHELL_BINARY) + " --batch " +
                    script_path + " 2>&1";
  FILE* pipe = popen(cmd.c_str(), "r");
  EXPECT_NE(pipe, nullptr);
  std::string output;
  char buffer[512];
  while (pipe != nullptr && fgets(buffer, sizeof(buffer), pipe) != nullptr) {
    output += buffer;
  }
  if (pipe != nullptr) pclose(pipe);
  std::remove(script_path.c_str());
  return output;
}

TEST(ShellTest, AnswersQueriesEndToEnd) {
  std::string out = RunShellScript(R"(unknown Jack
fact MURDERER(Jack)
known Victoria Disraeli
distinct Jack Victoria
exact (x) . !MURDERER(x)
approx (x) . !MURDERER(x)
physical (x) . !MURDERER(x)
)");
  // Exact and approx agree: only Victoria is provably innocent.
  size_t first = out.find("{(Victoria)}");
  ASSERT_NE(first, std::string::npos) << out;
  EXPECT_NE(out.find("{(Victoria)}", first + 1), std::string::npos) << out;
  // The physical engine wrongly clears Disraeli and Victoria both.
  EXPECT_NE(out.find("{(Victoria), (Disraeli)}"), std::string::npos) << out;
}

TEST(ShellTest, PossibleAnswers) {
  std::string out = RunShellScript(R"(unknown Jack
fact MURDERER(Jack)
known Victoria
distinct Jack Victoria
possible (x) . MURDERER(x)
)");
  // Jack is possible (certain, even); Victoria is excluded by the axiom.
  EXPECT_NE(out.find("{(Jack)}"), std::string::npos) << out;
}

TEST(ShellTest, ShowAndTheory) {
  std::string out = RunShellScript(R"(fact TEACHES(Socrates, Plato)
show
theory
)");
  EXPECT_NE(out.find("fully specified: yes"), std::string::npos) << out;
  EXPECT_NE(out.find("TEACHES(Socrates, Plato)"), std::string::npos) << out;
  EXPECT_NE(out.find("domain closure"), std::string::npos) << out;
}

TEST(ShellTest, PlanShowsQHatAndItsRaPlan) {
  std::string out = RunShellScript(R"(fact P(A)
known B
plan (x) . !P(x)
)");
  EXPECT_NE(out.find("Q^ ="), std::string::npos) << out;
  EXPECT_NE(out.find("__alpha_P"), std::string::npos) << out;
  EXPECT_NE(out.find("Scan __alpha_P"), std::string::npos) << out;
  EXPECT_EQ(out.find("error:"), std::string::npos) << out;
}

TEST(ShellTest, SaveAndLoadRoundTrip) {
  const std::string db_path = ::testing::TempDir() + "/shell_roundtrip.lqdb";
  std::string out = RunShellScript("fact R(A, B)\nsave " + db_path +
                                   "\nload " + db_path +
                                   "\nexact (x) . exists y. R(x, y)\n");
  EXPECT_NE(out.find("loaded 2 constants, 1 facts"), std::string::npos)
      << out;
  EXPECT_NE(out.find("{(A)}"), std::string::npos) << out;
  std::remove(db_path.c_str());
}

TEST(ShellTest, ReportsErrorsWithoutDying) {
  std::string out = RunShellScript(R"(known A
exact this is not ( a query
frobnicate
fact Broken(
exact true
)");
  EXPECT_NE(out.find("error:"), std::string::npos) << out;
  EXPECT_NE(out.find("unknown command"), std::string::npos) << out;
  // Still alive for the final valid query: true holds in every model.
  EXPECT_NE(out.find("{()}"), std::string::npos) << out;
}

TEST(ShellTest, EngineRegistryCommands) {
  std::string out = RunShellScript(R"(unknown Jack
fact MURDERER(Jack)
known Victoria
distinct Jack Victoria
engines
set engine batched-exact
set threads 2
query (x) . !MURDERER(x)
set engine approx
query (x) . !MURDERER(x)
set engine exact
query (x) . !MURDERER(x)
)");
  // `engines` lists every builtin with capability flags.
  for (const char* name :
       {"brute", "batched-exact", "exact", "approx", "physical"}) {
    EXPECT_NE(out.find(name), std::string::npos) << out;
  }
  // All three selected engines clear exactly Victoria.
  size_t pos = 0;
  int hits = 0;
  while ((pos = out.find("{(Victoria)}", pos)) != std::string::npos) {
    ++hits;
    ++pos;
  }
  EXPECT_EQ(hits, 3) << out;
  EXPECT_EQ(out.find("error:"), std::string::npos) << out;
}

TEST(ShellTest, ExplainShowsPlanAndFallback) {
  // A 12-deep `<->` chain compiles to a DAG of about a hundred nodes;
  // printed as a tree, this script's output was 5.8 MB.
  std::string chain = "MURDERER(Jack)";
  for (int i = 0; i < 12; ++i) chain = "(" + chain + " <-> MURDERER(Jack))";
  std::string out = RunShellScript(R"(unknown Jack
fact MURDERER(Jack)
known Victoria
explain (x) . !MURDERER(x)
explain exists2 S/1. exists x. S(x)
explain )" + chain + "\n");
  // The compilable query gets a plan tree and node counts.
  EXPECT_NE(out.find("AntiJoin"), std::string::npos) << out;
  EXPECT_NE(out.find("unique"), std::string::npos) << out;
  // The second-order query reports the exact engine's fallback instead.
  EXPECT_NE(out.find("falls back to the batched evaluator"),
            std::string::npos)
      << out;
  // The chain's shared subplans print once each.
  EXPECT_NE(out.find("(shared)"), std::string::npos);
  EXPECT_LT(out.size(), 64u * 1024u);
  EXPECT_EQ(out.find("error:"), std::string::npos) << out;
}

TEST(ShellTest, SetRejectsBadValues) {
  std::string out = RunShellScript(R"(set engine frobnicator
set threads banana
set threads 100000
set max_mappings 0
set flux_capacitor 11
)");
  // Five errors, shell stays alive for each.
  size_t pos = 0;
  int errors = 0;
  while ((pos = out.find("error:", pos)) != std::string::npos) {
    ++errors;
    ++pos;
  }
  EXPECT_EQ(errors, 5) << out;
  // The unknown-engine error names the registered engines.
  EXPECT_NE(out.find("batched-exact"), std::string::npos) << out;
}

TEST(ShellTest, SetRejectsTrailingGarbage) {
  // std::stoi prefix parsing used to accept "4x" as 4; strict parsing must
  // reject any trailing garbage and leave the previous settings intact.
  std::string out = RunShellScript(R"(set threads 4x
set max_mappings 10q
set threads 1e3
set max_mappings 0x10
set threads 2
set max_mappings 50
engines
)");
  size_t pos = 0;
  int errors = 0;
  while ((pos = out.find("error:", pos)) != std::string::npos) {
    ++errors;
    ++pos;
  }
  EXPECT_EQ(errors, 4) << out;
  // The clean values after the garbage ones still apply.
  EXPECT_NE(out.find("threads = 2"), std::string::npos) << out;
  EXPECT_NE(out.find("max_mappings = 50"), std::string::npos) << out;
  EXPECT_NE(out.find("threads: 2   max_mappings: 50"), std::string::npos)
      << out;
}

TEST(ShellTest, ParallelExactAgreesInTheShell) {
  // The same Theorem 1 query through 1, 2 and 4 threads — answers must be
  // identical (`set threads` fans the exact engine's sweep across
  // workers).
  std::string out = RunShellScript(R"(unknown Jack
unknown Nemo
fact MURDERER(Jack)
known Victoria Disraeli
distinct Jack Victoria
exact (x) . !MURDERER(x)
set threads 2
exact (x) . !MURDERER(x)
set threads 4
exact (x) . !MURDERER(x)
)");
  EXPECT_EQ(out.find("error:"), std::string::npos) << out;
  // Three identical answers: Nemo could be the murderer, so only Victoria
  // is provably innocent.
  size_t pos = 0;
  int hits = 0;
  while ((pos = out.find("{(Victoria)}", pos)) != std::string::npos) {
    ++hits;
    ++pos;
  }
  EXPECT_EQ(hits, 3) << out;
}

TEST(ShellTest, PrepareExecuteRoundTrip) {
  std::string out = RunShellScript(R"(unknown Jack
fact MURDERER(Jack)
known Victoria
distinct Jack Victoria
prepare (x) . !MURDERER(x)
execute
prepare (x) . !MURDERER(x)
execute
)");
  EXPECT_EQ(out.find("error:"), std::string::npos) << out;
  // First prepare compiles, second hits the shared statement cache.
  EXPECT_NE(out.find("(compiled)"), std::string::npos) << out;
  EXPECT_NE(out.find("(cache hit)"), std::string::npos) << out;
  // Both executions return the same certain answer.
  size_t pos = 0;
  int hits = 0;
  while ((pos = out.find("{(Victoria)}", pos)) != std::string::npos) {
    ++hits;
    ++pos;
  }
  EXPECT_EQ(hits, 2) << out;
}

TEST(ShellTest, SessionCommandsSwitchEngines) {
  std::string out = RunShellScript(R"(unknown Jack
fact MURDERER(Jack)
known Victoria
distinct Jack Victoria
session
query (x) . !MURDERER(x)
session new batched-exact
query (x) . !MURDERER(x)
session
session use 0
query (x) . !MURDERER(x)
stats
)");
  EXPECT_EQ(out.find("error:"), std::string::npos) << out;
  // Before any query there are no sessions; afterwards both engines list.
  EXPECT_NE(out.find("no sessions"), std::string::npos) << out;
  EXPECT_NE(out.find("session #1 (batched-exact) opened and selected"),
            std::string::npos)
      << out;
  EXPECT_NE(out.find("session #0 (exact) selected"), std::string::npos)
      << out;
  // All three queries (exact, batched-exact, exact again) agree.
  size_t pos = 0;
  int hits = 0;
  while ((pos = out.find("{(Victoria)}", pos)) != std::string::npos) {
    ++hits;
    ++pos;
  }
  EXPECT_EQ(hits, 3) << out;
  // `stats` reports the shared cache: the same text prepared for two
  // engines is two cached statements, and the exact session's second query
  // was a cache hit.
  EXPECT_NE(out.find("2 cached queries"), std::string::npos) << out;
  EXPECT_NE(out.find("sessions opened"), std::string::npos) << out;
}

/// `set memo` switches the cross-query result cache and nothing else: with
/// it off a repeated query runs its sweep again, with it on the repeat is
/// served from the answer the first run stored.
TEST(ShellTest, SetMemoSwitchesTheResultCache) {
  const std::string out = RunShellScript(R"(unknown Jack
fact MURDERER(Jack)
known Victoria
distinct Jack Victoria
set memo off
exact (x) . !MURDERER(x)
exact (x) . !MURDERER(x)
stats
set memo on
exact (x) . !MURDERER(x)
exact (x) . !MURDERER(x)
stats
)");
  EXPECT_EQ(out.find("error:"), std::string::npos) << out;
  const size_t on = out.find("memo = on");
  ASSERT_NE(on, std::string::npos) << out;
  const std::string off_part = out.substr(0, on);
  const std::string on_part = out.substr(on);
  EXPECT_NE(off_part.find("memo = off"), std::string::npos) << out;
  EXPECT_NE(off_part.find("result cache: 0 hits"), std::string::npos) << out;
  EXPECT_NE(off_part.find(" mappings, ok, memo"), std::string::npos) << out;
  EXPECT_EQ(off_part.find(", cached"), std::string::npos) << out;
  EXPECT_NE(on_part.find("result cache: 1 hits"), std::string::npos) << out;
  EXPECT_NE(on_part.find(" mappings, ok, cached, memo"), std::string::npos)
      << out;
  // `set memo on` leaves the kernel memo at its default, which is off for
  // the compiled check the `exact` engine runs here.
  EXPECT_NE(on_part.find("kernel memo: 0 row hits, 0 row misses"),
            std::string::npos)
      << out;
}

TEST(ShellTest, ExecuteRejectsBogusHandles) {
  std::string out = RunShellScript(R"(known A
fact P(A)
execute
execute 999999
execute banana
prepare (x) . P(x)
execute
)");
  // Nothing prepared, an unissued handle, and a non-numeric one: three
  // errors, then the valid prepared statement still runs.
  size_t pos = 0;
  int errors = 0;
  while ((pos = out.find("error:", pos)) != std::string::npos) {
    ++errors;
    ++pos;
  }
  EXPECT_EQ(errors, 3) << out;
  EXPECT_NE(out.find("{(A)}"), std::string::npos) << out;
}

#ifdef LQDB_TEST_DATA_DIR
/// Smoke: the checked-in session script touches every shell command; the
/// whole run must complete without an error or unknown-command line.
TEST(ShellTest, ScriptedSessionCoversEveryCommand) {
  const std::string script = testing::ReadFileToString(
      std::string(LQDB_TEST_DATA_DIR) + "/shell_smoke_session.txt");
  ASSERT_FALSE(script.empty());
  std::string out = RunShellScript(script);
  // The session's `save` writes into the test's working directory.
  std::remove("shell_smoke_roundtrip.tmp.lqdb");
  EXPECT_EQ(out.find("error:"), std::string::npos) << out;
  EXPECT_EQ(out.find("unknown command"), std::string::npos) << out;
  // The exact and approx engines both clear exactly Victoria.
  size_t first = out.find("{(Victoria)}");
  EXPECT_NE(first, std::string::npos) << out;
  EXPECT_NE(out.find("{(Victoria)}", first + 1), std::string::npos) << out;
}
#endif  // LQDB_TEST_DATA_DIR

#ifdef LQDB_EXAMPLES_DATA_DIR
/// Smoke: every example world under examples/data/ loads in the shell and
/// answers its embedded `# query:` lines under all three engines without a
/// single error line — so the shipped scenarios can never silently rot.
TEST(ShellTest, LoadsAndQueriesEveryExampleWorld) {
  size_t worlds = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator(LQDB_EXAMPLES_DATA_DIR)) {
    if (entry.path().extension() != ".lqdb") continue;
    ++worlds;
    SCOPED_TRACE(entry.path().string());

    const std::string text =
        testing::ReadFileToString(entry.path().string());

    std::string script = "load " + entry.path().string() + "\nshow\ntheory\n";
    const auto queries = testing::EmbeddedQueries(text);
    EXPECT_FALSE(queries.empty()) << "data file carries no `# query:` lines";
    for (const std::string& query : queries) {
      script += "exact " + query + "\napprox " + query + "\npossible " +
                query + "\n";
    }

    std::string out = RunShellScript(script);
    EXPECT_NE(out.find("loaded "), std::string::npos) << out;
    EXPECT_EQ(out.find("error:"), std::string::npos) << out;
    EXPECT_EQ(out.find("unknown command"), std::string::npos) << out;
  }
  EXPECT_GE(worlds, 7u) << "expected one data file per example binary";
}

/// `explain` and `plan` parse through the service like every query
/// command, so a constant they intern grows `C` in step with the result
/// cache's change epochs: the next `exact` is recomputed over the grown
/// `C` instead of served from the cache.
TEST(ShellTest, ExplainAndPlanGrowConstantsThroughTheService) {
  // Holds while every constant occurs in a fact, as in quickstart; fails
  // once `Zed`, which occurs in none, joins `C`.
  const std::string sentence =
      "exact () . forall x. exists y. EMP_DEPT(x, y) | EMP_DEPT(y, x) | "
      "DEPT_MGR(x, y) | DEPT_MGR(y, x)\n";
  for (const std::string command : {"explain", "plan"}) {
    SCOPED_TRACE(command);
    const std::string out = RunShellScript(
        "load " + std::string(LQDB_EXAMPLES_DATA_DIR) + "/quickstart.lqdb\n" +
        sentence + command + " (x) . EMP_DEPT(x, Zed)\n" + sentence);
    EXPECT_EQ(out.find("error:"), std::string::npos) << out;
    std::vector<std::string> answers;
    std::istringstream lines(out);
    for (std::string line; std::getline(lines, line);) {
      if (line == "{()}" || line == "{}") answers.push_back(line);
    }
    EXPECT_EQ(answers, (std::vector<std::string>{"{()}", "{}"})) << out;
  }
}
#endif  // LQDB_EXAMPLES_DATA_DIR

}  // namespace
}  // namespace lqdb

// `# expect:` directives: every form passing and failing on tiny files,
// typed line-numbered errors before any trial runs, and the rumor_run
// contract — stdout and --csv unchanged by directives, exit 3 on a failed
// claim, and no verdict at all on a truncated run.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#include "experiments/expect.hpp"
#include "experiments/scenario.hpp"

extern char** environ;

namespace rumor {
namespace {

namespace fs = std::filesystem;

// Parses, validates and runs `text`, then checks its directives.
std::vector<ExpectVerdict> run_and_check(const std::string& text) {
  std::string error;
  std::istringstream in(text);
  const auto specs = parse_scenario_stream(in, &error);
  EXPECT_TRUE(specs) << error;
  const auto expectations = parse_expectations(text, &error);
  EXPECT_TRUE(expectations) << error;
  if (!specs || !expectations) return {};
  EXPECT_TRUE(validate_expectations(*expectations, *specs, &error)) << error;
  const auto results = run_scenarios(*specs, &error);
  EXPECT_TRUE(results) << error;
  if (!results) return {};
  return check_expectations(*expectations, *results);
}

// The parse-or-validate error of `text`, or "" when it is accepted.
std::string directive_error(const std::string& text) {
  std::string error;
  std::istringstream in(text);
  const auto specs = parse_scenario_stream(in, &error);
  EXPECT_TRUE(specs) << error;
  if (!specs) return error;
  const auto expectations = parse_expectations(text, &error);
  if (!expectations) return error;
  if (!validate_expectations(*expectations, *specs, &error)) return error;
  return "";
}

// Three star sizes per protocol; push grows like n log n, the others stay
// near-constant, and push-pull from a leaf takes exactly two rounds.
constexpr const char* kStarRows =
    "star(leaves=64..256) push           source=1 trials=4 label=push\n"
    "star(leaves=64..256) push-pull      source=1 trials=4 label=ppull\n"
    "star(leaves=64..256) visit-exchange source=1 trials=4 label=visit\n";

TEST(ScenarioExpect, EveryFormPassesAndFails) {
  const std::string text = std::string(kStarRows) +
      "random_regular(n=256,d=8) visit-exchange(alpha={0.25,1,4}) trials=4 "
      "label=alpha\n"
      "star(leaves=64) meet-exchange(lazy=never,max_rounds=50) source=1 "
      "trials=4 label=stuck\n"
      "# expect: exponent(push) > 0.8\n"              // line 6
      "# expect: exponent(push) < 0.5\n"
      "# expect: max(ppull) <= 2\n"
      "# expect: max(ppull) < 2\n"
      "# expect: min_log(visit) > 0.25\n"             // line 10
      "# expect: min_log(visit) > 100\n"
      "# expect: ratio(visit, push) < 0.5\n"
      "# expect: ratio(visit, push) > 1\n"
      "# expect: band(push, push) <= 1\n"
      "# expect: band(push, visit) <= 1.5\n"          // line 15
      "# expect: additive_log(visit, push) < 0\n"
      "# expect: additive_log(push, visit) < 1\n"
      "# expect: stretch(push, push, 0) < 1.01\n"
      "# expect: stretch(push, visit, 0.1) < 4\n"
      "# expect: decreasing(alpha) <= 1.15\n"         // line 20
      "# expect: decreasing(push) <= 1\n"
      "# expect: incomplete(stuck) > 0\n"
      "# expect: incomplete(stuck) == 0\n";
  const auto verdicts = run_and_check(text);
  ASSERT_EQ(verdicts.size(), 18u);
  for (std::size_t i = 0; i < verdicts.size(); ++i) {
    EXPECT_EQ(verdicts[i].line, 6 + i);
    // Directives alternate: the first of each pair holds, the second not.
    EXPECT_EQ(verdicts[i].ok, i % 2 == 0)
        << verdict_line(verdicts[i]);
  }
  EXPECT_EQ(verdicts[2].measured, 2.0);  // push-pull from a leaf: 2 rounds
  EXPECT_EQ(verdicts[8].measured, 1.0);  // a series against itself
  EXPECT_EQ(verdicts[16].measured, 4.0);  // all four trials stuck
}

TEST(ScenarioExpect, SeriesIsTheLabelOrItsSlashChildren) {
  // "pp" must not pick up "ppx" (push, far above two rounds on the star).
  const auto verdicts = run_and_check(
      "star(leaves=64) push-pull source=1 trials=3 label=pp\n"
      "star(leaves=64) push-pull source=1 trials=3 label=pp/again\n"
      "star(leaves=64) push      source=1 trials=3 label=ppx\n"
      "# expect: max(pp) <= 2\n"
      "# expect: max(ppx) > 2\n");
  ASSERT_EQ(verdicts.size(), 2u);
  EXPECT_TRUE(verdicts[0].ok) << verdict_line(verdicts[0]);
  EXPECT_TRUE(verdicts[1].ok) << verdict_line(verdicts[1]);
}

TEST(ScenarioExpect, VerdictLineNamesLineClaimAndMeasurement) {
  const ExpectVerdict ok{7, "max(pp) <= 2", 2.0, true};
  EXPECT_EQ(verdict_line(ok), "[ OK ] line 7: max(pp) <= 2 — measured 2");
  const ExpectVerdict fail{9, "exponent(push) < 0.5", 1.25, false};
  EXPECT_EQ(verdict_line(fail),
            "[FAIL] line 9: exponent(push) < 0.5 — measured 1.25");
}

TEST(ScenarioExpect, MalformedDirectivesAreLineNumberedErrors) {
  const std::string rows =
      "star(leaves=64..256) push source=1 trials=2 label=push\n"
      "star(leaves=64..256) visit-exchange source=1 trials=2 label=visit\n";
  const struct {
    const char* directive;
    const char* reason;
  } cases[] = {
      {"# expect: exponent(push) >", "bad threshold"},
      {"# expect: exponent(push) > fast", "bad threshold"},
      {"# expect: exponent(push) 0.8", "expected a comparison"},
      {"# expect: exponent push > 0.8", "expected \"<form>"},
      {"# expect: wobble(push) < 1", "unknown form \"wobble\""},
      {"# expect: ratio(push) < 1", "ratio takes 2 arguments, got 1"},
      {"# expect: exponent(push, visit) < 1", "takes 1 argument, got 2"},
      {"# expect: ratio(push, ) < 1", "empty series label"},
      {"# expect: exponent(push) < inf", "bad threshold"},
  };
  for (const auto& c : cases) {
    const std::string error = directive_error(rows + c.directive + "\n");
    EXPECT_NE(error.find("line 3:"), std::string::npos)
        << c.directive << " -> " << error;
    EXPECT_NE(error.find(c.reason), std::string::npos)
        << c.directive << " -> " << error;
  }
}

TEST(ScenarioExpect, OutOfRangeNumbersAreErrors) {
  const std::string rows =
      "star(leaves=64..256) push source=1 trials=2 label=push\n"
      "star(leaves=64..256) visit-exchange source=1 trials=2 label=visit\n";
  for (const char* directive : {
           "# expect: stretch(push, visit, 1.5) < 4",
           "# expect: stretch(push, visit, -0.1) < 4",
           "# expect: band(push, visit) <= 0.5",
           "# expect: ratio(push, visit) < 0",
           "# expect: decreasing(push) <= -1",
           "# expect: incomplete(push) == 1.5",
           "# expect: incomplete(push) > -1",
       }) {
    const std::string error = directive_error(rows + directive + "\n");
    EXPECT_NE(error.find("line 3:"), std::string::npos)
        << directive << " -> " << error;
    EXPECT_NE(error.find("range"), std::string::npos)
        << directive << " -> " << error;
  }
}

TEST(ScenarioExpect, UnknownLabelsAndShortSeriesFailValidation) {
  const std::string rows =
      "star(leaves=64..256) push source=1 trials=2 label=push\n"  // 3 rows
      "star(leaves={64,128}) visit-exchange source=1 trials=2 label=visit\n";
  EXPECT_EQ(directive_error(rows), "");
  const struct {
    const char* directive;
    const char* reason;
  } cases[] = {
      {"# expect: max(nosuch) < 1", "no rows labelled \"nosuch\""},
      {"# expect: max(pus) < 1", "no rows labelled \"pus\""},
      {"# expect: exponent(visit) < 1", "at least 3 rows"},
      {"# expect: ratio(push, visit) < 1", "has 3 rows but \"visit\" has 2"},
      {"# expect: decreasing(push/64) <= 1", "at least 2 rows"},
  };
  for (const auto& c : cases) {
    const std::string error = directive_error(rows + c.directive + "\n");
    EXPECT_NE(error.find("line 3:"), std::string::npos)
        << c.directive << " -> " << error;
    EXPECT_NE(error.find(c.reason), std::string::npos)
        << c.directive << " -> " << error;
  }
}

TEST(ScenarioExpect, PlainCommentsAndTrailingDirectivesParse) {
  std::string error;
  const auto expectations = parse_expectations(
      "# Expected separation: push >> walks (prose, not a directive)\n"
      "# expectation: also prose\n"
      "star(leaves=64) push source=1 label=p  # expect: max(p) > 2\n"
      "#expect:max(p)>=3\n",
      &error);
  ASSERT_TRUE(expectations) << error;
  ASSERT_EQ(expectations->size(), 2u);
  EXPECT_EQ((*expectations)[0].line, 3u);
  EXPECT_EQ((*expectations)[0].text, "max(p) > 2");
  EXPECT_EQ((*expectations)[1].line, 4u);
  EXPECT_EQ((*expectations)[1].op, ExpectOp::ge);
  EXPECT_EQ((*expectations)[1].threshold, 3.0);
}

// ---- rumor_run end to end ----------------------------------------------

class ScenarioExpectCli : public ::testing::Test {
 protected:
  void SetUp() override {
    // The pid keeps concurrent test processes on one host apart.
    dir_ = fs::temp_directory_path() /
           ("rumor_expect_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string write_file(const std::string& name, const std::string& text) {
    const fs::path path = dir_ / name;
    std::ofstream(path) << text;
    return path.string();
  }

  std::string read_file(const std::string& name) const {
    std::ifstream in(dir_ / name);
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
  }

  // Starts rumor_run with stdout/stderr in <tag>.out / <tag>.err.
  pid_t spawn(const std::string& tag, const std::vector<std::string>& args) {
    std::vector<std::string> argv_text{RUMOR_RUN_PATH};
    argv_text.insert(argv_text.end(), args.begin(), args.end());
    std::vector<char*> argv;
    for (std::string& a : argv_text) argv.push_back(a.data());
    argv.push_back(nullptr);
    const std::string out = (dir_ / (tag + ".out")).string();
    const std::string err = (dir_ / (tag + ".err")).string();
    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_addopen(&actions, STDOUT_FILENO, out.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    posix_spawn_file_actions_addopen(&actions, STDERR_FILENO, err.c_str(),
                                     O_WRONLY | O_CREAT | O_TRUNC, 0644);
    pid_t pid = -1;
    const int rc = posix_spawn(&pid, argv[0], &actions, nullptr, argv.data(),
                               environ);
    posix_spawn_file_actions_destroy(&actions);
    EXPECT_EQ(rc, 0) << "cannot start " << argv[0];
    return rc == 0 ? pid : -1;
  }

  static int wait_exit(pid_t pid) {
    int status = 0;
    if (pid <= 0 || waitpid(pid, &status, 0) != pid) return -1;
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  }

  int run(const std::string& tag, const std::vector<std::string>& args) {
    return wait_exit(spawn(tag, args));
  }

  fs::path dir_;
};

constexpr const char* kCliRows =
    "star(leaves=64..256) push-pull      source=1 trials=3 label=ppull\n"
    "star(leaves=64..256) visit-exchange source=1 trials=3 label=visit\n";

TEST_F(ScenarioExpectCli, StdoutAndCsvIdenticalWithAndWithoutDirectives) {
  const std::string plain = write_file("plain.scn", kCliRows);
  const std::string claimed = write_file(
      "claimed.scn", std::string(kCliRows) +
                         "# expect: max(ppull) <= 2\n"
                         "# expect: ratio(ppull, visit) > 1000\n");
  const std::string plain_csv = (dir_ / "plain.csv").string();
  const std::string claimed_csv = (dir_ / "claimed.csv").string();
  EXPECT_EQ(run("plain", {"--csv=" + plain_csv, plain}), 0);
  EXPECT_EQ(run("claimed", {"--csv=" + claimed_csv, claimed}), 3);
  EXPECT_FALSE(read_file("plain.out").empty());
  EXPECT_EQ(read_file("plain.out"), read_file("claimed.out"));
  EXPECT_FALSE(read_file("plain.csv").empty());
  EXPECT_EQ(read_file("plain.csv"), read_file("claimed.csv"));
  // The verdicts went to stderr only.
  EXPECT_EQ(read_file("plain.err").find("line "), std::string::npos);
  const std::string err = read_file("claimed.err");
  EXPECT_NE(err.find("[ OK ] line 3: max(ppull) <= 2 — measured 2"),
            std::string::npos)
      << err;
  EXPECT_NE(err.find("[FAIL] line 4: ratio(ppull, visit) > 1000"),
            std::string::npos)
      << err;
}

TEST_F(ScenarioExpectCli, ExitCodeIsZeroWhenClaimsHoldAndThreeWhenOneFails) {
  const std::string pass = write_file(
      "pass.scn", std::string(kCliRows) + "# expect: max(ppull) <= 2\n");
  const std::string fail = write_file(
      "fail.scn", std::string(kCliRows) + "# expect: max(ppull) < 2\n");
  EXPECT_EQ(run("pass", {pass}), 0);
  EXPECT_NE(read_file("pass.err").find("[ OK ] line 3"), std::string::npos);
  EXPECT_EQ(run("fail", {fail}), 3);
  EXPECT_NE(read_file("fail.err").find("[FAIL] line 3"), std::string::npos);
}

TEST_F(ScenarioExpectCli, BadDirectiveExitsTwoBeforeAnyTrialRuns) {
  const std::string csv = (dir_ / "never.csv").string();
  for (const char* directive :
       {"# expect: max(ppull) <<= 2\n", "# expect: max(nosuch) <= 2\n"}) {
    const std::string file =
        write_file("bad.scn", std::string(kCliRows) + directive);
    EXPECT_EQ(run("bad", {"--csv=" + csv, file}), 2) << directive;
    EXPECT_NE(read_file("bad.err").find("line 3:"), std::string::npos)
        << read_file("bad.err");
    // Nothing ran: no table header, and the CSV sink was never opened.
    EXPECT_EQ(read_file("bad.out"), "");
    EXPECT_FALSE(fs::exists(csv));
    EXPECT_EQ(run("dry", {"--dry-run", file}), 2) << directive;
  }
}

TEST_F(ScenarioExpectCli, InterruptedRunEvaluatesNoDirectiveAndExitsOne) {
  // Row 1 finishes at once; row 2 would run for minutes. SIGINT once row 1
  // is reported leaves a truncated run, which checks no claim.
  const std::string file = write_file(
      "long.scn",
      "star(leaves=64) push-pull source=1 trials=2 label=quick\n"
      "cycle(n=2048) visit-exchange trials=1m label=long\n"
      "# expect: max(quick) <= 2\n");
  const pid_t pid = spawn("long", {"--progress", "--jobs=2", file});
  ASSERT_GT(pid, 0);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (read_file("long.err").find("progress: 1/2") == std::string::npos &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ASSERT_NE(read_file("long.err").find("progress: 1/2"), std::string::npos);
  ::kill(pid, SIGINT);
  EXPECT_EQ(wait_exit(pid), 1);
  const std::string err = read_file("long.err");
  EXPECT_NE(err.find("interrupted"), std::string::npos) << err;
  EXPECT_EQ(err.find("[ OK ]"), std::string::npos) << err;
  EXPECT_EQ(err.find("[FAIL]"), std::string::npos) << err;
}

}  // namespace
}  // namespace rumor

// The per-pass draw store: rows naming one random (graph spec, seed) share
// a single draw, from preparation through the run. Graph::uid() is
// process-monotone, so the uid delta across a call counts the graphs it
// constructed. Also pins that sharing is invisible in results: every row
// reports what it reports when run alone.
#include <gtest/gtest.h>

#include <sstream>

#include "experiments/report.hpp"
#include "experiments/scenario.hpp"
#include "graph/generators.hpp"

namespace rumor {
namespace {

// Constructs one throwaway graph and returns its uid: the next uid the
// process hands out, minus one.
std::uint64_t probe_uid() { return gen::cycle(3).uid(); }

std::vector<ScenarioSpec> parse_lines(const std::string& text) {
  std::istringstream in(text);
  std::string error;
  auto specs = parse_scenario_stream(in, &error);
  EXPECT_TRUE(specs) << error;
  return specs.value_or(std::vector<ScenarioSpec>{});
}

// The paper's core comparison: five protocols on one random regular draw.
constexpr const char* kFiveOnOneDraw =
    "random_regular(n=512,d=8) push trials=6\n"
    "random_regular(n=512,d=8) push-pull trials=6\n"
    "random_regular(n=512,d=8) visit-exchange trials=6\n"
    "random_regular(n=512,d=8) meet-exchange trials=6\n"
    "random_regular(n=512,d=8) hybrid trials=6\n";

// ---- Store contract -----------------------------------------------------

TEST(GraphDrawStore, KeptDrawsAreReusedAndUnkeptOnesAreNot) {
  const auto spec = GraphSpec::parse("random_regular(n=64,d=4)");
  ASSERT_TRUE(spec);
  GraphDrawStore store;
  const Graph transient = store.draw(*spec, 1, /*keep=*/false);
  const Graph kept = store.draw(*spec, 1, /*keep=*/true);
  EXPECT_NE(transient.uid(), kept.uid());
  EXPECT_EQ(store.draw(*spec, 1, /*keep=*/false).uid(), kept.uid());
  EXPECT_EQ(store.draw(*spec, 1, /*keep=*/true).uid(), kept.uid());
  EXPECT_NE(store.draw(*spec, 2, /*keep=*/true).uid(), kept.uid());
}

TEST(GraphDrawStore, FiveRowsOnOneRandomSpecShareOneDraw) {
  const auto prepared = prepare_scenarios(parse_lines(kFiveOnOneDraw));
  ASSERT_TRUE(prepared);
  ASSERT_EQ(prepared->prepared.size(), 5u);
  const std::uint64_t uid = prepared->prepared[0].graph->uid();
  for (std::size_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(prepared->prepared[i].graph) << i;
    EXPECT_FALSE(prepared->prepared[i].lazy) << i;
    EXPECT_EQ(prepared->prepared[i].graph->uid(), uid) << i;
    EXPECT_EQ(prepared->results[i].n, 512u) << i;
    EXPECT_EQ(prepared->results[i].edges, 512u * 8 / 2) << i;
  }
}

TEST(GraphDrawStore, PrepareThenRunConstructsTheSharedGraphOnce) {
  const auto specs = parse_lines(kFiveOnOneDraw);
  std::string error;
  const std::uint64_t before = probe_uid();
  auto prepared = prepare_scenarios(specs, &error);
  ASSERT_TRUE(prepared) << error;
  const auto results = run_scenarios(std::move(*prepared), &error);
  ASSERT_TRUE(results) << error;
  // One draw, then the probe itself.
  EXPECT_EQ(probe_uid() - before, 2u);
  ASSERT_EQ(results->size(), 5u);
  for (const ScenarioResult& r : *results) EXPECT_EQ(r.set.rounds.size(), 6u);

  // The spec-list entry point is the same single pass.
  const std::uint64_t again = probe_uid();
  ASSERT_TRUE(run_scenarios(specs, &error)) << error;
  EXPECT_EQ(probe_uid() - again, 2u);
}

TEST(GraphDrawStore, SeedParametersAndBackendKeyDistinctDraws) {
  const auto prepared = prepare_scenarios(parse_lines(
      "random_regular(n=256,d=8) push trials=1\n"
      "random_regular(n=256,d=8) push trials=1 seed=7\n"
      "random_regular(n=256,d=6) push trials=1\n"
      "random_regular(n=256,d=8,backend=owned) push trials=1\n"
      "erdos_renyi(n=256,p=0.05) push trials=1\n"
      "erdos_renyi(n=256,p=0.06) push trials=1\n"
      "random_regular(n=256,d=8) visit-exchange trials=1 label=again\n"));
  ASSERT_TRUE(prepared);
  std::vector<std::uint64_t> uids;
  for (const PreparedScenario& p : prepared->prepared) {
    ASSERT_TRUE(p.graph);
    uids.push_back(p.graph->uid());
  }
  // Only the last row repeats an earlier (spec, seed): the first row's.
  EXPECT_EQ(uids[6], uids[0]);
  for (std::size_t i = 0; i < 6; ++i) {
    for (std::size_t j = i + 1; j < 6; ++j) {
      EXPECT_NE(uids[i], uids[j]) << i << " vs " << j;
    }
  }
}

TEST(GraphDrawStore, FreshRowsKeepNoGraph) {
  std::string error;
  // A fresh row alone draws once to size its row and keeps nothing, so a
  // later kept row on the same key draws again.
  const std::uint64_t before = probe_uid();
  const auto prepared = prepare_scenarios(
      parse_lines("random_regular(n=256,d=8) push trials=2 fresh=on\n"
                  "random_regular(n=256,d=8) push trials=2\n"
                  "random_regular(n=256,d=8) push-pull trials=2 fresh=on\n"),
      &error);
  ASSERT_TRUE(prepared) << error;
  EXPECT_EQ(probe_uid() - before, 3u);  // fresh draw, kept draw, probe
  EXPECT_FALSE(prepared->prepared[0].graph);
  EXPECT_FALSE(prepared->prepared[2].graph);
  ASSERT_TRUE(prepared->prepared[1].graph);
  for (const ScenarioResult& r : prepared->results) {
    EXPECT_EQ(r.n, 256u);
    EXPECT_EQ(r.edges, 256u * 8 / 2);
  }
}

TEST(GraphDrawStore, LaterRowErrorsAreReportedBeforeAnyTrial) {
  const auto specs = parse_lines(
      "random_regular(n=64,d=4) push trials=3\n"
      "random_regular(n=64,d=4) visit-exchange trials=3\n"
      "random_regular(n=64,d=4) push-pull trials=3 source=64\n");
  const std::string expected =
      "scenario \"random_regular(n=64,d=4) push-pull trials=3 source=64\": "
      "source=64 is out of range for random_regular(n=64,d=4) (n=64)";
  std::string error;
  EXPECT_FALSE(prepare_scenarios(specs, &error));
  EXPECT_EQ(error, expected);
  error.clear();
  EXPECT_FALSE(validate_scenarios(specs, &error));
  EXPECT_EQ(error, expected);

  TrialCounters counters;
  std::size_t rows = 0;
  ScenarioRunOptions options;
  options.counters = &counters;
  options.on_result = [&](const ScenarioResult&, std::size_t) { ++rows; };
  error.clear();
  EXPECT_FALSE(run_scenarios(specs, &error, options));
  EXPECT_EQ(error, expected);
  EXPECT_EQ(rows, 0u);
  EXPECT_EQ(counters.snapshot().trials_total, 0u);
}

// ---- Scheduler-side sharing ---------------------------------------------
//
// Named to match the concurrency suites the sanitizer job runs: the shared
// graph, and its call_once property cache (the walk rows' laziness check),
// are read by batches on different workers at once.

TEST(SharedDrawTrials, RowsOnOneDrawReportWhatEachRowReportsAlone) {
  const auto specs = parse_lines(kFiveOnOneDraw);
  std::string error;
  auto prepared = prepare_scenarios(specs, &error);
  ASSERT_TRUE(prepared) << error;
  const auto shared = run_scenarios(std::move(*prepared), &error);
  ASSERT_TRUE(shared) << error;
  ASSERT_EQ(shared->size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    const auto alone = run_scenarios({specs[i]}, &error);
    ASSERT_TRUE(alone) << error;
    const ScenarioResult& a = alone->front();
    const ScenarioResult& s = (*shared)[i];
    EXPECT_EQ(s.set.rounds, a.set.rounds) << specs[i].name();
    EXPECT_EQ(s.set.agent_rounds, a.set.agent_rounds) << specs[i].name();
    EXPECT_EQ(s.set.informed, a.set.informed) << specs[i].name();
    EXPECT_EQ(s.set.incomplete, a.set.incomplete) << specs[i].name();
    EXPECT_EQ(scenario_csv_line(s), scenario_csv_line(a)) << specs[i].name();
  }
}

}  // namespace
}  // namespace rumor

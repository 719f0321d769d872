// Experiments harness: spec construction, trial running, determinism,
// report formatting.
#include <gtest/gtest.h>

#include <sstream>

#include "analysis/scaling.hpp"
#include "experiments/report.hpp"
#include "experiments/specs.hpp"
#include "experiments/trials.hpp"

namespace rumor {
namespace {

TEST(GraphSpec, MakesEveryFamily) {
  Rng rng(1);
  const std::vector<GraphSpec> specs = {
      {.family = Family::star, .a = 8},
      {.family = Family::double_star, .a = 8},
      {.family = Family::heavy_tree, .a = 15},
      {.family = Family::siamese, .a = 15},
      {.family = Family::cycle_stars_cliques, .a = 3},
      {.family = Family::complete, .a = 8},
      {.family = Family::cycle, .a = 8},
      {.family = Family::path, .a = 8},
      {.family = Family::grid, .a = 3, .b = 4},
      {.family = Family::torus, .a = 3, .b = 4},
      {.family = Family::hypercube, .a = 4},
      {.family = Family::circulant, .a = 12, .b = 2},
      {.family = Family::clique_ring, .a = 4, .b = 3},
      {.family = Family::clique_path, .a = 4, .b = 3},
      {.family = Family::random_regular, .a = 16, .b = 4},
      {.family = Family::erdos_renyi, .a = 32, .p = 0.3},
      {.family = Family::barbell, .a = 4},
      {.family = Family::star_of_cliques, .a = 3, .b = 3},
      {.family = Family::binary_tree, .a = 15},
  };
  for (const auto& spec : specs) {
    const Graph g = spec.make(rng);
    EXPECT_GT(g.num_vertices(), 0u) << spec.name();
    EXPECT_GT(g.num_edges(), 0u) << spec.name();
    EXPECT_FALSE(spec.name().empty());
  }
}

TEST(GraphSpec, NamesAreDescriptive) {
  const GraphSpec star{.family = Family::star, .a = 64};
  const GraphSpec regular{.family = Family::random_regular, .a = 128, .b = 8};
  EXPECT_EQ(star.name(), "star(leaves=64)");
  EXPECT_EQ(regular.name(), "random_regular(n=128,d=8)");
  EXPECT_TRUE(regular.is_random());
  EXPECT_FALSE(star.is_random());
}

TEST(ProtocolSpec, DefaultsAndNames) {
  EXPECT_EQ(default_spec(Protocol::push).name(), "push");
  EXPECT_EQ(default_spec(Protocol::push_pull).name(), "push-pull");
  EXPECT_EQ(default_spec(Protocol::visit_exchange).name(), "visit-exchange");
  EXPECT_EQ(default_spec(Protocol::meet_exchange).name(), "meet-exchange");
  EXPECT_EQ(default_spec(Protocol::hybrid).name(), "hybrid");
  EXPECT_EQ(default_spec(Protocol::frog).name(), "frog");
  EXPECT_EQ(default_spec(Protocol::dynamic_agent).name(), "dynamic-agent");
  EXPECT_EQ(default_spec(Protocol::multi_push_pull).name(),
            "multi-push-pull");
  EXPECT_EQ(default_spec(Protocol::multi_visit_exchange).name(),
            "multi-visit-exchange");
  EXPECT_EQ(default_spec(Protocol::async_push_pull).name(), "async");
  // meet-exchange defaults to the paper's auto-lazy convention.
  EXPECT_EQ(default_spec(Protocol::meet_exchange).walk().lazy,
            LazyMode::auto_bipartite);
  EXPECT_EQ(default_spec(Protocol::visit_exchange).walk().lazy,
            LazyMode::never);
}

TEST(RunProtocol, EveryRegisteredSimulatorProducesCompletedRuns) {
  Rng rng(2);
  const Graph g = (GraphSpec{.family = Family::complete, .a = 48}).make(rng);
  for (const SimulatorEntry& entry : SimulatorRegistry::instance().all()) {
    const TrialResult outcome =
        run_protocol(g, default_spec(entry.id), 0, 7);
    EXPECT_TRUE(outcome.completed) << entry.name;
    EXPECT_GT(outcome.rounds, 0.0) << entry.name;
  }
}

TEST(RunProtocol, TrialResultCarriesAgentMilestoneAndCurve) {
  Rng rng(6);
  const Graph g =
      (GraphSpec{.family = Family::circulant, .a = 96, .b = 3}).make(rng);
  ProtocolSpec spec = default_spec(Protocol::visit_exchange);
  spec.walk().trace.informed_curve = true;
  const TrialResult r = run_protocol(g, spec, 0, 11);
  ASSERT_TRUE(r.completed);
  EXPECT_GT(r.agent_rounds, 0.0);
  EXPECT_LE(r.agent_rounds, r.rounds);  // milestone recorded by completion
  ASSERT_EQ(r.informed_curve.size(), static_cast<std::size_t>(r.rounds) + 1);
  EXPECT_EQ(r.informed_curve.back(), g.num_vertices());
}

TEST(Trials, DeterministicAcrossRuns) {
  Rng rng(3);
  const Graph g = (GraphSpec{.family = Family::hypercube, .a = 6}).make(rng);
  const auto spec = default_spec(Protocol::push);
  const TrialSet a = run_trials(g, spec, 0, 16, 42);
  const TrialSet b = run_trials(g, spec, 0, 16, 42);
  EXPECT_EQ(a.rounds, b.rounds);  // identical sample vectors
  EXPECT_EQ(a.incomplete, 0u);
}

TEST(Trials, DifferentSeedsGiveDifferentSamples) {
  Rng rng(4);
  const Graph g = (GraphSpec{.family = Family::complete, .a = 64}).make(rng);
  const auto spec = default_spec(Protocol::push);
  const TrialSet a = run_trials(g, spec, 0, 16, 1);
  const TrialSet b = run_trials(g, spec, 0, 16, 2);
  EXPECT_NE(a.rounds, b.rounds);
}

TEST(Trials, FreshGraphModeDeterministic) {
  const GraphSpec gspec{.family = Family::random_regular, .a = 64, .b = 6};
  const auto spec = default_spec(Protocol::push_pull);
  const TrialSet a = run_trials_fresh_graph(gspec, spec, 0, 8, 99);
  const TrialSet b = run_trials_fresh_graph(gspec, spec, 0, 8, 99);
  EXPECT_EQ(a.rounds, b.rounds);
}

TEST(Trials, SummaryMatchesSamples) {
  Rng rng(5);
  const Graph g = (GraphSpec{.family = Family::complete, .a = 32}).make(rng);
  const TrialSet set = run_trials(g, default_spec(Protocol::push), 0, 20, 7);
  const Summary s = set.summary();
  EXPECT_EQ(s.count, 20u);
  EXPECT_GE(s.min, 1.0);
  EXPECT_LE(s.min, s.median);
  EXPECT_LE(s.median, s.max);
}

TEST(Scaling, SeriesAccessors) {
  ScalingSeries series{"push", {{64, Summary::of(std::vector<double>{10, 12})},
                                {128, Summary::of(std::vector<double>{13})}}};
  EXPECT_EQ(series.sizes(), (std::vector<double>{64, 128}));
  EXPECT_EQ(series.means(), (std::vector<double>{11, 13}));
}

TEST(Scaling, RatioBoundedDetectsConstantFactor) {
  auto mk = [](std::vector<std::pair<double, double>> pts,
               std::string label) {
    ScalingSeries s{std::move(label), {}};
    for (auto [n, mean] : pts) {
      s.points.push_back({n, Summary::of(std::vector<double>{mean})});
    }
    return s;
  };
  const auto a = mk({{64, 10}, {128, 12}, {256, 14}}, "a");
  const auto b = mk({{64, 21}, {128, 25}, {256, 30}}, "b");  // ~2.1x of a
  EXPECT_TRUE(ratio_bounded(a, b, 1.2));
  EXPECT_NEAR(max_ratio(b, a), 2.14, 0.03);
  const auto diverging = mk({{64, 10}, {128, 40}, {256, 160}}, "c");
  EXPECT_FALSE(ratio_bounded(diverging, a, 2.0));
}

TEST(Scaling, WithinAdditiveLog) {
  auto mk = [](std::vector<std::pair<double, double>> pts) {
    ScalingSeries s{"s", {}};
    for (auto [n, mean] : pts) {
      s.points.push_back({n, Summary::of(std::vector<double>{mean})});
    }
    return s;
  };
  const auto slow = mk({{64, 30}, {256, 40}});
  const auto fast = mk({{64, 20}, {256, 25}});
  EXPECT_TRUE(within_additive_log(slow, fast, 3.0));   // 3 ln 64 ≈ 12.5
  EXPECT_FALSE(within_additive_log(slow, fast, 0.5));  // 0.5 ln 64 ≈ 2.1
}

TEST(Report, FormatsMeanPm) {
  Summary s = Summary::of(std::vector<double>{10, 12, 14});
  const std::string text = fmt_mean_pm(s, 1);
  EXPECT_NE(text.find("12.0"), std::string::npos);
  EXPECT_NE(text.find("±"), std::string::npos);
}

}  // namespace
}  // namespace rumor

// Fast statistical versions of the paper's separation results (Lemmas 2-9)
// and regular-graph theorems (1, 23, 24, 25) at fixed test sizes. The paper
// scenario files (examples/scenarios/paper/) sweep sizes and check growth
// laws with `# expect:` directives; these tests pin the *ordering* and
// rough magnitudes so regressions in any protocol show up in ctest. The
// claims no directive form can state — Lemma 9's cross-series relations,
// the hybrid's factor-plus-rounds bound, and the E11 per-edge traffic —
// are asserted here with the experiments' own formulas at scaled-down
// sizes.
#include <gtest/gtest.h>

#include <cmath>
#include <functional>

#include "analysis/scaling.hpp"
#include "core/meet_exchange.hpp"
#include "core/push.hpp"
#include "core/push_pull.hpp"
#include "core/visit_exchange.hpp"
#include "experiments/scenario.hpp"
#include "graph/generators.hpp"
#include "support/stats.hpp"

namespace rumor {
namespace {

double mean_rounds(const Graph& g, Vertex source, int trials,
                   const std::function<RunResult(const Graph&, Vertex,
                                                 std::uint64_t)>& runner) {
  std::vector<double> samples;
  for (int seed = 0; seed < trials; ++seed) {
    const RunResult r = runner(g, source, static_cast<std::uint64_t>(seed));
    EXPECT_TRUE(r.completed);
    samples.push_back(static_cast<double>(r.rounds));
  }
  return Summary::of(samples).mean;
}

const auto kPush = [](const Graph& g, Vertex s, std::uint64_t seed) {
  return run_push(g, s, seed);
};
const auto kPpull = [](const Graph& g, Vertex s, std::uint64_t seed) {
  return run_push_pull(g, s, seed);
};
const auto kVisitx = [](const Graph& g, Vertex s, std::uint64_t seed) {
  return run_visit_exchange(g, s, seed);
};
const auto kMeetx = [](const Graph& g, Vertex s, std::uint64_t seed) {
  return run_meet_exchange(g, s, seed);
};

TEST(Lemma2Star, PushSlowOthersFast) {
  const Vertex leaves = 512;
  const Graph g = gen::star(leaves);
  const double log_n = std::log2(static_cast<double>(leaves));

  const double push = mean_rounds(g, 1, 10, kPush);
  const double ppull = mean_rounds(g, 1, 10, kPpull);
  const double visitx = mean_rounds(g, 1, 10, kVisitx);
  const double meetx = mean_rounds(g, 1, 10, kMeetx);

  EXPECT_GT(push, static_cast<double>(leaves));  // Ω(n log n) ≥ n here
  EXPECT_LE(ppull, 2.0);                         // Lemma 2(b)
  EXPECT_LT(visitx, 10 * log_n);                 // O(log n)
  EXPECT_LT(meetx, 20 * log_n);                  // O(log n), lazy walks
  EXPECT_GT(push, 20 * visitx);                  // the separation itself
}

TEST(Lemma3DoubleStar, PushPullSlowAgentsFast) {
  const Vertex leaves = 512;
  const Graph g = gen::double_star(leaves);
  const double log_n = std::log2(2.0 * leaves);

  const double ppull = mean_rounds(g, 2, 10, kPpull);
  const double visitx = mean_rounds(g, 2, 10, kVisitx);
  const double meetx = mean_rounds(g, 2, 10, kMeetx);

  EXPECT_GT(ppull, static_cast<double>(leaves) / 8);  // Ω(n)
  EXPECT_LT(visitx, 10 * log_n);
  EXPECT_LT(meetx, 25 * log_n);
  EXPECT_GT(ppull, 5 * visitx);
  EXPECT_GT(ppull, 3 * meetx);
}

TEST(Lemma4HeavyTree, PushFastVisitxSlowMeetxFastFromLeaf) {
  const Vertex n = 1023;
  const Graph g = gen::heavy_binary_tree(n);
  const Vertex leaf_source = n - 1;
  const double log_n = std::log2(static_cast<double>(n));

  const double push = mean_rounds(g, leaf_source, 10, kPush);
  const double visitx = mean_rounds(g, leaf_source, 10, kVisitx);
  const double meetx = mean_rounds(g, leaf_source, 10, kMeetx);

  EXPECT_LT(push, 9 * log_n);     // O(log n)
  EXPECT_GT(visitx, 2.5 * push);  // Ω(n): root starves for agent visits
  EXPECT_LT(meetx, 15 * log_n);   // Lemma 4(c): informed agents meet in
                                  // the leaf clique
  EXPECT_GT(visitx, 2 * meetx);
}

TEST(Lemma8Siamese, BothAgentProtocolsSlow) {
  const Vertex n = 1023;  // per copy; total 2n-1
  const Graph g = gen::siamese_heavy_tree(n);
  const Vertex leaf_source = n - 1;  // a leaf of copy 0
  const double log_n = std::log2(2.0 * n);

  const double push = mean_rounds(g, leaf_source, 8, kPush);
  const double visitx = mean_rounds(g, leaf_source, 8, kVisitx);
  const double meetx = mean_rounds(g, leaf_source, 8, kMeetx);

  EXPECT_LT(push, 9 * log_n);
  EXPECT_GT(visitx, 3 * push);  // Ω(n)
  EXPECT_GT(meetx, 3 * push);   // Ω(n): information must cross the root
}

TEST(Lemma9CycleStarsCliques, VisitxBeatsMeetx) {
  const Vertex k = 8;  // n = k + k^2 + k^3 = 584
  const Graph g = gen::cycle_stars_cliques(k);
  const Vertex clique_source = k + k * k;  // a clique vertex

  const double visitx = mean_rounds(g, clique_source, 8, kVisitx);
  const double meetx = mean_rounds(g, clique_source, 8, kMeetx);

  // Lemma 9: E[T_meetx] is a log-factor above E[T_visitx]; at this size we
  // require the ordering with some daylight.
  EXPECT_GT(meetx, 1.2 * visitx);
}

TEST(Theorem1, PushAndVisitxWithinConstantFactorOnRegularGraphs) {
  // d >= log2(n) regular families: the ratio push/visitx must stay in a
  // modest band (both directions of Theorem 1).
  struct Case {
    const char* name;
    Graph graph;
  };
  Rng rng(5);
  std::vector<Case> cases;
  cases.push_back({"random_regular(512,12)",
                   gen::random_regular(512, 12, rng)});
  cases.push_back({"hypercube(9)", gen::hypercube(9)});
  cases.push_back({"clique_ring(16,16)", gen::clique_ring(16, 16)});

  for (const auto& c : cases) {
    const double push = mean_rounds(c.graph, 0, 10, kPush);
    const double visitx = mean_rounds(c.graph, 0, 10, kVisitx);
    const double ratio = push / visitx;
    EXPECT_GT(ratio, 1.0 / 12.0) << c.name;
    EXPECT_LT(ratio, 12.0) << c.name;
  }
}

TEST(Theorem1, HoldsOnSlowMixingRegularFamily) {
  // The clique ring has Θ(groups) broadcast time for both protocols —
  // Theorem 1 is not a fast-graph artifact.
  const Graph g = gen::clique_ring(32, 8);
  const double push = mean_rounds(g, 0, 8, kPush);
  const double visitx = mean_rounds(g, 0, 8, kVisitx);
  EXPECT_GT(push, 32.0 / 2);  // ≥ groups/2 rounds: genuinely slow
  const double ratio = push / visitx;
  EXPECT_GT(ratio, 1.0 / 12.0);
  EXPECT_LT(ratio, 12.0);
}

TEST(Theorem23, VisitxWithinAdditiveLogOfMeetx) {
  Rng rng(7);
  const Graph g = gen::random_regular(512, 12, rng);
  const double visitx = mean_rounds(g, 0, 10, kVisitx);
  const double meetx = mean_rounds(g, 0, 10, kMeetx);
  const double log_n = std::log(512.0);
  EXPECT_LE(visitx, meetx + 6 * log_n);
}

TEST(Theorems24And25, LogarithmicLowerBoundsOnRegularGraphs) {
  // Even on the best-connected regular graph (complete), both agent-based
  // protocols need Ω(log n) rounds.
  const Vertex n = 2048;
  const Graph g = gen::complete(n);
  const double log_n = std::log2(static_cast<double>(n));
  std::vector<double> visitx_min, meetx_min;
  for (std::uint64_t seed = 0; seed < 10; ++seed) {
    visitx_min.push_back(
        static_cast<double>(run_visit_exchange(g, 0, seed).rounds));
    meetx_min.push_back(
        static_cast<double>(run_meet_exchange(g, 0, seed).rounds));
  }
  EXPECT_GT(Summary::of(visitx_min).min, log_n / 4);
  EXPECT_GT(Summary::of(meetx_min).min, log_n / 4);
}

// Lemma 9(b) and the gap line of the Fig. 1(e) experiment
// (examples/scenarios/paper/fig1e.scn sweeps k = 6..23): meet-exchange fits
// a steeper power law in n than visit-exchange, and the meetx/visitx ratio
// exceeds 1 at the largest size without shrinking below 0.9x its value at
// the smallest. Same formulas, k = 6..14.
TEST(Lemma9CycleStarsCliques, MeetxSteeperAndGapDoesNotShrink) {
  ScalingSeries visitx{"visit-exchange", {}};
  ScalingSeries meetx{"meet-exchange", {}};
  for (const Vertex k : {6u, 8u, 11u, 14u}) {
    const Graph g = gen::cycle_stars_cliques(k);
    const Vertex source = k + k * k;  // inside the clique Q_{0,0}
    const double n = static_cast<double>(g.num_vertices());
    visitx.points.push_back(
        {n, run_trials(g, default_spec(Protocol::visit_exchange), source, 15,
                       kDefaultMasterSeed)
                .summary()});
    meetx.points.push_back(
        {n, run_trials(g, default_spec(Protocol::meet_exchange), source, 15,
                       kDefaultMasterSeed)
                .summary()});
  }
  EXPECT_GT(classify_series(meetx).power_exponent,
            classify_series(visitx).power_exponent);
  const double first_ratio =
      meetx.points.front().summary.mean / visitx.points.front().summary.mean;
  const double last_ratio =
      meetx.points.back().summary.mean / visitx.points.back().summary.mean;
  EXPECT_GT(last_ratio, 1.0);
  EXPECT_GE(last_ratio, 0.9 * first_ratio);
}

// E12 (examples/scenarios/paper/hybrid.scn): the hybrid protocol tracks the
// better of its components on every Fig. 1 family,
// T_hybrid <= 1.5 min(T_ppull, T_visitx) + 2 in the means. Same formula
// and trial count, each family at about a quarter of the file's size.
TEST(HybridClaim, TracksBetterComponentOnFig1Families) {
  struct Case {
    const char* name;
    Graph graph;
    Vertex source;
  };
  Rng rng(kDefaultMasterSeed);
  const Case cases[] = {
      {"star", gen::star(2048), 1},
      {"double-star", gen::double_star(1024), 2},
      {"heavy-tree", gen::heavy_binary_tree(1023), 1022},
      {"siamese", gen::siamese_heavy_tree(511), 510},
      {"random-regular", gen::random_regular(1024, 16, rng), 0},
  };
  for (const Case& f : cases) {
    const auto mean = [&](Protocol p) {
      return run_trials(f.graph, default_spec(p), f.source, 15,
                        kDefaultMasterSeed)
          .summary()
          .mean;
    };
    const double ppull = mean(Protocol::push_pull);
    const double visitx = mean(Protocol::visit_exchange);
    const double hybrid = mean(Protocol::hybrid);
    EXPECT_LE(hybrid, 1.5 * std::min(ppull, visitx) + 2.0)
        << f.name << ": push-pull " << ppull << ", visit-exchange " << visitx;
  }
}

// E11 — the "locally fair bandwidth" claim of Section 1, measured on the
// double star: over a fixed 400-round window push-pull calls the
// center-center bridge O(1/n) times per round while visit-exchange walks
// agents across it at a constant rate, and push-pull starves that edge
// (min/mean edge utilization) while visit-exchange starves none. The
// experiment's formulas, which scale with the leaf count, at 512 leaves
// per star instead of 2048.
TEST(BandwidthFairness, BridgeTrafficOnTheDoubleStar) {
  constexpr Vertex kLeaves = 512;
  constexpr Round kHorizon = 400;
  constexpr std::size_t kTrials = 8;
  const Graph g = gen::double_star(kLeaves);
  EdgeId bridge = 0;
  for (std::uint32_t i = 0; i < g.degree(0); ++i) {
    if (g.neighbor(0, i) == 1) bridge = g.edge_id(0, i);
  }
  // (bridge crossings per round, min-edge / mean-edge utilization)
  const auto traffic = [&](std::span<const std::uint64_t> edges) {
    std::uint64_t min_edge = ~0ULL, total = 0;
    for (const std::uint64_t c : edges) {
      min_edge = std::min(min_edge, c);
      total += c;
    }
    const double mean =
        static_cast<double>(total) / static_cast<double>(edges.size());
    return std::pair{
        static_cast<double>(edges[bridge]) / static_cast<double>(kHorizon),
        mean > 0 ? static_cast<double>(min_edge) / mean : 0.0};
  };
  std::vector<double> ppull_bridge, ppull_fair, visitx_bridge, visitx_fair;
  for (std::size_t i = 0; i < kTrials; ++i) {
    PushPullOptions ppull_options;
    ppull_options.trace.edge_traffic = true;
    ppull_options.max_rounds = kHorizon;  // the full window even if done
    PushPullProcess ppull(g, 2, derive_seed(kDefaultMasterSeed, i),
                          ppull_options);
    for (Round t = 0; t < kHorizon; ++t) ppull.step();
    const auto [pb, pf] = traffic(ppull.run().edge_traffic);
    ppull_bridge.push_back(pb);
    ppull_fair.push_back(pf);

    WalkOptions walk_options;
    walk_options.trace.edge_traffic = true;
    VisitExchangeProcess visitx(g, 2, derive_seed(kDefaultMasterSeed + 7, i),
                                walk_options);
    for (Round t = 0; t < kHorizon; ++t) visitx.step();
    const auto [vb, vf] = traffic(visitx.run().edge_traffic);
    visitx_bridge.push_back(vb);
    visitx_fair.push_back(vf);
  }
  const double ppull_rate = Summary::of(ppull_bridge).mean;
  const double visitx_rate = Summary::of(visitx_bridge).mean;
  EXPECT_LT(ppull_rate, 20.0 / kLeaves);
  EXPECT_GT(visitx_rate, 0.3);
  EXPECT_GT(visitx_rate / std::max(ppull_rate, 1e-9), kLeaves / 20.0);
  EXPECT_GT(Summary::of(visitx_fair).mean, 0.3);
  EXPECT_LT(Summary::of(ppull_fair).mean, 0.05);
}

}  // namespace
}  // namespace rumor

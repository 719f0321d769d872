// Multi-rumor dissemination tests: correctness of the shared-substrate
// semantics and the key structural property — each rumor's marginal law is
// the single-rumor protocol (rumors share bandwidth without interference).
#include <gtest/gtest.h>

#include <cmath>

#include "core/multi_rumor.hpp"
#include "core/push_pull.hpp"
#include "core/visit_exchange.hpp"
#include "graph/generators.hpp"
#include "support/stats.hpp"

namespace rumor {
namespace {

TEST(MultiRumorPushPull, SingleRumorCompletes) {
  const Graph g = gen::complete(32);
  MultiRumorPushPull p(g, {{0, 0}}, 7);
  const MultiRumorResult r = p.run();
  EXPECT_TRUE(r.completed);
  EXPECT_EQ(r.completion_round.size(), 1u);
  EXPECT_EQ(r.latency[0], r.completion_round[0]);
}

TEST(MultiRumorPushPull, AllRumorsReachEveryVertex) {
  const Graph g = gen::hypercube(6);
  std::vector<RumorSpec> rumors;
  for (Vertex s = 0; s < 8; ++s) rumors.push_back({s * 8, 0});
  MultiRumorPushPull p(g, rumors, 3);
  const MultiRumorResult r = p.run();
  ASSERT_TRUE(r.completed);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(p.vertex_rumors(v), (RumorMask{1} << 8) - 1);
  }
}

TEST(MultiRumorPushPull, StaggeredReleasesRespectReleaseRounds) {
  const Graph g = gen::complete(64);
  const std::vector<RumorSpec> rumors = {{0, 0}, {1, 10}, {2, 25}};
  MultiRumorPushPull p(g, rumors, 5);
  const MultiRumorResult r = p.run();
  ASSERT_TRUE(r.completed);
  EXPECT_GE(r.completion_round[1], 10u);
  EXPECT_GE(r.completion_round[2], 25u);
  // Latency is measured from release, so all three should be comparable.
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_GT(r.latency[i], 0u);
    EXPECT_LT(r.latency[i], 60u);
  }
}

TEST(MultiRumorPushPull, RumorNotHeldBeforeRelease) {
  const Graph g = gen::complete(16);
  MultiRumorPushPull p(g, {{0, 0}, {5, 8}}, 9);
  for (Round t = 0; t < 7; ++t) {
    p.step();
    for (Vertex v = 0; v < 16; ++v) {
      EXPECT_EQ(p.vertex_rumors(v) & 2u, 0u) << "round " << p.round();
    }
  }
}

TEST(MultiRumorPushPull, MarginalMatchesSingleRumorDistribution) {
  // 8 rumors from the same source on the same substrate: each rumor's
  // latency should be distributed like a single-rumor push-pull broadcast.
  const Graph g = gen::hypercube(7);
  std::vector<double> single, multi;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    single.push_back(
        static_cast<double>(run_push_pull(g, 0, seed).rounds));
    std::vector<RumorSpec> rumors(8, RumorSpec{0, 0});
    MultiRumorPushPull p(g, rumors, seed + 1000);
    const MultiRumorResult r = p.run();
    for (Round lat : r.latency) multi.push_back(static_cast<double>(lat));
  }
  const Summary ss = Summary::of(single);
  const Summary ms = Summary::of(multi);
  EXPECT_NEAR(ss.mean, ms.mean, 5 * (ss.stderr_mean + ms.stderr_mean) + 0.5);
}

TEST(MultiRumorVisitExchange, SingleRumorCompletes) {
  const Graph g = gen::cycle(24);
  MultiRumorVisitExchange p(g, {{0, 0}}, 7);
  const MultiRumorResult r = p.run();
  EXPECT_TRUE(r.completed);
}

TEST(MultiRumorVisitExchange, ManySourcesAllDelivered) {
  const Graph g = gen::grid2d(8, 8);
  std::vector<RumorSpec> rumors;
  for (Vertex s = 0; s < 16; ++s) rumors.push_back({s * 4, 0});
  MultiRumorVisitExchange p(g, rumors, 11);
  const MultiRumorResult r = p.run();
  ASSERT_TRUE(r.completed);
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(p.vertex_rumors(v), (RumorMask{1} << 16) - 1);
  }
}

TEST(MultiRumorVisitExchange, MarginalMatchesSingleRumorDistribution) {
  Rng grng(5);
  const Graph g = gen::random_regular(128, 8, grng);
  std::vector<double> single, multi;
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    single.push_back(
        static_cast<double>(run_visit_exchange(g, 0, seed).rounds));
    std::vector<RumorSpec> rumors(6, RumorSpec{0, 0});
    MultiRumorVisitExchange p(g, rumors, seed + 999);
    const MultiRumorResult r = p.run();
    for (Round lat : r.latency) multi.push_back(static_cast<double>(lat));
  }
  const Summary ss = Summary::of(single);
  const Summary ms = Summary::of(multi);
  EXPECT_NEAR(ss.mean, ms.mean, 5 * (ss.stderr_mean + ms.stderr_mean) + 0.5);
}

TEST(MultiRumorVisitExchange, PerpetualStreamSteadyLatency) {
  // Rumors released every 5 rounds from random sources: latencies should be
  // comparable for early and late releases (the perpetual-walk setting the
  // paper motivates with the stationary start).
  Rng grng(9);
  const Graph g = gen::random_regular(256, 10, grng);
  std::vector<RumorSpec> rumors;
  Rng source_rng(4);
  for (std::size_t i = 0; i < 20; ++i) {
    rumors.push_back({static_cast<Vertex>(source_rng.below(256)),
                      static_cast<Round>(5 * i)});
  }
  std::vector<double> early, late;
  for (std::uint64_t seed = 0; seed < 15; ++seed) {
    MultiRumorVisitExchange p(g, rumors, seed);
    const MultiRumorResult r = p.run();
    ASSERT_TRUE(r.completed);
    for (std::size_t i = 0; i < 10; ++i) {
      early.push_back(static_cast<double>(r.latency[i]));
    }
    for (std::size_t i = 10; i < 20; ++i) {
      late.push_back(static_cast<double>(r.latency[i]));
    }
  }
  const Summary se = Summary::of(early);
  const Summary sl = Summary::of(late);
  EXPECT_NEAR(se.mean, sl.mean, 5 * (se.stderr_mean + sl.stderr_mean) + 1.0);
}

TEST(MultiRumorVisitExchange, AgentsCarryRumorsAcrossReleases) {
  // After completion every agent holds every rumor (phase B absorbs all).
  const Graph g = gen::complete(32);
  MultiRumorVisitExchange p(g, {{0, 0}, {1, 3}}, 13);
  const MultiRumorResult r = p.run();
  ASSERT_TRUE(r.completed);
  // One more round so agents standing anywhere absorb the final state.
  p.step();
  for (Agent a = 0; a < p.agents().count(); ++a) {
    EXPECT_EQ(p.agent_rumors(a), 3u);
  }
}

// E19 (examples/scenarios/paper/multi_rumor.scn) on a random 16-regular
// graph, with the experiment's formulas at n = 1024 instead of 4096.
// (i) Non-interference: the mean per-rumor latency of 64 parallel rumors,
// from seed-drawn sources all released at round 0, stays within
// 1.25x + 1 round of a single rumor's.
TEST(MultiRumorClaims, ParallelRumorsKeepSingleRumorLatency) {
  constexpr Vertex kN = 1024;
  constexpr std::uint64_t kSeed = 20190729ULL;
  Rng grng(kSeed);
  const Graph g = gen::random_regular(kN, 16, grng);
  for (const bool walks : {false, true}) {
    const auto mean_latency = [&](std::size_t rumor_count) {
      std::vector<double> latencies;
      for (std::size_t trial = 0; trial < 10; ++trial) {
        Rng source_rng(derive_seed(kSeed + 5, trial));
        std::vector<RumorSpec> rumors;
        for (std::size_t r = 0; r < rumor_count; ++r) {
          rumors.push_back({static_cast<Vertex>(source_rng.below(kN)), 0});
        }
        const std::uint64_t seed = derive_seed(kSeed, trial);
        const MultiRumorResult result =
            walks ? MultiRumorVisitExchange(g, rumors, seed).run()
                  : MultiRumorPushPull(g, rumors, seed).run();
        EXPECT_TRUE(result.completed);
        for (const Round lat : result.latency) {
          latencies.push_back(static_cast<double>(lat));
        }
      }
      return Summary::of(latencies).mean;
    };
    const double at1 = mean_latency(1);
    const double at64 = mean_latency(64);
    EXPECT_LT(at64, 1.25 * at1 + 1.0)
        << (walks ? "visit-exchange" : "push-pull") << ": R=1 " << at1;
  }
}

// (ii) Steady state: 32 rumors released every 4 rounds through one walker
// population; the early half's mean latency matches the late half's within
// 20% + 1 round — the perpetual walks stay stationary.
TEST(MultiRumorClaims, StreamLatencyFlatInReleaseTime) {
  constexpr Vertex kN = 1024;
  constexpr std::uint64_t kSeed = 20190729ULL;
  Rng grng(kSeed);
  const Graph g = gen::random_regular(kN, 16, grng);
  std::vector<double> early, late;
  for (std::size_t trial = 0; trial < 10; ++trial) {
    Rng source_rng(derive_seed(kSeed + 9, trial));
    std::vector<RumorSpec> rumors;
    for (std::size_t r = 0; r < 32; ++r) {
      rumors.push_back({static_cast<Vertex>(source_rng.below(kN)),
                        static_cast<Round>(4 * r)});
    }
    const MultiRumorResult result =
        MultiRumorVisitExchange(g, rumors, derive_seed(kSeed, trial)).run();
    ASSERT_TRUE(result.completed);
    for (std::size_t r = 0; r < 32; ++r) {
      (r < 16 ? early : late).push_back(static_cast<double>(result.latency[r]));
    }
  }
  const double early_mean = Summary::of(early).mean;
  const double late_mean = Summary::of(late).mean;
  EXPECT_LT(std::abs(early_mean - late_mean), 0.2 * early_mean + 1.0)
      << "early " << early_mean << " vs late " << late_mean;
}

using MultiRumorDeathTest = ::testing::Test;

TEST(MultiRumorDeathTest, RejectsTooManyRumors) {
  const Graph g = gen::complete(8);
  std::vector<RumorSpec> rumors(65, RumorSpec{0, 0});
  EXPECT_DEATH(MultiRumorPushPull(g, rumors, 1), "precondition");
}

TEST(MultiRumorDeathTest, RejectsBadSource) {
  const Graph g = gen::complete(8);
  EXPECT_DEATH(MultiRumorVisitExchange(g, {{99, 0}}, 1), "precondition");
}

}  // namespace
}  // namespace rumor

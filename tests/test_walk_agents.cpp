// AgentSystem: placement distributions, stepping validity, stationarity
// preservation; cover, hitting and meeting times of step_from walks
// against their closed forms.
#include <gtest/gtest.h>

#include <cmath>
#include <numeric>

#include "graph/generators.hpp"
#include "support/bitset.hpp"
#include "support/stats.hpp"
#include "walk/agents.hpp"

namespace rumor {
namespace {

TEST(AgentCount, RoundsAlpha) {
  EXPECT_EQ(agent_count_for(100, 1.0), 100u);
  EXPECT_EQ(agent_count_for(100, 0.5), 50u);
  EXPECT_EQ(agent_count_for(100, 2.0), 200u);
  EXPECT_EQ(agent_count_for(3, 0.1), 1u);  // never zero
}

TEST(Agents, OnePerVertexPlacement) {
  const Graph g = gen::cycle(10);
  Rng rng(1);
  AgentSystem agents(g, 10, Placement::one_per_vertex, rng);
  for (Agent a = 0; a < 10; ++a) EXPECT_EQ(agents.position(a), a);
}

TEST(Agents, AtVertexPlacement) {
  const Graph g = gen::cycle(10);
  Rng rng(1);
  AgentSystem agents(g, 5, Placement::at_vertex, rng, 7);
  for (Agent a = 0; a < 5; ++a) EXPECT_EQ(agents.position(a), 7u);
}

TEST(Agents, StationaryPlacementMatchesDegreeWeights) {
  // On the star, the center holds half the stationary mass.
  const Graph g = gen::star(20);
  Rng rng(2);
  AgentSystem agents(g, 40000, Placement::stationary, rng);
  std::size_t at_center = 0;
  for (Vertex pos : agents.positions()) at_center += (pos == 0) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(at_center), 20000.0,
              5 * std::sqrt(20000.0));
}

TEST(Agents, UniformPlacementCoversVertices) {
  const Graph g = gen::cycle(16);
  Rng rng(3);
  AgentSystem agents(g, 16000, Placement::uniform, rng);
  auto occ = agents.occupancy();
  for (Vertex v = 0; v < 16; ++v) {
    EXPECT_NEAR(occ[v], 1000.0, 5 * std::sqrt(1000.0));
  }
}

TEST(Agents, StepMovesToNeighbors) {
  const Graph g = gen::cycle(12);
  Rng rng(4);
  AgentSystem agents(g, 30, Placement::uniform, rng);
  const std::vector<Vertex> before(agents.positions().begin(),
                                   agents.positions().end());
  agents.step_all(rng, Laziness::none);
  for (Agent a = 0; a < 30; ++a) {
    EXPECT_TRUE(g.has_edge(before[a], agents.position(a)));
  }
}

TEST(Agents, LazyStepStaysOrMoves) {
  const Graph g = gen::cycle(12);
  Rng rng(5);
  AgentSystem agents(g, 4000, Placement::uniform, rng);
  const std::vector<Vertex> before(agents.positions().begin(),
                                   agents.positions().end());
  agents.step_all(rng, Laziness::half);
  std::size_t stayed = 0;
  for (Agent a = 0; a < 4000; ++a) {
    const Vertex now = agents.position(a);
    const bool ok = (now == before[a]) || g.has_edge(before[a], now);
    EXPECT_TRUE(ok);
    stayed += (now == before[a]) ? 1 : 0;
  }
  EXPECT_NEAR(static_cast<double>(stayed), 2000.0, 5 * std::sqrt(2000.0));
}

TEST(Agents, OccupancySumsToCount) {
  const Graph g = gen::grid2d(5, 5);
  Rng rng(6);
  AgentSystem agents(g, 123, Placement::stationary, rng);
  for (int round = 0; round < 10; ++round) {
    const auto occ = agents.occupancy();
    EXPECT_EQ(std::accumulate(occ.begin(), occ.end(), 0u), 123u);
    agents.step_all(rng, Laziness::none);
  }
}

TEST(Agents, StationarityPreservedUnderStepping) {
  // Start from the stationary distribution, walk 50 rounds, and check the
  // empirical distribution still matches degree weights. On the star the
  // walk is periodic, so use a non-bipartite graph.
  const Graph g = gen::heavy_binary_tree(31);
  Rng rng(7);
  const std::size_t agent_count = 60000;
  AgentSystem agents(g, agent_count, Placement::stationary, rng);
  for (int round = 0; round < 50; ++round) {
    agents.step_all(rng, Laziness::none);
  }
  const auto occ = agents.occupancy();
  const double total_degree = static_cast<double>(g.total_degree());
  for (Vertex v = 0; v < g.num_vertices(); ++v) {
    const double expected =
        agent_count * static_cast<double>(g.degree(v)) / total_degree;
    EXPECT_NEAR(occ[v], expected, 6 * std::sqrt(expected) + 3) << "v=" << v;
  }
}

TEST(Agents, SetPosition) {
  const Graph g = gen::path(5);
  Rng rng(8);
  AgentSystem agents(g, 2, Placement::at_vertex, rng, 0);
  agents.set_position(1, 4);
  EXPECT_EQ(agents.position(0), 0u);
  EXPECT_EQ(agents.position(1), 4u);
}

// ---- Walk times vs. closed forms -----------------------------------------
//
// One walk (or two) stepped with step_from until it covers the graph, hits
// a target, or meets the other; `cutoff` when that does not happen by
// then. The classical cover, hitting and meeting times of the simple walk
// have closed forms on the complete graph and the cycle, which makes them
// statistical tests of the walk substrate.

std::uint64_t cover_time_once(const Graph& g, Vertex start, Rng& rng,
                              Laziness lazy, std::uint64_t cutoff) {
  DynamicBitset visited(g.num_vertices());
  visited.set(start);
  std::size_t seen = 1;
  Vertex pos = start;
  for (std::uint64_t t = 1; t <= cutoff; ++t) {
    pos = step_from(g, pos, rng, lazy);
    if (!visited.test(pos)) {
      visited.set(pos);
      if (++seen == g.num_vertices()) return t;
    }
  }
  return cutoff;
}

std::uint64_t hitting_time_once(const Graph& g, Vertex start, Vertex target,
                                Rng& rng, Laziness lazy,
                                std::uint64_t cutoff) {
  if (start == target) return 0;
  Vertex pos = start;
  for (std::uint64_t t = 1; t <= cutoff; ++t) {
    pos = step_from(g, pos, rng, lazy);
    if (pos == target) return t;
  }
  return cutoff;
}

std::uint64_t meeting_time_once(const Graph& g, Vertex a, Vertex b, Rng& rng,
                                Laziness lazy, std::uint64_t cutoff) {
  if (a == b) return 0;
  for (std::uint64_t t = 1; t <= cutoff; ++t) {
    a = step_from(g, a, rng, lazy);
    b = step_from(g, b, rng, lazy);
    if (a == b) return t;
  }
  return cutoff;
}

TEST(CoverTime, CompleteGraphMatchesCouponCollector) {
  // Cover time of K_n is (n-1) * H_{n-1} (coupon collector on n-1 others).
  const Vertex n = 32;
  const Graph g = gen::complete(n);
  Rng rng(1);
  std::vector<double> samples;
  for (int i = 0; i < 400; ++i) {
    samples.push_back(static_cast<double>(
        cover_time_once(g, 0, rng, Laziness::none, 1 << 20)));
  }
  double harmonic = 0;
  for (Vertex k = 1; k < n; ++k) harmonic += 1.0 / k;
  const double expected = (n - 1) * harmonic;
  const Summary s = Summary::of(samples);
  EXPECT_NEAR(s.mean, expected, 0.12 * expected);
}

TEST(CoverTime, CycleMatchesQuadraticForm) {
  // Cover time of the n-cycle is exactly n(n-1)/2.
  const Vertex n = 24;
  const Graph g = gen::cycle(n);
  Rng rng(2);
  std::vector<double> samples;
  for (int i = 0; i < 400; ++i) {
    samples.push_back(static_cast<double>(
        cover_time_once(g, 0, rng, Laziness::none, 1 << 22)));
  }
  const double expected = n * (n - 1) / 2.0;
  EXPECT_NEAR(Summary::of(samples).mean, expected, 0.12 * expected);
}

TEST(CoverTime, CutoffReported) {
  const Graph g = gen::cycle(64);
  Rng rng(3);
  EXPECT_EQ(cover_time_once(g, 0, rng, Laziness::none, 10), 10u);
}

TEST(HittingTime, CompleteGraphGeometric) {
  // Hitting time u->v on K_n is geometric with mean n-1.
  const Vertex n = 20;
  const Graph g = gen::complete(n);
  Rng rng(4);
  std::vector<double> samples;
  for (int i = 0; i < 3000; ++i) {
    samples.push_back(static_cast<double>(
        hitting_time_once(g, 0, 5, rng, Laziness::none, 1 << 20)));
  }
  EXPECT_NEAR(Summary::of(samples).mean, n - 1.0, 0.08 * (n - 1));
}

TEST(HittingTime, SameVertexIsZero) {
  const Graph g = gen::cycle(8);
  Rng rng(5);
  EXPECT_EQ(hitting_time_once(g, 3, 3, rng, Laziness::none, 100), 0u);
}

TEST(HittingTime, LazyDoublesMean) {
  const Vertex n = 16;
  const Graph g = gen::complete(n);
  Rng rng(6);
  std::vector<double> lazy_samples;
  for (int i = 0; i < 3000; ++i) {
    lazy_samples.push_back(static_cast<double>(
        hitting_time_once(g, 0, 5, rng, Laziness::half, 1 << 20)));
  }
  // Lazy walk makes real progress half the time: mean 2(n-1).
  EXPECT_NEAR(Summary::of(lazy_samples).mean, 2.0 * (n - 1),
              0.1 * 2 * (n - 1));
}

TEST(MeetingTime, SameStartIsZero) {
  const Graph g = gen::cycle(8);
  Rng rng(7);
  EXPECT_EQ(meeting_time_once(g, 2, 2, rng, Laziness::none, 100), 0u);
}

TEST(MeetingTime, CompleteGraphMean) {
  // Two walks on K_n land on the same vertex with probability ~1/(n-1) per
  // round, so the meeting time is approximately geometric with mean ~n-1.
  const Vertex n = 20;
  const Graph g = gen::complete(n);
  Rng rng(8);
  std::vector<double> samples;
  for (int i = 0; i < 3000; ++i) {
    samples.push_back(static_cast<double>(
        meeting_time_once(g, 0, 5, rng, Laziness::none, 1 << 20)));
  }
  EXPECT_NEAR(Summary::of(samples).mean, n - 1.0, 0.15 * (n - 1));
}

TEST(MeetingTime, BipartiteParityNeverMeets) {
  // On an even cycle, two non-lazy walks at odd distance keep opposite
  // parity forever: they can never meet.
  const Graph g = gen::cycle(8);
  Rng rng(9);
  for (int i = 0; i < 20; ++i) {
    EXPECT_EQ(meeting_time_once(g, 0, 1, rng, Laziness::none, 2000), 2000u);
  }
  // Lazy walks break parity and do meet.
  std::size_t met = 0;
  for (int i = 0; i < 20; ++i) {
    if (meeting_time_once(g, 0, 1, rng, Laziness::half, 20000) < 20000) {
      ++met;
    }
  }
  EXPECT_EQ(met, 20u);
}

}  // namespace
}  // namespace rumor

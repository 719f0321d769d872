// Property grid: universal invariants checked for every protocol on every
// graph family (parameterized sweep — one TEST_P instance per combination).
//
// Invariants:
//   * the run completes within the default cutoff on connected graphs,
//   * broadcast time is at least the source eccentricity for vertex-based
//     protocols (information travels at most one hop per round),
//   * the same seed reproduces the same broadcast time,
//   * inform-round traces are consistent (source at 0, max = total rounds),
//   * the informed curve is monotone and ends at n.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/hybrid.hpp"
#include "core/meet_exchange.hpp"
#include "core/push.hpp"
#include "core/push_pull.hpp"
#include "core/visit_exchange.hpp"
#include "experiments/specs.hpp"
#include "graph/properties.hpp"

namespace rumor {
namespace {

struct GridCase {
  const char* name;
  GraphSpec spec;
  Vertex source;
};

const GridCase kGraphs[] = {
    {"star", {.family = Family::star, .a = 48}, 1},
    {"double_star", {.family = Family::double_star, .a = 24}, 2},
    {"heavy_tree", {.family = Family::heavy_tree, .a = 63}, 62},
    {"siamese", {.family = Family::siamese, .a = 31}, 30},
    {"csc", {.family = Family::cycle_stars_cliques, .a = 4}, 20},
    {"complete", {.family = Family::complete, .a = 48}, 0},
    {"cycle", {.family = Family::cycle, .a = 33}, 0},
    {"path", {.family = Family::path, .a = 24}, 0},
    {"grid", {.family = Family::grid, .a = 6, .b = 6}, 0},
    {"torus", {.family = Family::torus, .a = 5, .b = 5}, 0},
    {"hypercube", {.family = Family::hypercube, .a = 6}, 0},
    {"circulant", {.family = Family::circulant, .a = 40, .b = 4}, 0},
    {"clique_ring", {.family = Family::clique_ring, .a = 5, .b = 5}, 0},
    {"clique_path", {.family = Family::clique_path, .a = 5, .b = 5}, 0},
    {"random_regular", {.family = Family::random_regular, .a = 48, .b = 6}, 0},
    {"erdos_renyi", {.family = Family::erdos_renyi, .a = 48, .p = 0.2}, 0},
    {"barbell", {.family = Family::barbell, .a = 10}, 0},
    {"star_of_cliques", {.family = Family::star_of_cliques, .a = 4, .b = 5}, 0},
    {"binary_tree", {.family = Family::binary_tree, .a = 31}, 0},
};

const Protocol kProtocols[] = {Protocol::push, Protocol::push_pull,
                               Protocol::visit_exchange,
                               Protocol::meet_exchange, Protocol::hybrid};

class ProtocolGridTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, Protocol>> {
 protected:
  static const GridCase& graph_case() {
    return kGraphs[std::get<0>(GetParam())];
  }
  static Protocol protocol() { return std::get<1>(GetParam()); }
};

TEST_P(ProtocolGridTest, CompletesAndIsDeterministic) {
  Rng rng(42);
  const Graph g = graph_case().spec.make(rng);
  ProtocolSpec spec = default_spec(protocol());
  const Vertex source = graph_case().source;

  const TrialResult first = run_protocol(g, spec, source, 1234);
  EXPECT_TRUE(first.completed)
      << graph_case().name << " / " << protocol_name(protocol());
  const TrialResult again = run_protocol(g, spec, source, 1234);
  EXPECT_EQ(first.rounds, again.rounds);

  // Vertex-based protocols cannot beat the source eccentricity.
  if (protocol() == Protocol::push || protocol() == Protocol::push_pull) {
    EXPECT_GE(first.rounds, static_cast<double>(eccentricity(g, source)));
  }
}

TEST_P(ProtocolGridTest, TraceInvariants) {
  Rng rng(43);
  const Graph g = graph_case().spec.make(rng);
  const Vertex source = graph_case().source;
  const Vertex n = g.num_vertices();

  RunResult r;
  TraceOptions trace;
  trace.informed_curve = true;
  trace.inform_rounds = true;
  switch (protocol()) {
    case Protocol::push: {
      PushOptions o;
      o.trace = trace;
      r = run_push(g, source, 7, o);
      break;
    }
    case Protocol::push_pull: {
      PushPullOptions o;
      o.trace = trace;
      r = run_push_pull(g, source, 7, o);
      break;
    }
    case Protocol::visit_exchange: {
      WalkOptions o;
      o.trace = trace;
      r = run_visit_exchange(g, source, 7, o);
      break;
    }
    case Protocol::meet_exchange: {
      WalkOptions o = MeetExchangeProcess::default_options();
      o.trace = trace;
      r = run_meet_exchange(g, source, 7, o);
      break;
    }
    case Protocol::hybrid: {
      WalkOptions o;
      o.trace = trace;
      r = run_hybrid(g, source, 7, o);
      break;
    }
    default:
      FAIL() << "the grid runs only the five round simulators";
  }
  ASSERT_TRUE(r.completed)
      << graph_case().name << " / " << protocol_name(protocol());

  // Informed curve: monotone, ends at the full population.
  ASSERT_EQ(r.informed_curve.size(), r.rounds + 1);
  for (std::size_t i = 1; i < r.informed_curve.size(); ++i) {
    EXPECT_GE(r.informed_curve[i], r.informed_curve[i - 1]);
  }
  const bool agent_based = protocol() == Protocol::meet_exchange;
  if (!agent_based) {
    EXPECT_EQ(r.informed_curve.back(), n);
    // Vertex inform rounds: source at 0, everyone informed, max == rounds.
    ASSERT_EQ(r.vertex_inform_round.size(), n);
    EXPECT_EQ(r.vertex_inform_round[source], 0u);
    std::uint32_t max_round = 0;
    for (std::uint32_t t : r.vertex_inform_round) {
      ASSERT_NE(t, kNeverInformed);
      max_round = std::max(max_round, t);
    }
    EXPECT_EQ(max_round, r.rounds);
  }
}

std::string grid_name(
    const ::testing::TestParamInfo<std::tuple<std::size_t, Protocol>>& info) {
  std::string p = protocol_name(std::get<1>(info.param));
  for (char& c : p) {
    if (c == '-') c = '_';
  }
  return std::string(kGraphs[std::get<0>(info.param)].name) + "_" + p;
}

INSTANTIATE_TEST_SUITE_P(
    AllCombinations, ProtocolGridTest,
    ::testing::Combine(::testing::Range<std::size_t>(0, std::size(kGraphs)),
                       ::testing::ValuesIn(kProtocols)),
    grid_name);

}  // namespace
}  // namespace rumor

// Golden pins of the sharded draw plane.
//
// The sharded engine's own determinism tests compare shards=K against
// shards=1, so a change to the draw plane itself — which words a slot
// reads, in which order, and how a slot's chain continues past its first
// block — moves both sides at once and passes them. These tests pin the
// plane's output instead: walker position hashes after a few rounds of
// step_walks_sharded on every stepping path (implicit, owned lazy
// regular, pow2-regular, irregular, non-pow2 regular), and the trial
// samples of every sharded simulator, plain and with the loss and tp
// options that read past a slot's first word pair (the two together read
// into its second block). The literals were recorded on the unbatched
// plane (one SlotDraws per slot); any change to them changes every stored
// sharded trajectory.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "experiments/scenario.hpp"
#include "experiments/trials.hpp"
#include "graph/generators.hpp"
#include "walk/step_kernel.hpp"

namespace rumor {
namespace {

// FNV-1a over the position array.
std::uint64_t hash_positions(const std::vector<Vertex>& pos) {
  std::uint64_t h = 0xCBF29CE484222325ull;
  for (const Vertex v : pos) {
    h ^= v;
    h *= 0x100000001B3ull;
  }
  return h;
}

// 8 rounds of sharded walking from a scattered start; walker count is not
// a multiple of 64 so every path also runs a partial tail batch.
std::uint64_t walk_hash(const Graph& g, Laziness lazy, std::uint32_t shards) {
  const Vertex n = g.num_vertices();
  std::vector<Vertex> pos(3001);
  for (std::size_t i = 0; i < pos.size(); ++i) {
    pos[i] = static_cast<Vertex>((i * 2654435761ull) % n);
  }
  for (std::uint64_t round = 1; round <= 8; ++round) {
    step_walks_sharded(g, pos, /*trial_seed=*/0x5EED5EEDull, round, lazy,
                       shards);
  }
  return hash_positions(pos);
}

Graph parse_graph(const char* text) {
  std::string error;
  const auto spec = GraphSpec::parse(text, &error);
  EXPECT_TRUE(spec) << text << ": " << error;
  Rng rng(7);
  return spec->make(rng);
}

struct WalkCase {
  const char* graph;
  Laziness lazy;
  std::uint64_t hash;
};

TEST(ShardPlaneGolden, WalkPositionHashesArePinned) {
  const WalkCase cases[] = {
      {"star(leaves=4000)", Laziness::half,
       0xA57A918C5EF71413ull},
      {"cycle(n=5000)", Laziness::none,
       0x122AD4276F7169F7ull},
      {"hypercube(dim=10)", Laziness::half,
       0x26B93CDA02423DBAull},
      {"random_regular(n=4096,d=8)", Laziness::none,
       0xAC78DD57924C7CD2ull},
      {"random_regular(n=4096,d=8)", Laziness::half,
       0x1FD51F36CF4496F7ull},
      {"heavy_tree(n=511)", Laziness::none,
       0xCD9177ADD7E96A78ull},
      {"heavy_tree(n=511)", Laziness::half,
       0xBED9DF3C8884059Eull},
      {"circulant(n=1000,k=3)", Laziness::half,
       0x056D3DE75A586372ull},
      {"circulant(n=1000,k=3,backend=owned)", Laziness::none,
       0xA866717BDDB45BE5ull},
  };
  for (const WalkCase& c : cases) {
    const Graph g = parse_graph(c.graph);
    const std::string what =
        std::string(c.graph) +
        (c.lazy == Laziness::half ? " lazy" : " non-lazy");
    for (const std::uint32_t shards : {1u, 4u}) {
      EXPECT_EQ(walk_hash(g, c.lazy, shards), c.hash)
          << what << " shards=" << shards;
    }
  }
}

struct SampleCase {
  const char* protocol;
  std::vector<double> rounds;
};

TEST(ShardPlaneGolden, SimulatorSamplesArePinned) {
  const Graph g = parse_graph("random_regular(n=600,d=5)");
  const SampleCase cases[] = {
      {"push(shards=2)", {19, 23, 22, 23, 19, 19}},
      {"push(shards=2,loss=0.1)", {22, 22, 26, 25, 22, 22}},
      {"push(shards=2,tp=0.5)", {43, 45, 42, 38, 34, 37}},
      {"push(shards=2,loss=0.1,tp=0.5)", {42, 48, 41, 44, 40, 44}},
      {"push-pull(shards=2)", {12, 12, 11, 12, 12, 12}},
      {"push-pull(shards=2,loss=0.1)", {12, 14, 13, 13, 14, 13}},
      {"push-pull(shards=2,tp=0.5)", {21, 25, 22, 22, 21, 20}},
      {"push-pull(shards=2,loss=0.1,tp=0.5)", {21, 26, 23, 25, 24, 23}},
      {"visit-exchange(shards=2)", {19, 17, 17, 21, 20, 17}},
      {"visit-exchange(shards=2,tp=0.5)", {29, 28, 36, 35, 35, 30}},
      {"meet-exchange(shards=2)", {22, 24, 22, 26, 30, 23}},
      {"meet-exchange(shards=2,tp=0.5)", {36, 40, 42, 38, 43, 38}},
      {"hybrid(shards=2)", {9, 10, 8, 10, 10, 10}},
      {"hybrid(shards=2,tp=0.5)", {16, 14, 16, 17, 15, 16}},
  };
  for (const SampleCase& c : cases) {
    std::string error;
    const auto spec = ProtocolSpec::parse(c.protocol, &error);
    ASSERT_TRUE(spec) << c.protocol << ": " << error;
    const TrialSet set = run_trials(g, *spec, 0, 6, /*master_seed=*/2024);
    EXPECT_EQ(set.rounds, c.rounds) << c.protocol;
  }
}

}  // namespace
}  // namespace rumor

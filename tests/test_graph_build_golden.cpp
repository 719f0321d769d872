// Golden pins of graph construction.
//
// Every seeded trajectory on a random-regular graph starts from the edge
// list gen::random_regular draws and from the owned-CSR arrays built from
// it, so both are pinned here as literal hashes: the canonical edge list
// of random_regular at a grid of (n, d, seed) — small dense cases where
// edge-swap repair does most of the work, and sparse larger ones — plus
// the next word of the Rng it leaves behind (which pins every draw the
// repair made), and the CSR content (offsets, neighbors, edge ids, edge
// endpoints) of three edge lists at build widths {1, 2, 4, 7}. The
// literals were recorded on the hash-map repair and the sorted builds
// that the partner-row repair and the counting build replaced.
//
// The death tests feed malformed edge lists to a width-4 build: each must
// stop with a precondition failure wherever the bad edge sits in the input
// order, including on a vertex whose row is otherwise empty.
#include <gtest/gtest.h>

#include <cstdint>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "graph/graph.hpp"
#include "support/thread_pool.hpp"

namespace rumor {
namespace {

using EdgeList = std::vector<std::pair<Vertex, Vertex>>;

// FNV-1a over 32-bit words.
struct Fnv {
  std::uint64_t h = 0xCBF29CE484222325ull;
  void add(std::uint32_t w) {
    h ^= w;
    h *= 0x100000001B3ull;
  }
};

std::uint64_t edge_list_hash(const Graph& g) {
  Fnv f;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.edge_endpoints(e);
    f.add(u);
    f.add(v);
  }
  return f.h;
}

std::uint64_t csr_hash(const Graph& g) {
  const CsrView c = g.csr();
  Fnv f;
  for (Vertex v = 0; v <= c.n; ++v) f.add(c.offsets[v]);
  for (std::size_t i = 0; i < 2 * g.num_edges(); ++i) f.add(c.neighbors[i]);
  for (std::size_t i = 0; i < 2 * g.num_edges(); ++i) f.add(c.edge_ids[i]);
  f.add(0xFFFFFFFFu);
  return f.h ^ edge_list_hash(g);
}

struct RegularCase {
  Vertex n;
  std::uint32_t d;
  std::uint64_t seed;
  std::uint64_t edges_hash;
  std::uint64_t next_word;
};

TEST(GraphBuildGolden, RandomRegularEdgeListsAndRngArePinned) {
  const RegularCase cases[] = {
      {16, 6, 1, 0xC1096FBC806B2F89ull,
       0x3CF4D8770742E8A0ull},
      {16, 6, 2, 0x90AD8FC126A219FDull,
       0x930E0F796D5F824Dull},
      {64, 12, 3, 0x55A596AAC79D30A7ull,
       0x6B8547728E505104ull},
      {10, 9, 4, 0x7A87D873332588DAull,
       0x49E94748FDEF9B94ull},
      {101, 4, 5, 0x033823EDCA2BFD2Dull,
       0x80C09E29A4841FA9ull},
      {1000, 3, 6, 0x260A4EBB4ECE3C25ull,
       0x21F22355B8F8E453ull},
      {4096, 8, 7, 0x77A37534B4F56E93ull,
       0x9020CB7E835D31BFull},
  };
  for (const RegularCase& c : cases) {
    Rng rng(c.seed);
    const Graph g = gen::random_regular(c.n, c.d, rng);
    ASSERT_EQ(g.num_vertices(), c.n);
    ASSERT_EQ(g.min_degree(), c.d);
    ASSERT_EQ(g.max_degree(), c.d);
    EXPECT_EQ(edge_list_hash(g), c.edges_hash)
        << std::hex << "random_regular(" << std::dec << c.n << "," << c.d
        << ") seed " << c.seed << std::hex << ": 0x" << edge_list_hash(g);
    const std::uint64_t next = rng();
    EXPECT_EQ(next, c.next_word)
        << std::hex << "random_regular(" << std::dec << c.n << "," << c.d
        << ") seed " << c.seed << " next word: 0x" << std::hex << next;
  }
}

EdgeList hypercube_edges(std::uint32_t dim) {
  EdgeList edges;
  for (Vertex v = 0; v < (Vertex{1} << dim); ++v) {
    for (std::uint32_t bit = 0; bit < dim; ++bit) {
      const Vertex mask = Vertex{1} << bit;
      if ((v & mask) == 0) edges.emplace_back(v, v | mask);
    }
  }
  return edges;
}

// A random-regular draw's edge list in a strided order, every other edge
// reversed, so rows fill out of order and from both endpoints.
EdgeList scrambled_random_regular_edges(Vertex n, std::uint32_t d) {
  Rng rng(11);
  const Graph g = gen::random_regular(n, d, rng);
  const std::size_t m = g.num_edges();
  EdgeList edges(m);
  for (std::size_t k = 0; k < m; ++k) {
    const auto [u, v] = g.edge_endpoints(static_cast<EdgeId>((k * 4099) % m));
    edges[k] = k % 2 == 0 ? std::pair{u, v} : std::pair{v, u};
  }
  return edges;
}

// The ShardedCsrBuild list: a two-offset circulant in a strided
// permutation plus an irregular star overlay.
EdgeList circulant_star_edges(Vertex n) {
  EdgeList edges;
  for (Vertex v = 0; v < n; ++v) {
    edges.emplace_back(v, (v + 1) % n);
    edges.emplace_back(v, (v + 5) % n);
  }
  for (Vertex v = 10; v < 200; v += 7) edges.emplace_back(3, v);
  EdgeList scrambled(edges.size());
  for (std::size_t k = 0; k < edges.size(); ++k) {
    scrambled[k] = edges[(k * 911) % edges.size()];
  }
  return scrambled;
}

struct CsrCase {
  const char* name;
  Vertex n;
  EdgeList edges;
  std::uint64_t hash;
};

TEST(GraphBuildGolden, CsrContentIsPinnedAtEveryWidth) {
  const CsrCase cases[] = {
      {"hypercube(dim=10)", 1024, hypercube_edges(10),
       0x391A84EBA12569DDull},
      {"random_regular(4096,8)", 4096,
       scrambled_random_regular_edges(4096, 8), 0x314B3F1EAE1E6691ull},
      {"circulant+star(700)", 700, circulant_star_edges(700),
       0x35E9C4710E6339EFull},
  };
  ThreadPool pool(3);
  ThreadPool* prev = set_shard_pool(&pool);
  for (const CsrCase& c : cases) {
    for (const std::uint32_t width : {1u, 2u, 4u, 7u}) {
      const Graph g = Graph::build_owned(c.n, c.edges, width);
      EXPECT_EQ(csr_hash(g), c.hash)
          << c.name << " width " << width << ": 0x" << std::hex
          << csr_hash(g);
    }
  }
  set_shard_pool(prev);
}

// ---- Validation at width 4 ----------------------------------------------

// Builds on a private pool made inside the death-test child, so the child
// never waits on worker threads that fork did not copy.
void build_wide(Vertex n, const EdgeList& edges) {
  ThreadPool pool(3);
  ThreadPool* prev = set_shard_pool(&pool);
  (void)Graph::build_owned(n, edges, 4);
  set_shard_pool(prev);
}

// A path over [0, 8) on 12 vertices (rows 8..11 stay empty), with `bad`
// inserted at input position `at`.
EdgeList path_with(std::pair<Vertex, Vertex> bad, std::size_t at) {
  EdgeList edges;
  for (Vertex v = 0; v + 1 < 8; ++v) edges.emplace_back(v, v + 1);
  edges.insert(edges.begin() + static_cast<std::ptrdiff_t>(at), bad);
  return edges;
}

using GraphBuildDeathTest = ::testing::Test;

TEST(GraphBuildDeathTest, WideBuildRejectsSelfLoop) {
  EXPECT_DEATH(build_wide(12, path_with({5, 5}, 3)), "precondition");
  EXPECT_DEATH(build_wide(12, path_with({10, 10}, 7)), "precondition");
  EXPECT_DEATH(build_wide(2, {{0, 1}, {1, 1}}), "precondition");
}

TEST(GraphBuildDeathTest, WideBuildRejectsOutOfRange) {
  EXPECT_DEATH(build_wide(12, path_with({3, 12}, 0)), "precondition");
  EXPECT_DEATH(build_wide(12, path_with({11, 40}, 7)), "precondition");
  EXPECT_DEATH(build_wide(2, {{0, 1}, {2, 0}}), "precondition");
}

TEST(GraphBuildDeathTest, WideBuildRejectsDuplicatesAcrossChunks) {
  // The first and last input positions fall in different width-4 chunks.
  EXPECT_DEATH(build_wide(12, path_with({0, 1}, 7)), "precondition");
  EXPECT_DEATH(build_wide(12, path_with({7, 6}, 0)), "precondition");
  // On rows that are otherwise empty.
  EdgeList empty_rows = path_with({9, 10}, 0);
  empty_rows.emplace_back(9, 10);
  EXPECT_DEATH(build_wide(12, empty_rows), "precondition");
  empty_rows.back() = {10, 9};
  EXPECT_DEATH(build_wide(12, empty_rows), "precondition");
  // On a one-edge graph.
  EXPECT_DEATH(build_wide(2, {{0, 1}, {0, 1}}), "precondition");
  EXPECT_DEATH(build_wide(2, {{0, 1}, {1, 0}}), "precondition");
}

TEST(GraphBuildDeathTest, WideBuildAcceptsTheValidLists) {
  // The lists above minus their bad edge build fine at width 4.
  ThreadPool pool(3);
  ThreadPool* prev = set_shard_pool(&pool);
  EdgeList path;
  for (Vertex v = 0; v + 1 < 8; ++v) path.emplace_back(v, v + 1);
  const Graph g = Graph::build_owned(12, path, 4);
  EXPECT_EQ(g.num_edges(), 7u);
  EXPECT_EQ(g.degree(10), 0u);
  const Graph one = Graph::build_owned(2, EdgeList{{1, 0}}, 4);
  EXPECT_EQ(one.edge_endpoints(0), (std::pair<Vertex, Vertex>{0, 1}));
  set_shard_pool(prev);
}

}  // namespace
}  // namespace rumor

// Random graph generators.
#include <algorithm>
#include <cmath>
#include <vector>

#include "graph/builder.hpp"
#include "graph/generators.hpp"
#include "graph/properties.hpp"

namespace rumor::gen {

namespace {

// Partner rows of a d-regular multigraph: row v holds v's d partners, one
// slot per stub, so an edge {a, b} sits once in row a and once in row b (a
// self loop twice in its own row). The multiplicity of {a, b}, a != b, is
// the count of b in row a — d contiguous words, one cache line for the
// degrees the experiments use — so repair needs no hash map.
class PartnerRows {
 public:
  PartnerRows(Vertex n, std::uint32_t d,
              const std::vector<std::pair<Vertex, Vertex>>& edges)
      : d_(d), slots_(static_cast<std::size_t>(n) * d) {
    std::vector<std::uint32_t> fill(n, 0);
    for (const auto& [u, v] : edges) {
      slots_[static_cast<std::size_t>(u) * d_ + fill[u]++] = v;
      slots_[static_cast<std::size_t>(v) * d_ + fill[v]++] = u;
    }
  }

  [[nodiscard]] std::uint32_t count(Vertex a, Vertex b) const {
    const Vertex* row = slots_.data() + static_cast<std::size_t>(a) * d_;
    return static_cast<std::uint32_t>(std::count(row, row + d_, b));
  }

  // Row a loses one partner `from` and gains `to`.
  void replace(Vertex a, Vertex from, Vertex to) {
    Vertex* row = slots_.data() + static_cast<std::size_t>(a) * d_;
    Vertex* slot = std::find(row, row + d_, from);
    RUMOR_CHECK(slot != row + d_);
    *slot = to;
  }

 private:
  std::uint32_t d_;
  std::vector<Vertex> slots_;
};

// One configuration-model draw followed by edge-swap repair. Returns edges
// of a simple graph, or an empty vector if repair stalled (caller restarts).
std::vector<std::pair<Vertex, Vertex>> pairing_with_repair(Vertex n,
                                                           std::uint32_t d,
                                                           Rng& rng) {
  std::vector<Vertex> stubs;
  stubs.reserve(static_cast<std::size_t>(n) * d);
  for (Vertex v = 0; v < n; ++v) {
    for (std::uint32_t i = 0; i < d; ++i) stubs.push_back(v);
  }
  // Fisher-Yates shuffle, then pair consecutive stubs.
  for (std::size_t i = stubs.size() - 1; i > 0; --i) {
    std::swap(stubs[i], stubs[rng.below(i + 1)]);
  }

  const std::size_t m = stubs.size() / 2;
  std::vector<std::pair<Vertex, Vertex>> edges(m);
  for (std::size_t e = 0; e < m; ++e) {
    edges[e] = {stubs[2 * e], stubs[2 * e + 1]};
  }
  stubs = {};
  PartnerRows rows(n, d, edges);

  auto is_bad = [&](std::size_t e) {
    const auto [u, v] = edges[e];
    return u == v || rows.count(u, v) > 1;
  };

  std::vector<std::size_t> bad;
  for (std::size_t e = 0; e < m; ++e) {
    if (is_bad(e)) bad.push_back(e);
  }

  // Repair by random edge swaps: take a bad edge (u,v) and a uniformly
  // random partner edge (x,y); replace with (u,x),(v,y). Accept only if both
  // replacements are simple. Each accepted swap strictly reduces the
  // multiset of violations with high probability; a stall cap triggers a
  // full restart so the loop always terminates.
  std::size_t attempts = 0;
  const std::size_t max_attempts = 200 * (bad.size() + 1) + 10000;
  while (!bad.empty()) {
    if (++attempts > max_attempts) return {};
    const std::size_t bi = bad.size() - 1;
    const std::size_t e = bad[bi];
    if (!is_bad(e)) {  // repaired as a side effect of an earlier swap
      bad.pop_back();
      continue;
    }
    const std::size_t partner = rng.below(m);
    if (partner == e) continue;
    auto [u, v] = edges[e];
    auto [x, y] = edges[partner];
    if (rng.coin()) std::swap(x, y);  // both swap orientations reachable

    if (u == x || v == y) continue;  // would create self loops
    // The two replacements must be distinct and absent once the two old
    // edges are gone: a count in row u (row v) includes {u,v} itself iff
    // x == v (y == u), and the partner {x,y} iff y == u (x == v).
    if (u == v && x == y) continue;  // {u,x} == {v,y}
    if (u == y && x == v) continue;
    if (rows.count(u, x) - (x == v) - (y == u) > 0) continue;
    if (rows.count(v, y) - (y == u) - (x == v) > 0) continue;

    // Apply the swap: each of the four rows trades one partner.
    rows.replace(u, v, x);
    rows.replace(v, u, y);
    rows.replace(x, y, u);
    rows.replace(y, x, v);
    edges[e] = {u, x};
    edges[partner] = {v, y};
    if (!is_bad(e)) bad.pop_back();
    if (is_bad(partner)) bad.push_back(partner);
  }
  return edges;
}

}  // namespace

Graph random_regular(Vertex n, std::uint32_t d, Rng& rng) {
  RUMOR_REQUIRE(n >= 2);
  RUMOR_REQUIRE(d >= 1 && d < n);
  RUMOR_REQUIRE((static_cast<std::uint64_t>(n) * d) % 2 == 0);

  for (;;) {
    auto edges = pairing_with_repair(n, d, rng);
    if (edges.empty()) continue;  // repair stalled; redraw
    Graph g(n, edges);
    // d >= 3 random regular graphs are connected w.h.p.; resample the rare
    // exceptions (and the common ones for d <= 2) so callers always get a
    // usable broadcast substrate.
    if (is_connected(g)) return g;
  }
}

Graph erdos_renyi_connected(Vertex n, double p, Rng& rng) {
  RUMOR_REQUIRE(n >= 2);
  RUMOR_REQUIRE(p > 0.0 && p <= 1.0);

  for (;;) {
    GraphBuilder b(n);
    // Geometric skipping over the linearized strictly-upper-triangular pair
    // index space: O(m + n) per draw instead of O(n^2).
    const double log1mp = std::log1p(-p);
    // Geometric(p) number of skipped pairs before the next present edge.
    auto gap = [&]() -> std::uint64_t {
      if (p >= 1.0) return 0;
      const double u = rng.uniform01();
      return static_cast<std::uint64_t>(std::log1p(-u) / log1mp);
    };
    const std::uint64_t total = static_cast<std::uint64_t>(n) * (n - 1) / 2;
    Vertex row = 0;
    std::uint64_t row_start = 0;  // linear index of pair (row, row+1)
    for (std::uint64_t idx = gap(); idx < total; idx += 1 + gap()) {
      // Advance to the row containing idx.
      while (idx >= row_start + (n - 1 - row)) {
        row_start += n - 1 - row;
        ++row;
      }
      const auto col = static_cast<Vertex>(row + 1 + (idx - row_start));
      b.add_edge(row, col);
    }
    Graph g = b.build();
    if (is_connected(g)) return g;
  }
}

}  // namespace rumor::gen

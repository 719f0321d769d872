// Per-backend graph access policies for hot loops.
//
// Mirrors the transmission::Uniform/General mode-tag pattern: a kernel that
// runs many contacts per round asks with_graph_access() to pick the policy
// ONCE, then instantiates its loop body per policy — so the owned/mapped
// path keeps raw CSR pointer loads (and real prefetches) while the implicit
// path compiles to pure arithmetic, with no per-call branch or virtual
// dispatch inside the loop. Exactly two instantiations exist per kernel,
// which bounds compile time the same way the two transmission tags do.
//
// Both policies enumerate neighbors in identical sorted order and consume
// identical RNG draw sequences, so a seeded trajectory is byte-identical
// whichever policy runs (the backend-equivalence contract pinned in
// tests/test_graph_backend.cpp).
#pragma once

#include <utility>

#include "graph/graph.hpp"
#include "graph/implicit.hpp"

namespace rumor {

// One vertex's adjacency row resolved once: callers that need the degree
// and then pick a slot reuse the row instead of re-deriving it.
struct GraphRow {
  Vertex v;
  std::uint32_t lo;   // CSR row start (unused by the implicit policy)
  std::uint32_t deg;
};

// Materialized backends (owned, mapped): raw pointer loads.
struct CsrAccess {
  const std::uint32_t* offsets;
  const Vertex* neighbors;

  [[nodiscard]] std::uint32_t degree(Vertex v) const {
    return offsets[v + 1] - offsets[v];
  }
  [[nodiscard]] Vertex neighbor(Vertex v, std::uint32_t i) const {
    return neighbors[offsets[v] + i];
  }
  [[nodiscard]] GraphRow row(Vertex v) const {
    const std::uint32_t lo = offsets[v];
    return {v, lo, offsets[v + 1] - lo};
  }
  [[nodiscard]] Vertex pick(const GraphRow& r, std::uint32_t i) const {
    return neighbors[r.lo + i];
  }
  // Warm the offsets cache line for an upcoming row() call.
  void prefetch_degree(Vertex v) const {
    __builtin_prefetch(offsets + v, /*rw=*/0, /*locality=*/3);
  }
  // Warm the start of v's neighbor row; reads offsets[v], so pair it with
  // an earlier prefetch_degree(v).
  void prefetch_row(Vertex v) const {
    __builtin_prefetch(neighbors + offsets[v], /*rw=*/0, /*locality=*/3);
  }
};

// Implicit backend: adjacency synthesized from the family closed forms;
// the desc is copied by value so the loop works out of registers.
struct ImplicitAccess {
  ImplicitDesc desc;

  [[nodiscard]] std::uint32_t degree(Vertex v) const {
    return implicit_degree(desc, v);
  }
  [[nodiscard]] Vertex neighbor(Vertex v, std::uint32_t i) const {
    return implicit_neighbor(desc, v, i);
  }
  [[nodiscard]] GraphRow row(Vertex v) const {
    return {v, 0, implicit_degree(desc, v)};
  }
  [[nodiscard]] Vertex pick(const GraphRow& r, std::uint32_t i) const {
    return implicit_neighbor(desc, r.v, i);
  }
  void prefetch_degree(Vertex) const {}  // nothing to load
  void prefetch_row(Vertex) const {}
};

// Resolves the backend once and invokes f with the matching policy.
template <class F>
decltype(auto) with_graph_access(const Graph& g, F&& f) {
  if (g.is_implicit()) {
    return std::forward<F>(f)(ImplicitAccess{g.implicit_desc()});
  }
  const CsrView csr = g.csr();
  return std::forward<F>(f)(CsrAccess{csr.offsets, csr.neighbors});
}

}  // namespace rumor

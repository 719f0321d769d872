#include "graph/graph.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <mutex>

#include "support/thread_pool.hpp"

namespace rumor {

struct Graph::PropertyState {
  std::once_flag once;
  std::atomic<bool> ready{false};
  GraphProperties props;
};

namespace {

// Backing store of the owned backend, shared by copies via payload_. Raw
// arrays instead of vectors: vector::resize zero-fills every page on the
// allocating thread, which would defeat NUMA first-touch placement —
// make_unique_for_overwrite leaves the pages untouched until the per-row
// passes write them.
struct OwnedCsr {
  std::unique_ptr<std::uint32_t[]> offsets;                // n+1 entries
  std::unique_ptr<Vertex[]> neighbors;                     // 2m, sorted
  std::unique_ptr<EdgeId[]> edge_ids;                      // 2m
  std::unique_ptr<std::pair<Vertex, Vertex>[]> edge_list;  // m, u < v
};

// Edge lists at or above this size build at the ambient pool's width when
// the public constructor picks the width (explicit build_owned widths are
// never overridden). Matches the spirit of kShardAutoThreshold: only graphs
// big enough that page placement and build time matter pay the fan-out.
constexpr std::size_t kShardedBuildEdgeThreshold = std::size_t{1} << 22;

// Runs fn(shard, begin, end) over the shard_range partition of [0, count)
// into `width` ranges. Width 1 runs inline and never touches the pool.
template <class Fn>
void for_ranges(std::size_t count, std::uint32_t width, Fn&& fn) {
  if (width <= 1) {
    if (count > 0) fn(std::size_t{0}, std::size_t{0}, count);
    return;
  }
  shard_pool().parallel_for_ranges(count, width, fn);
}

// Post-increments a counter that other shards may bump concurrently; the
// per-row sort makes every result independent of the order of the bumps.
std::uint32_t bump(std::uint32_t& counter, std::uint32_t width) {
  if (width <= 1) return counter++;
  return std::atomic_ref(counter).fetch_add(1, std::memory_order_relaxed);
}

}  // namespace

void Graph::assign_uid() {
  static std::atomic<std::uint64_t> next_uid{1};
  uid_ = next_uid.fetch_add(1, std::memory_order_relaxed);
}

void Graph::prefill_properties(const GraphProperties& props) {
  property_state_ = std::make_shared<PropertyState>();
  PropertyState& state = *property_state_;
  std::call_once(state.once, [&] {
    state.props = props;
    state.ready.store(true, std::memory_order_release);
  });
}

Graph::Graph(Vertex num_vertices,
             std::span<const std::pair<Vertex, Vertex>> edges) {
  // Auto width: huge edge lists build sharded over the ambient pool (the
  // first shard_pool() call constructs the global pool — acceptable at
  // this size, the build itself dwarfs it); everything else stays serial
  // and never touches the pool.
  std::uint32_t width = 1;
  if (edges.size() >= kShardedBuildEdgeThreshold) {
    width = static_cast<std::uint32_t>(shard_pool().worker_count());
  }
  init_owned(num_vertices, edges, width);
}

Graph Graph::build_owned(Vertex num_vertices,
                         std::span<const std::pair<Vertex, Vertex>> edges,
                         std::uint32_t shards) {
  Graph g;
  g.init_owned(num_vertices, edges, std::max<std::uint32_t>(shards, 1));
  return g;
}

// One counting build at every width: count degrees, scatter both endpoints
// of every edge into their rows, sort each row, then number the edges. The
// width only decides who runs each pass. Passes over the input split it
// into chunks and bump shared counters atomically; per-row passes use the
// shard_range partition of the vertices the sharded round kernels use, so
// shard s first-touches exactly the offset, neighbor, edge-id and
// edge-list ranges it will later step — on a NUMA machine the pages land
// on the worker's node instead of all on the allocating thread's. Sorted
// rows and rank-ordered edge ids are unique, so the arrays are
// byte-identical at every width.
void Graph::init_owned(Vertex num_vertices,
                       std::span<const std::pair<Vertex, Vertex>> edges,
                       std::uint32_t width) {
  n_ = num_vertices;
  m_ = edges.size();
  property_state_ = std::make_shared<PropertyState>();
  // The empty graph (no vertices, no edges) is representable so property
  // queries have a well-defined answer; simulators still require a valid
  // source vertex and therefore reject it.
  RUMOR_REQUIRE(num_vertices > 0 || edges.empty());
  RUMOR_REQUIRE(edges.size() < std::numeric_limits<EdgeId>::max() / 2);
  const std::size_t n = n_;
  const std::size_t m = m_;

  auto owned = std::make_shared<OwnedCsr>();
  owned->offsets = std::make_unique_for_overwrite<std::uint32_t[]>(n + 1);
  owned->neighbors = std::make_unique_for_overwrite<Vertex[]>(2 * m);
  owned->edge_ids = std::make_unique_for_overwrite<EdgeId[]>(2 * m);
  owned->edge_list =
      std::make_unique_for_overwrite<std::pair<Vertex, Vertex>[]>(m);
  auto* off = owned->offsets.get();
  auto* nbr = owned->neighbors.get();
  auto* eid = owned->edge_ids.get();
  auto* el = owned->edge_list.get();

  // 1. Degrees into off[v + 1] (validating each edge first), then the
  // prefix sum into row offsets.
  off[0] = 0;
  for_ranges(n, width, [&](std::size_t, std::size_t begin, std::size_t end) {
    std::fill(off + begin + 1, off + end + 1, 0u);
  });
  for_ranges(m, width, [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      const auto [u, v] = edges[i];
      RUMOR_REQUIRE(u < n_ && v < n_);
      RUMOR_REQUIRE(u != v);  // no self loops
      bump(off[u + 1], width);
      bump(off[v + 1], width);
    }
  });
  for (std::size_t v = 0; v < n; ++v) off[v + 1] += off[v];

  std::vector<std::uint32_t> fwd(n + 1, 0);

  // 2. Scatter both endpoints into their rows, in any order, using the
  // edge-id array as scratch (step 5 overwrites it). Its rows are zeroed
  // by their owners first, so the scatter is not what first-touches them.
  {
    Vertex* scratch = eid;
    auto cursor = std::make_unique_for_overwrite<std::uint32_t[]>(n);
    for_ranges(n, width, [&](std::size_t, std::size_t begin, std::size_t end) {
      std::copy(off + begin, off + end, cursor.get() + begin);
      std::fill(eid + off[begin], eid + off[end], 0u);
    });
    for_ranges(m, width, [&](std::size_t, std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        const auto [u, v] = edges[i];
        scratch[bump(cursor[u], width)] = v;
        scratch[bump(cursor[v], width)] = u;
      }
    });

    // 3. Sort each row into place; a duplicate edge (in either
    // orientation) shows as two equal neighbors. Forward neighbors (> v)
    // form the tail of the sorted row; their count goes to cursor[v].
    for_ranges(n, width, [&](std::size_t, std::size_t begin, std::size_t end) {
      for (std::size_t v = begin; v < end; ++v) {
        Vertex* row = nbr + off[v];
        Vertex* row_end = nbr + off[v + 1];
        std::copy(scratch + off[v], scratch + off[v + 1], row);
        std::sort(row, row_end);
        RUMOR_REQUIRE(std::adjacent_find(row, row_end) == row_end);
        cursor[v] = static_cast<std::uint32_t>(
            row_end - std::upper_bound(row, row_end, static_cast<Vertex>(v)));
      }
    });

    // 4. fwd[v] = edges whose smaller endpoint is below v: the id of v's
    // first forward edge (ids rank edges by their (min, max) pair).
    for (std::size_t v = 0; v < n; ++v) fwd[v + 1] = fwd[v] + cursor[v];
  }

  // 5. Edge ids and the edge list, row by row. The k-th forward slot of u
  // is edge fwd[u] + k; a back slot w < u takes the id of u in w's row,
  // found by binary search there.
  const auto back_count = [&](std::size_t v) {
    return (off[v + 1] - off[v]) - (fwd[v + 1] - fwd[v]);
  };
  for_ranges(n, width, [&](std::size_t, std::size_t begin, std::size_t end) {
    for (std::size_t u = begin; u < end; ++u) {
      const std::uint32_t back = back_count(u);
      for (std::uint32_t i = off[u]; i < off[u] + back; ++i) {
        const Vertex w = nbr[i];
        const Vertex* w_fwd = nbr + off[w] + back_count(w);
        const Vertex* w_end = nbr + off[w + 1];
        eid[i] = fwd[w] + static_cast<EdgeId>(
            std::lower_bound(w_fwd, w_end, static_cast<Vertex>(u)) - w_fwd);
      }
      EdgeId e = fwd[u];
      for (std::uint32_t i = off[u] + back; i < off[u + 1]; ++i, ++e) {
        eid[i] = e;
        el[e] = {static_cast<Vertex>(u), nbr[i]};
      }
    }
  });

  offsets_p_ = off;
  neighbors_p_ = nbr;
  edge_ids_p_ = eid;
  edge_list_p_ = el;
  payload_ = std::move(owned);

  min_degree_ = n_ > 0 ? std::numeric_limits<std::uint32_t>::max() : 0;
  max_degree_ = 0;
  degrees_all_pow2_ = n_ > 0;
  for (Vertex v = 0; v < n_; ++v) {
    const std::uint32_t d = off[v + 1] - off[v];
    min_degree_ = std::min(min_degree_, d);
    max_degree_ = std::max(max_degree_, d);
    degrees_all_pow2_ = degrees_all_pow2_ && d > 0 && (d & (d - 1)) == 0;
  }
  assign_uid();
}

Graph Graph::make_implicit(const ImplicitDesc& desc) {
  RUMOR_REQUIRE(desc.kind != ImplicitKind::none);
  RUMOR_REQUIRE(desc.n > 0);
  Graph g;
  g.backend_ = GraphBackend::implicit;
  g.implicit_ = desc;
  g.n_ = desc.n;
  g.m_ = desc.m;
  g.min_degree_ = desc.min_degree;
  g.max_degree_ = desc.max_degree;
  g.degrees_all_pow2_ = desc.degrees_all_pow2;
  GraphProperties props;
  props.connected = desc.connected;
  props.bipartite = desc.bipartite;
  props.regular = desc.min_degree == desc.max_degree;
  props.degrees_all_pow2 = desc.degrees_all_pow2;
  g.prefill_properties(props);
  g.assign_uid();
  return g;
}

Graph Graph::from_external(ExternalCsr ext) {
  RUMOR_REQUIRE(ext.offsets != nullptr && ext.neighbors != nullptr &&
                ext.edge_ids != nullptr && ext.fwd_offsets != nullptr);
  RUMOR_REQUIRE(ext.m < std::numeric_limits<EdgeId>::max() / 2);
  Graph g;
  g.backend_ = GraphBackend::mapped;
  g.n_ = ext.n;
  g.m_ = ext.m;
  g.offsets_p_ = ext.offsets;
  g.neighbors_p_ = ext.neighbors;
  g.edge_ids_p_ = ext.edge_ids;
  g.fwd_offsets_p_ = ext.fwd_offsets;
  g.min_degree_ = ext.min_degree;
  g.max_degree_ = ext.max_degree;
  g.degrees_all_pow2_ = ext.degrees_all_pow2;
  g.payload_ = std::move(ext.keep_alive);
  g.prefill_properties(ext.props);
  g.assign_uid();
  return g;
}

std::pair<Vertex, Vertex> Graph::edge_endpoints(EdgeId e) const {
  RUMOR_CHECK(e < m_);
  switch (backend_) {
    case GraphBackend::owned:
      return edge_list_p_[e];
    case GraphBackend::implicit:
      return implicit_edge_endpoints(implicit_, e);
    case GraphBackend::mapped: {
      // Owner u: the unique vertex with fwd_offsets[u] <= e <
      // fwd_offsets[u+1]; its forward neighbors sit after its
      // back-neighbors in the sorted row.
      Vertex lo = 0;
      Vertex hi = n_ - 1;
      while (lo < hi) {
        const Vertex mid = lo + (hi - lo) / 2;
        if (fwd_offsets_p_[mid + 1] > e) {
          hi = mid;
        } else {
          lo = mid + 1;
        }
      }
      const std::uint32_t deg = offsets_p_[lo + 1] - offsets_p_[lo];
      const std::uint32_t fwd = fwd_offsets_p_[lo + 1] - fwd_offsets_p_[lo];
      const std::uint32_t back = deg - fwd;
      const Vertex v =
          neighbors_p_[offsets_p_[lo] + back + (e - fwd_offsets_p_[lo])];
      return {lo, v};
    }
  }
  return {0u, 0u};
}

const GraphProperties& Graph::properties() const {
  RUMOR_CHECK(property_state_ != nullptr);  // not moved-from
  PropertyState& state = *property_state_;
  std::call_once(state.once, [&] {
    GraphProperties p;
    p.regular = is_regular();
    p.degrees_all_pow2 = degrees_all_pow2_;
    // One BFS pass computes connectivity (all vertices reached from vertex
    // 0) and bipartiteness (2-coloring across every component) together.
    // 2 = uncolored; the scratch is allocated once per graph, never per
    // trial. Only owned graphs land here — implicit and mapped backends
    // prefill the state at construction.
    std::vector<std::uint8_t> color(n_, 2);
    std::vector<Vertex> queue;
    queue.reserve(n_);
    p.bipartite = true;
    std::size_t reached_from_zero = 0;
    for (Vertex start = 0; start < n_; ++start) {
      if (color[start] != 2) continue;
      color[start] = 0;
      queue.push_back(start);
      std::size_t head = 0;
      while (head < queue.size()) {
        const Vertex u = queue[head++];
        const std::uint32_t deg = degree_unchecked(u);
        for (std::uint32_t i = 0; i < deg; ++i) {
          const Vertex v = neighbor_unchecked(u, i);
          if (color[v] == 2) {
            color[v] = color[u] ^ 1;
            queue.push_back(v);
          } else if (color[v] == color[u]) {
            p.bipartite = false;
          }
        }
      }
      if (start == 0) reached_from_zero = queue.size();
      queue.clear();
    }
    // Convention: a single vertex is connected, the empty graph is not.
    p.connected = n_ > 0 && reached_from_zero == n_;
    state.props = p;
    state.ready.store(true, std::memory_order_release);
  });
  return state.props;
}

bool Graph::properties_cached() const {
  return property_state_ != nullptr &&
         property_state_->ready.load(std::memory_order_acquire);
}

bool Graph::has_edge(Vertex u, Vertex v) const {
  RUMOR_REQUIRE(u < n_ && v < n_);
  // Binary search the sorted neighbor list of u; neighbor_unchecked makes
  // this backend-generic (implicit lists are synthesized, still sorted).
  std::uint32_t lo = 0;
  std::uint32_t hi = degree_unchecked(u);
  while (lo < hi) {
    const std::uint32_t mid = lo + (hi - lo) / 2;
    const Vertex w = neighbor_unchecked(u, mid);
    if (w == v) return true;
    if (w < v) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return false;
}

}  // namespace rumor

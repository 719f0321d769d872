// Experiment specifications: declarative graph + protocol descriptions that
// the trial runner, the scenario files, and the microbenchmarks share.
//
// Both halves have a canonical text round-trip: GraphSpec::parse /
// GraphSpec::name for the graph ("star(leaves=1024)"), ProtocolSpec::parse
// / ProtocolSpec::name for the protocol ("frog(frogs=2,lazy=half)").
// run_protocol dispatches through the SimulatorRegistry, so every
// registered simulator — built-in or downstream — is reachable from a
// parsed spec.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/protocol_spec.hpp"
#include "core/registry.hpp"
#include "graph/graph.hpp"
#include "support/rng.hpp"

namespace rumor {

enum class Family {
  star,              // param a = number of leaves
  double_star,       // a = leaves per star
  heavy_tree,        // a = tree vertices
  siamese,           // a = vertices per copy
  cycle_stars_cliques,  // a = k (n = k + k^2 + k^3)
  complete,          // a = n
  cycle,             // a = n
  path,              // a = n
  grid,              // a = rows, b = cols
  torus,             // a = rows, b = cols
  hypercube,         // a = dimension
  circulant,         // a = n, b = half-degree k
  clique_ring,       // a = groups, b = clique size
  clique_path,       // a = groups, b = clique size
  random_regular,    // a = n, b = degree d
  erdos_renyi,       // a = n, p = edge probability
  barbell,           // a = clique size
  star_of_cliques,   // a = cliques, b = clique size
  binary_tree,       // a = n
  file,              // path = SNAP edge list ("file:<path>" in the grammar)
};

// Storage-backend request in a graph spec (`backend=` key). `automatic`
// resolves to the implicit backend for the families with closed-form
// adjacency (star, cycle, complete, grid, torus, circulant) — identical
// structure and trajectories, O(1) memory — and owned CSR otherwise.
// `owned` forces materialization (reference behavior, equivalence tests);
// `implicit` demands the closed forms and is a parse error elsewhere.
enum class GraphBackendChoice : std::uint8_t { automatic, owned, implicit };

// Analytic size/shape report for a spec — what make() would build, without
// building it. Drives up-front scenario validation, the lazy scheduler's
// source checks, and the --dry-run memory estimates.
struct GraphProbe {
  Vertex n = 0;
  std::uint64_t m = 0;
  // True when m is an expectation, not exact (erdos_renyi).
  bool m_estimated = false;
  GraphBackend backend = GraphBackend::owned;
  // Private adjacency bytes one built instance holds: exact CSR footprint
  // for owned, 0 for implicit, the (shared, page-cache) mapped file size
  // for the file backend.
  std::uint64_t graph_bytes = 0;
};

struct GraphSpec {
  Family family = Family::complete;
  std::uint64_t a = 0;
  std::uint64_t b = 0;
  double p = 0.0;
  std::string path{};  // Family::file only
  GraphBackendChoice backend = GraphBackendChoice::automatic;

  // Builds the graph; rng is consumed only by random families. File graphs
  // may throw GraphFileError (callers validate via probe() first).
  [[nodiscard]] Graph make(Rng& rng) const;

  // Backend make() will produce, after resolving `automatic`.
  [[nodiscard]] GraphBackend resolved_backend() const;

  // Validates the parameters (the same preconditions make() enforces) and
  // reports the analytic sizes + backend. For file specs this stats the
  // source and parses it once if no fresh cache exists — the typed error
  // path that lets scenario validation reject a bad path before any trial.
  [[nodiscard]] std::optional<GraphProbe> probe(
      std::string* error = nullptr) const;

  // Canonical text form, e.g. "star(leaves=1024)" or
  // "erdos_renyi(n=32,p=0.3)" or "file:data/edges.txt"; a non-default
  // backend choice is emitted as a backend= key. parse(name()) reproduces
  // the spec.
  [[nodiscard]] std::string name() const;
  static std::optional<GraphSpec> parse(std::string_view text,
                                        std::string* error = nullptr);

  // True if make() consumes randomness (trials may want fresh graphs).
  [[nodiscard]] bool is_random() const {
    return family == Family::random_regular || family == Family::erdos_renyi;
  }

  friend bool operator==(const GraphSpec&, const GraphSpec&) = default;
};

// The spec-grammar heads of every graph family, in table order (drives
// `rumor_run --list`; the same table drives name()/parse()).
[[nodiscard]] std::vector<std::string_view> graph_family_names();

// Full parameter signatures, one per family, straight from the grammar
// table — e.g. "grid(rows,cols)", "erdos_renyi(n,p)" — so `rumor_run
// --list` documents the exact keys parse() will accept.
[[nodiscard]] std::vector<std::string> graph_family_signatures();

// Runs one trial of the protocol on the given graph through the simulator
// registry. A non-null `arena` lends reusable scratch buffers (the trial
// runner passes one per worker so steady-state trials allocate nothing).
[[nodiscard]] TrialResult run_protocol(const Graph& g,
                                       const ProtocolSpec& spec,
                                       Vertex source, std::uint64_t seed,
                                       TrialArena* arena = nullptr);

}  // namespace rumor

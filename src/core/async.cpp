#include "core/async.hpp"

#include <memory>

#include "core/registry.hpp"
#include "support/assert.hpp"
#include "support/spec_text.hpp"

namespace rumor {

namespace {

template <class Mode>
AsyncResult run_async_impl(const Graph& g, Vertex source, std::uint64_t seed,
                           const AsyncOptions& options,
                           TransmissionModel& model, StampSet& informed) {
  const Vertex n = g.num_vertices();
  const std::uint64_t cutoff =
      options.max_ticks != 0
          ? options.max_ticks
          : static_cast<std::uint64_t>(n) * default_round_cutoff(n);
  informed.reset(n);
  informed.insert(source);
  std::uint32_t informed_count = 1;

  Rng rng(seed);
  AsyncResult result;
  while (informed_count < n && result.ticks < cutoff) {
    ++result.ticks;
    const auto u = static_cast<Vertex>(rng.below(n));
    const Vertex v = g.random_neighbor(u, rng);
    // In the asynchronous model there are no rounds, so the exchange acts
    // on the current state. The success draw fires only for state-changing
    // deliveries, mirroring the synchronous simulators.
    const bool u_informed = informed.contains(u);
    const bool v_informed = informed.contains(v);
    if (u_informed && !v_informed) {
      if (!model.attempt<Mode>(u, v)) continue;
      informed.insert(v);
      ++informed_count;
    } else if (!u_informed && v_informed && options.pull_enabled) {
      if (!model.attempt<Mode>(v, u)) continue;
      informed.insert(u);
      ++informed_count;
    }
  }
  result.completed = (informed_count == n);
  result.informed = informed_count;
  result.time_units =
      static_cast<double>(result.ticks) / static_cast<double>(n);
  return result;
}

}  // namespace

AsyncResult run_async_push_pull(const Graph& g, Vertex source,
                                std::uint64_t seed, AsyncOptions options,
                                TrialArena* arena) {
  RUMOR_REQUIRE(source < g.num_vertices());
  // The informed set lives in the arena's vertex marks (O(1) reset, zero
  // steady-state allocations); without an arena a private one is owned for
  // the duration of the run.
  std::unique_ptr<TrialArena> owned_arena;
  if (arena == nullptr) {
    owned_arena = std::make_unique<TrialArena>();
    arena = owned_arena.get();
  }
  TransmissionModel model;
  model.bind(g, options.transmission, *arena, seed);
  if (model.trivial()) {
    return run_async_impl<transmission::Uniform>(g, source, seed, options,
                                                 model, arena->vertex_marks);
  }
  return run_async_impl<transmission::General>(g, source, seed, options,
                                               model, arena->vertex_marks);
}

// ---- Scenario registry entry ------------------------------------------

namespace {

TrialResult async_entry_run(const Graph& g, const ProtocolOptions& options,
                            Vertex source, std::uint64_t seed,
                            TrialArena* arena) {
  const AsyncResult r = run_async_push_pull(
      g, source, seed, std::get<AsyncOptions>(options), arena);
  TrialResult result;
  result.rounds = r.time_units;  // ticks / n: comparable to sync rounds
  result.completed = r.completed;
  result.informed = r.informed;
  return result;
}

void async_entry_format(const ProtocolOptions& options,
                        const ProtocolOptions& defaults,
                        spec_text::KeyValWriter& out) {
  const auto& opt = std::get<AsyncOptions>(options);
  const auto& def = std::get<AsyncOptions>(defaults);
  if (opt.max_ticks != def.max_ticks) out.add("max_ticks", opt.max_ticks);
  if (opt.pull_enabled != def.pull_enabled) {
    out.add("pull", opt.pull_enabled ? "on" : "off");
  }
  format_transmission_probability_options(opt.transmission, def.transmission,
                                          out);
}

bool async_entry_set(ProtocolOptions& options, std::string_view key,
                     std::string_view value) {
  auto& opt = std::get<AsyncOptions>(options);
  if (key == "max_ticks") {
    const auto v = spec_text::parse_magnitude(value);
    if (!v) return false;
    opt.max_ticks = *v;
    return true;
  }
  if (key == "pull") {
    const auto v = spec_text::parse_bool(value);
    if (!v) return false;
    opt.pull_enabled = *v;
    return true;
  }
  return set_transmission_probability_option(opt.transmission, key, value);
}

TraceOptions* async_entry_trace(ProtocolOptions&) {
  return nullptr;  // the sequential-activation simulator records no traces
}

}  // namespace

void register_async_simulator(SimulatorRegistry& registry) {
  SimulatorEntry entry;
  entry.id = Protocol::async_push_pull;
  entry.name = "async";
  entry.summary =
      "asynchronous push-pull (Poisson clocks via sequential activation); "
      "rounds reported in time units (ticks/n)";
  entry.defaults = AsyncOptions{};
  entry.run = async_entry_run;
  entry.format_options = async_entry_format;
  entry.set_option = async_entry_set;
  entry.trace = async_entry_trace;
  registry.add(std::move(entry));
}

}  // namespace rumor

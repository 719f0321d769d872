#include "experiments/scenario.hpp"

#include <fstream>
#include <sstream>

#include "support/spec_text.hpp"

namespace rumor {

namespace {

void set_error(std::string* error, std::string message) {
  if (error != nullptr) *error = std::move(message);
}

std::vector<std::string_view> split_tokens(std::string_view line) {
  std::vector<std::string_view> tokens;
  while (!line.empty()) {
    const std::size_t start = line.find_first_not_of(" \t");
    if (start == std::string_view::npos) break;
    line.remove_prefix(start);
    const std::size_t end = line.find_first_of(" \t");
    tokens.push_back(line.substr(0, end));
    if (end == std::string_view::npos) break;
    line.remove_prefix(end);
  }
  return tokens;
}

// Applies one trailing `key=value` plan token; false = not a plan key.
bool set_plan_option(TrialPlan& plan, std::string& label,
                     std::string_view key, std::string_view value,
                     std::string* error) {
  if (key == "trials") {
    const auto v = spec_text::parse_magnitude(value);
    if (!v || *v == 0) {
      set_error(error, "bad value trials=" + std::string(value));
      return false;
    }
    plan.trials = static_cast<std::size_t>(*v);
  } else if (key == "seed") {
    const auto v = spec_text::parse_magnitude(value);
    if (!v) {
      set_error(error, "bad value seed=" + std::string(value));
      return false;
    }
    plan.seed = *v;
  } else if (key == "source") {
    const auto v = spec_text::parse_magnitude(value);
    // Past the Vertex range the cast would truncate to a different vertex.
    if (!v || *v > kNoVertex) {
      set_error(error, "bad value source=" + std::string(value));
      return false;
    }
    plan.source = static_cast<Vertex>(*v);
  } else if (key == "fresh") {
    const auto v = spec_text::parse_bool(value);
    if (!v) {
      set_error(error, "bad value fresh=" + std::string(value));
      return false;
    }
    plan.fresh_graph = *v;
  } else if (key == "label") {
    // '#' would be stripped as a comment when the canonical line is
    // written to a scenario file and re-read.
    if (value.empty() || value.find('#') != std::string_view::npos) {
      set_error(error, "bad label \"" + std::string(value) +
                           "\" (must be non-empty, no '#')");
      return false;
    }
    label = std::string(value);
  } else {
    set_error(error, "unknown scenario option \"" + std::string(key) + "\"");
    return false;
  }
  return true;
}

// ---- Sweep expansion ---------------------------------------------------
//
// Expansion is textual: the line is sliced into literal pieces and sweep
// slots, every combination is re-assembled and handed to the ordinary
// scalar parser. That keeps one grammar — an expanded line is valid input
// by construction, and every parse diagnostic comes from one place.

// One swept key=value site in a line.
struct SweepSlot {
  std::string key;
  std::vector<std::string> values;
};

// A line sliced at its sweep values: literal text in `text`, or a
// substitution point referencing slots[slot].
struct LinePiece {
  std::string text;
  int slot = -1;
};

void add_literal(std::vector<LinePiece>& pieces, std::string_view text) {
  if (text.empty()) return;
  pieces.push_back({std::string(text), -1});
}

// Registers `value` as a sweep slot if it uses sweep syntax; returns
// false only on a malformed sweep. Scalar values stay literal. The label
// is free text, so a ".." inside it is not a range ("label=run1..2" was
// always legal) — but a {...} list still sweeps it.
bool add_value(std::vector<LinePiece>& pieces, std::vector<SweepSlot>& slots,
               std::string_view key, std::string_view value,
               std::string* error) {
  const bool label_range =
      key == "label" && (value.empty() || value.front() != '{');
  if (label_range || !spec_text::is_sweep_value(value)) {
    add_literal(pieces, value);
    return true;
  }
  auto expanded = spec_text::expand_sweep_value(value, error);
  if (!expanded) return false;
  pieces.push_back({std::string(), static_cast<int>(slots.size())});
  slots.push_back({std::string(key), std::move(*expanded)});
  return true;
}

// Slices one whitespace token ("key=value", "head(k=v,...)", or a bare
// head) into pieces/slots. Structurally odd tokens pass through literal —
// the scalar parser owns their diagnostics.
bool scan_token(std::vector<LinePiece>& pieces, std::vector<SweepSlot>& slots,
                std::string_view token, std::string* error) {
  const std::size_t open = token.find('(');
  if (open == std::string_view::npos) {
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      add_literal(pieces, token);
      return true;
    }
    add_literal(pieces, token.substr(0, eq + 1));
    return add_value(pieces, slots, token.substr(0, eq),
                     token.substr(eq + 1), error);
  }
  if (token.back() != ')') {
    add_literal(pieces, token);
    return true;
  }
  add_literal(pieces, token.substr(0, open + 1));
  std::string_view args = token.substr(open + 1, token.size() - open - 2);
  bool first = true;
  while (!args.empty()) {
    const std::size_t comma = spec_text::find_top_level_comma(args);
    const std::string_view item =
        comma == std::string_view::npos ? args : args.substr(0, comma);
    args = comma == std::string_view::npos ? std::string_view{}
                                           : args.substr(comma + 1);
    if (!first) add_literal(pieces, ",");
    first = false;
    const std::size_t eq = item.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      add_literal(pieces, item);
      continue;
    }
    add_literal(pieces, item.substr(0, eq + 1));
    if (!add_value(pieces, slots, spec_text::trim(item.substr(0, eq)),
                   item.substr(eq + 1), error)) {
      return false;
    }
  }
  add_literal(pieces, ")");
  return true;
}

// "/2k" for 2048, "/0.5" for list items that aren't plain integers.
std::string label_suffix(const std::string& value) {
  std::string out = "/";
  if (const auto v = spec_text::parse_u64(value)) {
    out += spec_text::fmt_magnitude(*v);
  } else {
    out += value;
  }
  return out;
}

}  // namespace

std::optional<std::vector<ScenarioSpec>> expand_scenario_line(
    std::string_view line, std::string* error) {
  std::vector<LinePiece> pieces;
  std::vector<SweepSlot> slots;
  for (const std::string_view token : split_tokens(line)) {
    if (!pieces.empty()) add_literal(pieces, " ");
    if (!scan_token(pieces, slots, token, error)) return std::nullopt;
  }
  if (slots.empty()) {
    auto spec = ScenarioSpec::parse(line, error);
    if (!spec) return std::nullopt;
    return std::vector<ScenarioSpec>{std::move(*spec)};
  }
  std::size_t total = 1;
  for (const SweepSlot& slot : slots) {
    total *= slot.values.size();  // each factor <= kMaxSweepPoints
    if (total > spec_text::kMaxSweepPoints) {
      set_error(error,
                "sweep cross product exceeds " +
                    std::to_string(spec_text::kMaxSweepPoints) +
                    " scenarios");
      return std::nullopt;
    }
  }
  std::vector<ScenarioSpec> specs;
  specs.reserve(total);
  std::vector<std::size_t> idx(slots.size(), 0);
  for (;;) {
    std::string text;
    for (const LinePiece& piece : pieces) {
      text += piece.slot < 0 ? piece.text : slots[piece.slot].values[idx[piece.slot]];
    }
    auto spec = ScenarioSpec::parse(text, error);
    if (!spec) return std::nullopt;
    if (!spec->label.empty()) {
      // Derive one "/<value>" per swept key so every expanded series
      // point reports under a distinct label. A swept label already
      // distinguishes itself.
      for (std::size_t s = 0; s < slots.size(); ++s) {
        if (slots[s].key == "label") continue;
        spec->label += label_suffix(slots[s].values[idx[s]]);
      }
    }
    specs.push_back(std::move(*spec));
    // Odometer: rightmost slot varies fastest (leftmost slowest).
    std::size_t s = slots.size();
    while (s > 0 && ++idx[s - 1] == slots[s - 1].values.size()) {
      idx[--s] = 0;
    }
    if (s == 0) break;
  }
  return specs;
}

std::string ScenarioSpec::name() const {
  std::string out = graph.name() + " " + protocol.name();
  const TrialPlan defaults;
  if (plan.trials != defaults.trials) {
    out += " trials=" + std::to_string(plan.trials);
  }
  if (plan.seed != defaults.seed) {
    out += " seed=" + std::to_string(plan.seed);
  }
  if (plan.source != defaults.source) {
    out += " source=" + std::to_string(plan.source);
  }
  if (plan.fresh_graph) out += " fresh=on";
  if (!label.empty()) out += " label=" + label;
  return out;
}

std::string ScenarioSpec::display_label() const {
  if (!label.empty()) return label;
  return graph.name() + " " + protocol.name();
}

std::optional<ScenarioSpec> ScenarioSpec::parse(std::string_view line,
                                                std::string* error) {
  const std::vector<std::string_view> tokens = split_tokens(line);
  if (tokens.size() < 2) {
    set_error(error,
              "expected \"<graph-spec> <protocol-spec> [key=value...]\"");
    return std::nullopt;
  }
  ScenarioSpec spec;
  auto graph = GraphSpec::parse(tokens[0], error);
  if (!graph) return std::nullopt;
  spec.graph = *graph;
  auto protocol = ProtocolSpec::parse(tokens[1], error);
  if (!protocol) return std::nullopt;
  spec.protocol = *protocol;
  for (std::size_t i = 2; i < tokens.size(); ++i) {
    const std::string_view token = tokens[i];
    const std::size_t eq = token.find('=');
    if (eq == std::string_view::npos || eq == 0) {
      set_error(error, "expected key=value, got \"" + std::string(token) +
                           "\"");
      return std::nullopt;
    }
    if (!set_plan_option(spec.plan, spec.label, token.substr(0, eq),
                         token.substr(eq + 1), error)) {
      return std::nullopt;
    }
  }
  if (spec.plan.fresh_graph && !spec.graph.is_random()) {
    set_error(error, "fresh=on requires a random graph family, got " +
                         spec.graph.name());
    return std::nullopt;
  }
  return spec;
}

std::optional<std::vector<ScenarioSpec>> parse_scenario_stream(
    std::istream& in, std::string* error) {
  std::vector<ScenarioSpec> specs;
  std::string line;
  std::size_t line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    std::string_view text(line);
    const std::size_t hash = text.find('#');
    if (hash != std::string_view::npos) text = text.substr(0, hash);
    text = spec_text::trim(text);
    if (text.empty()) continue;
    std::string reason;
    auto expanded = expand_scenario_line(text, &reason);
    if (!expanded) {
      set_error(error,
                "line " + std::to_string(line_number) + ": " + reason);
      return std::nullopt;
    }
    for (ScenarioSpec& spec : *expanded) specs.push_back(std::move(spec));
  }
  return specs;
}

std::optional<std::vector<ScenarioSpec>> load_scenario_file(
    const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    set_error(error, "cannot open \"" + path + "\"");
    return std::nullopt;
  }
  return parse_scenario_stream(in, error);
}

Graph GraphDrawStore::draw(const GraphSpec& spec, std::uint64_t seed,
                           bool keep) {
  for (const Entry& entry : entries_) {
    if (entry.seed == seed && entry.spec == spec) return entry.graph;
  }
  // The graph draw uses a seed stream disjoint from the trial seeds (and,
  // for fresh mode, matches trial 0's draw), so a scenario is
  // reproducible from its text alone.
  Rng graph_rng(derive_seed(seed ^ kGraphSeedSalt, 0));
  Graph g = spec.make(graph_rng);
  if (keep) entries_.push_back({spec, seed, g});
  return g;
}

// Validates the scenario and fills the result's size columns WITHOUT
// building deterministic graphs: probe() answers n/m from the closed forms
// (or the file cache header), so validating a 10^8-vertex sweep costs
// arithmetic, not allocation. Sizes are fixed by the spec, so the source
// check covers every fresh draw too (the per-draw RUMOR_REQUIRE in the
// runner stays as backstop).
bool prepare_scenario(const ScenarioSpec& spec, ScenarioResult& result,
                      PreparedScenario& prep, GraphDrawStore& draws,
                      std::string* error) {
  result.spec = spec;
  if (spec.graph.is_random()) {
    // Fresh-graph scenarios redraw per trial; their draw only sizes the
    // row, so it is not kept to pin memory for the whole run.
    const bool fresh = spec.plan.fresh_graph;
    Graph g = draws.draw(spec.graph, spec.plan.seed, /*keep=*/!fresh);
    result.n = g.num_vertices();
    result.edges = g.num_edges();
    if (!fresh) prep.graph = std::move(g);
  } else {
    std::string why;
    const auto probe = spec.graph.probe(&why);
    if (!probe) {
      set_error(error,
                "scenario \"" + spec.name() + "\": " + spec.graph.name() +
                    ": " + why);
      return false;
    }
    result.n = probe->n;
    result.edges = static_cast<std::size_t>(probe->m);
    prep.lazy = true;
  }
  if (spec.plan.source >= result.n) {
    set_error(error, "scenario \"" + spec.name() + "\": source=" +
                         std::to_string(spec.plan.source) +
                         " is out of range for " + spec.graph.name() +
                         " (n=" + std::to_string(result.n) + ")");
    return false;
  }
  if (const WalkOptions* walk = spec.protocol.walk_if();
      walk != nullptr && walk->placement == Placement::at_vertex &&
      walk->placement_anchor != kNoVertex &&
      walk->placement_anchor >= result.n) {
    set_error(error, "scenario \"" + spec.name() + "\": anchor=" +
                         std::to_string(walk->placement_anchor) +
                         " is out of range for " + spec.graph.name() +
                         " (n=" + std::to_string(result.n) + ")");
    return false;
  }
  // The sharded round engine's incompatibilities, rejected here with a
  // typed message; the RUMOR_REQUIREs in the process constructors are
  // abort-on-bug backstops, not user-input validation.
  if (spec.protocol.shards() != 0) {
    if (const TraceOptions* trace = spec.protocol.trace();
        trace != nullptr && trace->edge_traffic) {
      set_error(error, "scenario \"" + spec.name() +
                           "\": shards= is incompatible with "
                           "edge_traffic=on (the exact-bandwidth trace "
                           "needs the serial engine)");
      return false;
    }
    if (const WalkOptions* walk = spec.protocol.walk_if();
        walk != nullptr && walk->engine != StepEngine::batched) {
      set_error(error, "scenario \"" + spec.name() +
                           "\": shards= replaces the stepping engine; "
                           "drop the engine= key");
      return false;
    }
  }
  return true;
}

std::optional<ScenarioResult> run_scenario(const ScenarioSpec& spec,
                                           std::string* error) {
  auto results = run_scenarios({spec}, error);
  if (!results) return std::nullopt;
  return std::move(results->front());
}

std::optional<PreparedScenarios> prepare_scenarios(
    const std::vector<ScenarioSpec>& specs, std::string* error) {
  // Every scenario is validated before any trial runs: a bad line at the
  // bottom of the file fails fast instead of after hours of simulation.
  // Deterministic graphs are validated analytically and built lazily by
  // the scheduler (when their first trial is claimed, released when their
  // trials drain); only random non-fresh scenarios hold a graph, because
  // their one draw is part of the result.
  PreparedScenarios out;
  out.results.resize(specs.size());
  out.prepared.resize(specs.size());
  GraphDrawStore draws;
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (!prepare_scenario(specs[i], out.results[i], out.prepared[i], draws,
                          error)) {
      return std::nullopt;
    }
  }
  return out;
}

bool validate_scenarios(const std::vector<ScenarioSpec>& specs,
                        std::string* error) {
  return prepare_scenarios(specs, error).has_value();
}

std::optional<std::vector<ScenarioResult>> run_scenarios(
    PreparedScenarios prepared, std::string* error,
    const ScenarioRunOptions& options) {
  std::vector<ScenarioResult>& results = prepared.results;
  // One global (scenario, trial) queue across the whole file.
  std::vector<TrialBatch> batches(results.size());
  for (std::size_t i = 0; i < results.size(); ++i) {
    const ScenarioSpec& spec = results[i].spec;
    TrialBatch& batch = batches[i];
    if (spec.plan.fresh_graph) {
      batch.fresh_spec = &spec.graph;
    } else if (prepared.prepared[i].lazy) {
      batch.lazy_spec = &spec.graph;
    } else {
      batch.graph = &*prepared.prepared[i].graph;
    }
    batch.protocol = &spec.protocol;
    batch.source = spec.plan.source;
    batch.trials = spec.plan.trials;
    batch.master_seed = spec.plan.seed;
    // Expected-cost heuristic for --order=longest-first: per-trial work is
    // roughly proportional to the graph size.
    batch.cost_hint = static_cast<std::size_t>(results[i].n) *
                      spec.plan.trials;
    batch.out = &results[i].set;
  }
  TrialRunOptions run_options;
  run_options.order = options.order;
  run_options.stop = options.stop;
  run_options.counters = options.counters;
  if (options.on_result) {
    run_options.on_batch_done = [&](std::size_t i) {
      options.on_result(results[i], i);
    };
  }
  try {
    const TrialRunOutcome outcome = run_trial_batches(batches, run_options);
    if (outcome.stopped) {
      // An interrupt is not a trial failure, but the result set is just as
      // partial: report it the same way so callers mark their artifacts
      // truncated instead of presenting an incomplete sweep as complete.
      set_error(error, "interrupted: stopped before all trials completed");
      return std::nullopt;
    }
  } catch (const TrialBatchError& e) {
    // Name the failing scenario: scenario files are user input, and "which
    // line died" is the difference between a fixable report and a bare
    // abort three hours in.
    set_error(error, "scenario \"" + results[e.batch_index()].spec.name() +
                         "\" failed: " + e.what());
    return std::nullopt;
  }
  return std::move(results);
}

std::optional<std::vector<ScenarioResult>> run_scenarios(
    const std::vector<ScenarioSpec>& specs, std::string* error,
    const ScenarioRunOptions& options) {
  auto prepared = prepare_scenarios(specs, error);
  if (!prepared) return std::nullopt;
  return run_scenarios(std::move(*prepared), error, options);
}

// scenario_table / write_scenario_csv live in experiments/report.cpp next
// to their streaming variants so the row formats cannot drift apart.

}  // namespace rumor

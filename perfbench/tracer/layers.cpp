// perf_layers: the traced half of the perfbench benchmark.
//
// Times calls into each layer's public functions from outside the library
// and records one span per call (name, start, end, parent). Spans stay in
// memory and are written, together with the derived per-layer metrics, as
// one JSON document at exit. Nothing under src/ is instrumented: every
// number here is measured around a public entry point.
//
//   perf_layers --scenario=FILE --seed=S --jobs=N --out=FILE
//               --make=SPEC;SPEC...   graphs timed through GraphSpec::make
//               --core-graph=SPEC     timed from vertex 0
//               --walk-graphs=SPEC;SPEC...
//
// Exit codes: 0 success, 1 a layer call failed, 2 bad arguments.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "experiments/scenario.hpp"
#include "experiments/specs.hpp"
#include "support/philox.hpp"
#include "support/rng.hpp"
#include "support/thread_pool.hpp"
#include "support/trial_arena.hpp"
#include "walk/step_kernel.hpp"

namespace {

using namespace rumor;
using Clock = std::chrono::steady_clock;

const Clock::time_point kEpoch = Clock::now();

double now_s() {
  return std::chrono::duration<double>(Clock::now() - kEpoch).count();
}

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;
};

// In-memory span log. open() returns the span's index; close() stamps its
// end. The currently open span is the parent of the next one opened.
class Trace {
 public:
  int open(std::string name) {
    spans_.push_back({std::move(name), now_s(), 0.0, current_});
    current_ = static_cast<int>(spans_.size()) - 1;
    return current_;
  }
  double close(int id) {
    spans_[id].end = now_s();
    current_ = spans_[id].parent;
    return spans_[id].end - spans_[id].start;
  }
  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  int current_ = -1;
};

Trace g_trace;

class ScopedSpan {
 public:
  explicit ScopedSpan(std::string name) : id_(g_trace.open(std::move(name))) {}
  ~ScopedSpan() {
    if (!closed_) g_trace.close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  double close() {
    closed_ = true;
    return g_trace.close(id_);
  }

 private:
  int id_;
  bool closed_ = false;
};

std::map<std::string, double> g_metrics;

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

std::vector<std::string> split(std::string_view text, char sep) {
  std::vector<std::string> out;
  std::size_t begin = 0;
  while (begin <= text.size()) {
    const std::size_t end = std::min(text.find(sep, begin), text.size());
    if (end > begin) out.emplace_back(text.substr(begin, end - begin));
    begin = end + 1;
  }
  return out;
}

std::string family_of(const std::string& spec) {
  return spec.substr(0, spec.find('('));
}

struct Args {
  std::string scenario;
  std::string out;
  std::uint64_t seed = 1;
  std::size_t jobs = 1;
  std::vector<std::string> make;
  std::string core_graph;
  std::vector<std::string> walk_graphs;
};

std::optional<Args> parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&](std::string_view key) -> std::optional<std::string> {
      if (!arg.starts_with(key)) return std::nullopt;
      return std::string(arg.substr(key.size()));
    };
    if (auto v = value("--scenario=")) {
      a.scenario = *v;
    } else if (auto v = value("--out=")) {
      a.out = *v;
    } else if (auto v = value("--seed=")) {
      a.seed = std::stoull(*v);
    } else if (auto v = value("--jobs=")) {
      a.jobs = std::stoull(*v);
    } else if (auto v = value("--make=")) {
      a.make = split(*v, ';');
    } else if (auto v = value("--core-graph=")) {
      a.core_graph = *v;
    } else if (auto v = value("--walk-graphs=")) {
      a.walk_graphs = split(*v, ';');
    } else {
      return std::nullopt;
    }
  }
  if (a.scenario.empty() || a.out.empty() || a.core_graph.empty() ||
      a.jobs == 0 || a.make.empty() || a.walk_graphs.empty()) {
    return std::nullopt;
  }
  return a;
}

std::optional<Graph> build_graph(const std::string& text, std::uint64_t seed,
                                 std::string* error) {
  const auto spec = GraphSpec::parse(text, error);
  if (!spec || !spec->probe(error)) return std::nullopt;
  Rng rng(seed);
  return spec->make(rng);
}

// ---- experiments: parse, probe, validate, run, report --------------------

// trace.trials_per_s counts from process start (kEpoch) to the end of the
// report, so it covers the same phases as the untraced rumor_run process it
// is compared with: parse, validate, run and report.
bool trace_scenarios(const Args& args) {
  std::string error;
  ScopedSpan parse_span("scenario.parse");
  auto specs = load_scenario_file(args.scenario, &error);
  g_metrics["scenario.parse_ms"] = parse_span.close() * 1e3;
  if (!specs) {
    std::fprintf(stderr, "%s: %s\n", args.scenario.c_str(), error.c_str());
    return false;
  }
  for (ScenarioSpec& spec : *specs) spec.plan.seed = args.seed;

  ScopedSpan probe_span("graph.probe");
  std::uint64_t max_bytes = 0;
  for (const ScenarioSpec& spec : *specs) {
    const auto probe = spec.graph.probe(&error);
    if (!probe) {
      std::fprintf(stderr, "probe: %s\n", error.c_str());
      return false;
    }
    max_bytes = std::max(max_bytes, probe->graph_bytes);
  }
  g_metrics["graph.probe_ms"] = probe_span.close() * 1e3;
  g_metrics["graph.csr_mib"] = static_cast<double>(max_bytes) / (1 << 20);

  ScopedSpan validate_span("scenario.validate");
  if (!validate_scenarios(*specs, &error)) {
    std::fprintf(stderr, "validate: %s\n", error.c_str());
    return false;
  }
  g_metrics["scenario.validate_s"] = validate_span.close();

  // A sampler thread snapshots the shared queue counters while the trials
  // drain: in-flight depth as a share of the workers, the first claim (end
  // of the run's own graph preparation) and the last claim (start of the
  // tail, where workers run out of queued trials).
  TrialCounters counters;
  std::atomic<bool> done{false};
  double first_claim = -1.0;
  double last_claim = -1.0;
  double in_flight_sum = 0.0;
  std::size_t samples = 0;
  std::thread sampler([&] {
    while (!done.load(std::memory_order_acquire)) {
      const TrialQueueSnapshot q = counters.snapshot();
      const double t = now_s();
      if (q.trials_claimed > 0) {
        if (first_claim < 0.0) first_claim = t;
        if (last_claim < 0.0 && q.trials_claimed == q.trials_total) {
          last_claim = t;
        }
        if (q.trials_done < q.trials_total) {
          in_flight_sum += static_cast<double>(q.in_flight());
          ++samples;
        }
      }
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  ScenarioRunOptions options;
  options.counters = &counters;
  const int run_id = g_trace.open("trials.run");
  const double run_start = now_s();
  auto results = run_scenarios(*specs, &error, options);
  const double run_end = now_s();
  done.store(true, std::memory_order_release);
  sampler.join();
  g_trace.close(run_id);
  if (!results) {
    std::fprintf(stderr, "run: %s\n", error.c_str());
    return false;
  }
  if (first_claim < 0.0) first_claim = run_start;
  if (last_claim < 0.0) last_claim = run_end;
  g_metrics["trials.run_s"] = run_end - run_start;
  g_metrics["trials.prepare_s"] = first_claim - run_start;
  g_metrics["trials.tail_s"] = run_end - last_claim;
  g_metrics["trials.in_flight_mean"] =
      samples ? in_flight_sum / samples / static_cast<double>(args.jobs) : 0.0;

  ScopedSpan csv_span("report.csv");
  std::ostringstream csv;
  write_scenario_csv(csv, *results);
  g_metrics["report.csv_ms"] = csv_span.close() * 1e3;

  std::size_t trials = 0;
  for (const ScenarioResult& r : *results) trials += r.set.rounds.size();
  g_metrics["trace.trials_per_s"] = trials / now_s();
  return true;
}

// ---- graph: GraphSpec::make per family ------------------------------------

bool trace_make(const Args& args) {
  double edges = 0.0;
  double seconds = 0.0;
  for (const std::string& text : args.make) {
    std::string error;
    const auto spec = GraphSpec::parse(text, &error);
    if (!spec || !spec->probe(&error)) {
      std::fprintf(stderr, "make %s: %s\n", text.c_str(), error.c_str());
      return false;
    }
    Rng rng(args.seed);
    ScopedSpan span("graph.make." + family_of(text));
    const Graph g = spec->make(rng);
    const double s = span.close();
    g_metrics["graph.make_s." + family_of(text)] = s;
    edges += static_cast<double>(g.num_edges());
    seconds += s;
  }
  g_metrics["graph.medges_per_s"] = edges / 1e6 / seconds;
  return true;
}

// ---- core: run_protocol serially with an arena ----------------------------

struct CoreSample {
  double trial_ms = 0.0;
  double rounds = 0.0;
  double ns_per_vertex_round = 0.0;
};

// Times trials of one protocol from vertex 0. The discarded warm trial uses
// the seed of trial 1, so trial 1 must repeat its rounds exactly: a
// mismatch means the engine is not deterministic per seed, and fails.
std::optional<CoreSample> time_protocol(const Graph& g, const std::string& text,
                                        std::uint64_t seed,
                                        const std::string& span_name) {
  std::string error;
  const auto spec = ProtocolSpec::parse(text, &error);
  if (!spec) {
    std::fprintf(stderr, "protocol %s: %s\n", text.c_str(), error.c_str());
    return std::nullopt;
  }
  TrialArena arena;
  ScopedSpan outer(span_name);
  const double warm_rounds =
      run_protocol(g, *spec, 0, derive_seed(seed, 1), &arena).rounds;
  std::vector<double> ms;
  std::vector<double> per_vertex_round;
  CoreSample sample;
  const double budget_end = now_s() + 0.4;
  for (std::uint64_t i = 1; i <= 3 || (i <= 25 && now_s() < budget_end); ++i) {
    ScopedSpan trial_span(span_name + ".trial");
    const TrialResult r = run_protocol(g, *spec, 0, derive_seed(seed, i),
                                       &arena);
    const double s = trial_span.close();
    if (!r.completed) {
      std::fprintf(stderr, "protocol %s: trial hit the round cutoff\n",
                   text.c_str());
      return std::nullopt;
    }
    if (i == 1 && r.rounds != warm_rounds) {
      std::fprintf(stderr, "protocol %s: trial 1 ran %g rounds, then %g\n",
                   text.c_str(), warm_rounds, r.rounds);
      return std::nullopt;
    }
    if (i == 1) sample.rounds = r.rounds;
    ms.push_back(s * 1e3);
    per_vertex_round.push_back(s * 1e9 / (static_cast<double>(
                                              g.num_vertices()) *
                                          std::max(1.0, r.rounds)));
  }
  sample.trial_ms = median(ms);
  sample.ns_per_vertex_round = median(per_vertex_round);
  return sample;
}

bool trace_core(const Args& args) {
  std::string error;
  const auto g = build_graph(args.core_graph, args.seed, &error);
  if (!g) {
    std::fprintf(stderr, "core graph %s: %s\n", args.core_graph.c_str(),
                 error.c_str());
    return false;
  }
  for (const char* sim :
       {"push", "push-pull", "visit-exchange", "meet-exchange", "hybrid"}) {
    const auto s =
        time_protocol(*g, sim, args.seed, std::string("core.") + sim);
    if (!s) return false;
    const std::string key = std::string("core.") + sim;
    g_metrics[key + ".trial_ms"] = s->trial_ms;
    g_metrics[key + ".rounds"] = s->rounds;
    g_metrics[key + ".ns_per_vertex_round"] = s->ns_per_vertex_round;
  }
  const std::string width = "(shards=" + std::to_string(args.jobs) + ")";
  for (const char* sim : {"push-pull", "visit-exchange", "meet-exchange"}) {
    const auto s = time_protocol(*g, std::string(sim) + width, args.seed,
                                 std::string("core.") + sim + ".sharded");
    if (!s) return false;
    g_metrics[std::string("core.") + sim + ".sharded_ns_per_vertex_round"] =
        s->ns_per_vertex_round;
  }
  return true;
}

// ---- walk: step_walks and step_walks_sharded ------------------------------

bool trace_walk(const Args& args) {
  double steps = 0.0;
  double batched_s = 0.0;
  double sharded1_s = 0.0;
  double sharded_k_s = 0.0;
  const std::uint32_t k = static_cast<std::uint32_t>(args.jobs);
  for (const std::string& text : args.walk_graphs) {
    std::string error;
    const auto g = build_graph(text, args.seed, &error);
    if (!g) {
      std::fprintf(stderr, "walk graph %s: %s\n", text.c_str(), error.c_str());
      return false;
    }
    const Vertex n = g->num_vertices();
    const Laziness lazy =
        g->properties().bipartite ? Laziness::half : Laziness::none;
    // One walker per vertex, stepped for enough rounds that each engine
    // runs at least ~8M steps on this graph.
    const std::uint64_t rounds =
        std::max<std::uint64_t>(4, (8u << 20) / std::max<Vertex>(n, 1));
    std::vector<Vertex> start(n);
    std::iota(start.begin(), start.end(), Vertex{0});
    std::vector<Vertex> pos = start;
    Rng rng(args.seed);
    step_walks(*g, pos, rng, lazy);  // warm
    const auto run = [&](const std::string& name, auto&& step) {
      pos = start;
      ScopedSpan span(name);
      for (std::uint64_t r = 0; r < rounds; ++r) step(r);
      return span.close();
    };
    batched_s +=
        run("walk.batched", [&](std::uint64_t) { step_walks(*g, pos, rng, lazy); });
    sharded1_s += run("walk.sharded1", [&](std::uint64_t r) {
      step_walks_sharded(*g, pos, args.seed, r, lazy, 1);
    });
    sharded_k_s += run("walk.shardedK", [&](std::uint64_t r) {
      step_walks_sharded(*g, pos, args.seed, r, lazy, k);
    });
    steps += static_cast<double>(n) * static_cast<double>(rounds);
  }
  g_metrics["walk.batched_msteps_per_s"] = steps / 1e6 / batched_s;
  g_metrics["walk.sharded1_msteps_per_s"] = steps / 1e6 / sharded1_s;
  g_metrics["walk.shardedK_msteps_per_s"] = steps / 1e6 / sharded_k_s;
  return true;
}

// ---- support: pool fan-out, Philox streams --------------------------------

void trace_support(const Args& args) {
  ThreadPool& pool = global_pool();
  const std::size_t k = args.jobs;
  std::atomic<std::size_t> touched{0};
  const auto fanout = [&] {
    pool.parallel_for_ranges(k, k, [&](std::size_t, std::size_t, std::size_t) {
      touched.fetch_add(1, std::memory_order_relaxed);
    });
  };
  for (int i = 0; i < 200; ++i) fanout();  // warm the workers
  std::vector<double> batch_us;
  {
    ScopedSpan span("pool.fanout");
    for (int b = 0; b < 20; ++b) {
      const double t = now_s();
      for (int i = 0; i < 500; ++i) fanout();
      batch_us.push_back((now_s() - t) * 1e6 / 500);
    }
  }
  g_metrics["pool.fanout_us"] = median(batch_us);

  std::uint32_t sink = 0;
  constexpr std::uint64_t kWords = 1u << 26;
  {
    PhiloxStream stream(args.seed, 0);
    ScopedSpan span("philox.stream");
    for (std::uint64_t i = 0; i < kWords; ++i) sink ^= stream.next_u32();
    g_metrics["philox.stream_mwords_per_s"] = kWords / 1e6 / span.close();
  }
  {
    const ShardPlane plane(args.seed, 1);
    constexpr std::uint32_t kSlots = 1u << 24;
    ScopedSpan span("philox.slot");
    for (std::uint32_t slot = 0; slot < kSlots; ++slot) {
      SlotDraws draws(plane, kShardPhaseWalk, slot);
      sink ^= draws.next_u32() ^ draws.next_u32() ^ draws.next_u32() ^
              draws.next_u32();
    }
    g_metrics["philox.slot_mwords_per_s"] = 4.0 * kSlots / 1e6 / span.close();
  }
  // Keeps the draw loops observable, so they cannot be optimised away.
  g_metrics["philox.sink_parity"] = static_cast<double>(sink & 1u);
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (const char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out;
}

bool write_output(const std::string& path) {
  std::ofstream out(path);
  if (!out) return false;
  char buf[64];
  out << "{\"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : g_metrics) {
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    out << (first ? "" : ", ") << "\"" << json_escape(name) << "\": " << buf;
    first = false;
  }
  out << "},\n \"spans\": [";
  first = true;
  for (const Span& s : g_trace.spans()) {
    out << (first ? "\n  " : ",\n  ") << "{\"name\": \"" << json_escape(s.name)
        << "\", ";
    std::snprintf(buf, sizeof(buf), "%.9f", s.start);
    out << "\"start\": " << buf << ", ";
    std::snprintf(buf, sizeof(buf), "%.9f", s.end);
    out << "\"end\": " << buf << ", \"parent\": " << s.parent << "}";
    first = false;
  }
  out << "\n]}\n";
  return static_cast<bool>(out.flush());
}

}  // namespace

int main(int argc, char** argv) {
  const auto args = parse_args(argc, argv);
  if (!args) {
    std::fprintf(stderr,
                 "usage: %s --scenario=FILE --seed=S --jobs=N --out=FILE "
                 "--make=SPEC;... --core-graph=SPEC "
                 "--walk-graphs=SPEC;...\n",
                 argv[0]);
    return 2;
  }
  set_global_pool_workers(args->jobs);
  const int root = g_trace.open("perf_layers");
  const bool ok = trace_scenarios(*args) && trace_make(*args) &&
                  trace_core(*args) && trace_walk(*args);
  if (ok) trace_support(*args);
  g_trace.close(root);
  if (!write_output(args->out)) {
    std::fprintf(stderr, "cannot write %s\n", args->out.c_str());
    return 1;
  }
  return ok ? 0 : 1;
}

// The protocol half of the unified scenario API.
//
// Every simulator in src/core/ is named by a `Protocol` tag and configured
// by its own option struct; `ProtocolSpec` folds the two into a tagged
// variant with a canonical text round-trip:
//
//   ProtocolSpec::parse("frog(frogs=2,lazy=half)")  ->  spec
//   spec.name()                                     ->  same string back
//
// parse/name and the per-protocol defaults are data held by the
// SimulatorRegistry (core/registry.hpp): protocols — including ones
// registered by downstream code — are reachable by name without a central
// switch. `default_spec(p).name()` is always the bare protocol name, so a
// scenario file mentions only what it overrides.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/async.hpp"
#include "core/dynamic_agents.hpp"
#include "core/frog.hpp"
#include "core/multi_rumor.hpp"
#include "core/push.hpp"
#include "core/push_pull.hpp"
#include "core/walk_options.hpp"

namespace rumor {

enum class Protocol {
  push,
  push_pull,
  visit_exchange,
  meet_exchange,
  hybrid,
  frog,
  dynamic_agent,
  multi_push_pull,
  multi_visit_exchange,
  async_push_pull,
};

// One alternative per option shape. visit-exchange, meet-exchange, and
// hybrid share WalkOptions (the Protocol tag distinguishes them).
using ProtocolOptions =
    std::variant<PushOptions, PushPullOptions, WalkOptions, FrogOptions,
                 DynamicAgentOptions, MultiRumorOptions, AsyncOptions>;

// Canonical spec name, e.g. "push-pull" (registry lookup).
[[nodiscard]] std::string protocol_name(Protocol p);

struct ProtocolSpec {
  Protocol protocol = Protocol::push;
  ProtocolOptions options = PushOptions{};

  // Canonical text form: the protocol name, plus a parenthesized
  // key=value list of exactly the options that differ from the protocol's
  // defaults. parse(name()) reproduces the spec bit-for-bit.
  [[nodiscard]] std::string name() const;
  static std::optional<ProtocolSpec> parse(std::string_view text,
                                           std::string* error = nullptr);

  // Typed option accessors; RUMOR_REQUIRE the matching alternative.
  [[nodiscard]] PushOptions& push();
  [[nodiscard]] const PushOptions& push() const;
  [[nodiscard]] PushPullOptions& push_pull();
  [[nodiscard]] const PushPullOptions& push_pull() const;
  // The WalkOptions of any agent-based alternative: WalkOptions itself,
  // DynamicAgentOptions::walk, or MultiRumorOptions::walk. walk() requires
  // one; walk_if() returns nullptr for the walk-free protocols.
  [[nodiscard]] WalkOptions& walk();
  [[nodiscard]] const WalkOptions& walk() const;
  [[nodiscard]] WalkOptions* walk_if();
  [[nodiscard]] const WalkOptions* walk_if() const;
  [[nodiscard]] FrogOptions& frog();
  [[nodiscard]] const FrogOptions& frog() const;
  [[nodiscard]] DynamicAgentOptions& dynamic_agent();
  [[nodiscard]] const DynamicAgentOptions& dynamic_agent() const;
  [[nodiscard]] MultiRumorOptions& multi();
  [[nodiscard]] const MultiRumorOptions& multi() const;
  [[nodiscard]] AsyncOptions& async();
  [[nodiscard]] const AsyncOptions& async() const;

  // The spec's TraceOptions, or nullptr for protocols without traces
  // (multi-rumor, async).
  [[nodiscard]] TraceOptions* trace();
  [[nodiscard]] const TraceOptions* trace() const;

  // The spec's shards= option for the simulators that honor the
  // frontier-sharded round engine (push, push-pull, visit-exchange,
  // meet-exchange, hybrid); 0 — i.e. "serial legacy" — for every other
  // protocol.
  [[nodiscard]] std::uint32_t shards() const;

  friend bool operator==(const ProtocolSpec&, const ProtocolSpec&) = default;
};

// The protocol's registered defaults (meet-exchange: the paper's
// LazyMode::auto_bipartite convention).
[[nodiscard]] ProtocolSpec default_spec(Protocol p);

// What one trial of any registered simulator reports: the broadcast time
// in rounds (time units for async), the all-agents milestone where the
// protocol has one, and the informed curve when the spec traces it. This
// is the distribution payload TrialSet aggregates.
struct TrialResult {
  double rounds = 0.0;
  // The all-agents milestone; mirrors RunResult::agent_rounds (equal to
  // rounds when the protocol has no separate milestone, 0 for multi-rumor
  // and async).
  double agent_rounds = 0.0;
  // Final informed-entity count (completed rumors for multi-rumor): the
  // containment measure under interventions.
  double informed = 0.0;
  bool completed = false;
  std::vector<std::uint32_t> informed_curve;  // filled iff traced
  // Filled iff traced AND the spec's transmission model stifles.
  std::vector<std::uint32_t> stifled_curve;
};

// Maps a stepwise simulator's RunResult onto the trial payload.
[[nodiscard]] TrialResult to_trial_result(RunResult&& r);

}  // namespace rumor

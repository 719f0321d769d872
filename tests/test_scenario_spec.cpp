// Scenario API text round-trips: GraphSpec / ProtocolSpec / ScenarioSpec
// parse(name()) == original, for defaults and for non-default options, on
// every registered simulator and every graph family — plus parse error
// reporting.
#include <gtest/gtest.h>

#include "core/registry.hpp"
#include "experiments/scenario.hpp"
#include "support/spec_text.hpp"

namespace rumor {
namespace {

// ---- spec_text substrate ---------------------------------------------

TEST(SpecText, ParseCallForms) {
  auto bare = spec_text::parse_call("push");
  ASSERT_TRUE(bare);
  EXPECT_EQ(bare->head, "push");
  EXPECT_TRUE(bare->args.empty());

  auto call = spec_text::parse_call(" frog( frogs = 2 , lazy=half ) ");
  ASSERT_TRUE(call);
  EXPECT_EQ(call->head, "frog");
  ASSERT_EQ(call->args.size(), 2u);
  EXPECT_EQ(call->args[0].key, "frogs");
  EXPECT_EQ(call->args[0].value, "2");
  EXPECT_EQ(call->args[1].key, "lazy");
  EXPECT_EQ(call->args[1].value, "half");
}

TEST(SpecText, ParseCallErrors) {
  std::string error;
  EXPECT_FALSE(spec_text::parse_call("frog(frogs=2", &error));
  EXPECT_NE(error.find(")"), std::string::npos);
  EXPECT_FALSE(spec_text::parse_call("frog(frogs)", &error));
  EXPECT_FALSE(spec_text::parse_call("", &error));
  EXPECT_FALSE(spec_text::parse_call("fr og(a=1)", &error));
}

TEST(SpecText, DoubleFormattingRoundTripsAndStaysShort) {
  EXPECT_EQ(spec_text::fmt_double(0.1), "0.1");
  EXPECT_EQ(spec_text::fmt_double(2.0), "2");
  EXPECT_EQ(spec_text::fmt_double(0.0625), "0.0625");
  for (double v : {0.1, 1.0 / 3.0, 0.25, 3.14159265358979, 1e-9, 12345.678}) {
    const auto parsed = spec_text::parse_double(spec_text::fmt_double(v));
    ASSERT_TRUE(parsed);
    EXPECT_EQ(*parsed, v);
  }
}

// ---- GraphSpec --------------------------------------------------------

TEST(GraphSpecText, EveryFamilyRoundTrips) {
  const std::vector<GraphSpec> specs = {
      {.family = Family::star, .a = 8},
      {.family = Family::double_star, .a = 8},
      {.family = Family::heavy_tree, .a = 15},
      {.family = Family::siamese, .a = 15},
      {.family = Family::cycle_stars_cliques, .a = 3},
      {.family = Family::complete, .a = 8},
      {.family = Family::cycle, .a = 8},
      {.family = Family::path, .a = 8},
      {.family = Family::grid, .a = 3, .b = 4},
      {.family = Family::torus, .a = 3, .b = 4},
      {.family = Family::hypercube, .a = 4},
      {.family = Family::circulant, .a = 12, .b = 2},
      {.family = Family::clique_ring, .a = 4, .b = 3},
      {.family = Family::clique_path, .a = 4, .b = 3},
      {.family = Family::random_regular, .a = 16, .b = 4},
      {.family = Family::erdos_renyi, .a = 32, .p = 0.3},
      {.family = Family::barbell, .a = 4},
      {.family = Family::star_of_cliques, .a = 3, .b = 3},
      {.family = Family::binary_tree, .a = 15},
  };
  for (const GraphSpec& spec : specs) {
    std::string error;
    const auto parsed = GraphSpec::parse(spec.name(), &error);
    ASSERT_TRUE(parsed) << spec.name() << ": " << error;
    EXPECT_EQ(*parsed, spec) << spec.name();
  }
}

TEST(GraphSpecText, KeyedParameterNames) {
  EXPECT_EQ((GraphSpec{.family = Family::grid, .a = 3, .b = 4}).name(),
            "grid(rows=3,cols=4)");
  EXPECT_EQ((GraphSpec{.family = Family::erdos_renyi, .a = 32, .p = 0.25})
                .name(),
            "erdos_renyi(n=32,p=0.25)");
  const auto parsed = GraphSpec::parse("circulant(n=4096, k=8)");
  ASSERT_TRUE(parsed);
  EXPECT_EQ(parsed->family, Family::circulant);
  EXPECT_EQ(parsed->a, 4096u);
  EXPECT_EQ(parsed->b, 8u);
}

TEST(GraphSpecText, RejectsUnknownFamilyAndParameters) {
  std::string error;
  EXPECT_FALSE(GraphSpec::parse("moebius(n=8)", &error));
  EXPECT_NE(error.find("moebius"), std::string::npos);
  EXPECT_FALSE(GraphSpec::parse("star(petals=8)", &error));
  EXPECT_NE(error.find("petals"), std::string::npos);
  EXPECT_FALSE(GraphSpec::parse("star", &error));  // missing leaves=
  EXPECT_FALSE(GraphSpec::parse("erdos_renyi(n=32,p=1.5)", &error));
}

// ---- ProtocolSpec -----------------------------------------------------

// Satellite regression: after the variant refactor, default_spec(p) must
// round-trip through parse(name()) for EVERY registered protocol — the
// bare name is the whole canonical form, and parsing it reproduces the
// registered defaults (including meet-exchange's auto-lazy convention).
TEST(ProtocolSpecText, DefaultSpecRoundTripsForEveryRegisteredProtocol) {
  for (const SimulatorEntry& entry : SimulatorRegistry::instance().all()) {
    const ProtocolSpec spec = default_spec(entry.id);
    EXPECT_EQ(spec.name(), entry.name);
    std::string error;
    const auto parsed = ProtocolSpec::parse(spec.name(), &error);
    ASSERT_TRUE(parsed) << entry.name << ": " << error;
    EXPECT_EQ(*parsed, spec) << entry.name;
  }
}

TEST(ProtocolSpecText, NonDefaultOptionsRoundTrip) {
  const std::vector<std::string> lines = {
      "push(loss=0.25)",
      "push(max_rounds=500,curve=on)",
      "push-pull(loss=0.1,inform_rounds=on)",
      "visit-exchange(alpha=0.25,lazy=always)",
      "visit-exchange(agents=128,placement=one_per_vertex)",
      "visit-exchange(placement=at_vertex,anchor=7,engine=scalar)",
      "visit-exchange(engine=counter)",
      "meet-exchange(engine=counter,alpha=0.5)",
      "meet-exchange(lazy=never,max_rounds=4000)",
      "hybrid(alpha=2,curve=on)",
      "frog(frogs=3,lazy=half,max_rounds=900)",
      "dynamic-agent(churn=0.05,loss_round=8,loss_fraction=0.5,alpha=0.5)",
      "multi-push-pull(rumors=16,interval=4)",
      "multi-visit-exchange(rumors=32,interval=2,alpha=0.5,lazy=auto)",
      "async(max_ticks=100000,pull=off)",
  };
  for (const std::string& line : lines) {
    std::string error;
    const auto spec = ProtocolSpec::parse(line, &error);
    ASSERT_TRUE(spec) << line << ": " << error;
    const std::string canonical = spec->name();
    const auto reparsed = ProtocolSpec::parse(canonical, &error);
    ASSERT_TRUE(reparsed) << canonical << ": " << error;
    EXPECT_EQ(*reparsed, *spec) << line << " -> " << canonical;
  }
}

TEST(ProtocolSpecText, ParsedOptionsReachTheOptionStructs) {
  const auto frog = ProtocolSpec::parse("frog(frogs=2,lazy=half)");
  ASSERT_TRUE(frog);
  EXPECT_EQ(frog->protocol, Protocol::frog);
  EXPECT_EQ(frog->frog().frogs_per_vertex, 2u);
  EXPECT_EQ(frog->frog().laziness, Laziness::half);

  const auto dynamic =
      ProtocolSpec::parse("dynamic-agent(churn=0.1,alpha=0.5)");
  ASSERT_TRUE(dynamic);
  EXPECT_EQ(dynamic->dynamic_agent().churn, 0.1);
  EXPECT_EQ(dynamic->dynamic_agent().walk.alpha, 0.5);
  EXPECT_EQ(dynamic->walk().alpha, 0.5);  // walk() reaches embedded options

  const auto multi = ProtocolSpec::parse("multi-visit-exchange(rumors=8)");
  ASSERT_TRUE(multi);
  EXPECT_EQ(multi->multi().rumor_count, 8u);

  const auto async_spec = ProtocolSpec::parse("async(pull=off)");
  ASSERT_TRUE(async_spec);
  EXPECT_FALSE(async_spec->async().pull_enabled);
}

TEST(ProtocolSpecText, RejectsUnknownProtocolsKeysAndBadValues) {
  std::string error;
  EXPECT_FALSE(ProtocolSpec::parse("teleport", &error));
  EXPECT_NE(error.find("teleport"), std::string::npos);
  EXPECT_FALSE(ProtocolSpec::parse("push(alpha=2)", &error));  // walk key
  EXPECT_FALSE(ProtocolSpec::parse("push(loss=1.5)", &error));
  EXPECT_FALSE(ProtocolSpec::parse("visit-exchange(lazy=maybe)", &error));
  EXPECT_FALSE(ProtocolSpec::parse("frog(frogs=0)", &error));
  EXPECT_FALSE(ProtocolSpec::parse("multi-push-pull(rumors=65)", &error));
  EXPECT_FALSE(ProtocolSpec::parse("async(pull=sometimes)", &error));
}

TEST(ProtocolSpecText, RangeChecksRejectNaN) {
  // Negated comparisons let NaN through (every comparison is false); the
  // parsers must use the positive form so user text cannot smuggle NaN
  // into a simulator precondition abort.
  std::string error;
  EXPECT_FALSE(ProtocolSpec::parse("push(loss=nan)", &error));
  EXPECT_FALSE(ProtocolSpec::parse("push-pull(loss=nan)", &error));
  EXPECT_FALSE(ProtocolSpec::parse("visit-exchange(alpha=nan)", &error));
  EXPECT_FALSE(ProtocolSpec::parse("dynamic-agent(churn=nan)", &error));
  EXPECT_FALSE(ProtocolSpec::parse("dynamic-agent(loss_fraction=nan)",
                                   &error));
  EXPECT_FALSE(GraphSpec::parse("erdos_renyi(n=32,p=nan)", &error));
  EXPECT_FALSE(GraphSpec::parse("erdos_renyi(n=32,p=0)", &error));
}

TEST(ProtocolSpecText, IntegerOverflowAndAnchorSentinelRejected) {
  std::string error;
  // strtoull clamps overflow to UINT64_MAX; the parser must reject, not
  // silently replace the literal with a different value.
  EXPECT_FALSE(ProtocolSpec::parse(
      "push(max_rounds=999999999999999999999999)", &error));
  EXPECT_FALSE(ScenarioSpec::parse(
      "complete(n=8) push trials=999999999999999999999999", &error));
  // Anchor values at or above the kNoVertex sentinel would truncate.
  EXPECT_FALSE(ProtocolSpec::parse(
      "visit-exchange(placement=at_vertex,anchor=4294967295)", &error));
}

TEST(ProtocolSpecText, MultiRumorRejectsOptionsItCannotHonor) {
  std::string error;
  // Neither multi simulator records traces; the visit variant honors the
  // agent substrate, the push-pull variant only the cutoff.
  EXPECT_FALSE(ProtocolSpec::parse("multi-visit-exchange(curve=on)", &error));
  EXPECT_FALSE(ProtocolSpec::parse("multi-push-pull(alpha=2)", &error));
  EXPECT_FALSE(ProtocolSpec::parse("multi-push-pull(curve=on)", &error));
  EXPECT_TRUE(ProtocolSpec::parse("multi-visit-exchange(alpha=2)", &error));
  EXPECT_TRUE(ProtocolSpec::parse("multi-push-pull(max_rounds=500)", &error));
}

TEST(ProtocolSpecText, FormattersNeverEmitKeysTheirParserRejects) {
  // A programmatically built spec must round-trip through name() even when
  // fields its set hook cannot express were mutated directly: the
  // formatter mirrors the set hook, so such fields are simply omitted.
  ProtocolSpec multi_visit = default_spec(Protocol::multi_visit_exchange);
  multi_visit.multi().walk.trace.informed_curve = true;  // not honored
  multi_visit.multi().walk.alpha = 0.5;                  // honored
  std::string error;
  const auto reparsed = ProtocolSpec::parse(multi_visit.name(), &error);
  ASSERT_TRUE(reparsed) << multi_visit.name() << ": " << error;
  EXPECT_EQ(reparsed->multi().walk.alpha, 0.5);

  ProtocolSpec multi_pp = default_spec(Protocol::multi_push_pull);
  multi_pp.multi().walk.alpha = 0.5;  // push-pull variant has no agents
  multi_pp.multi().walk.max_rounds = 700;
  const auto reparsed_pp = ProtocolSpec::parse(multi_pp.name(), &error);
  ASSERT_TRUE(reparsed_pp) << multi_pp.name() << ": " << error;
  EXPECT_EQ(reparsed_pp->multi().walk.max_rounds, 700u);
}

TEST(ProtocolSpecText, AlphaRejectsInfinity) {
  std::string error;
  EXPECT_FALSE(ProtocolSpec::parse("visit-exchange(alpha=inf)", &error));
  EXPECT_FALSE(ProtocolSpec::parse("visit-exchange(alpha=1e300)", &error));
}

// ---- ScenarioSpec -----------------------------------------------------

TEST(ScenarioSpecText, RoundTripsWithPlanAndLabel) {
  const std::vector<std::string> lines = {
      "star(leaves=8192) push source=1",
      "complete(n=64) visit-exchange",
      "random_regular(n=256,d=8) push-pull trials=50 seed=7 fresh=on",
      "heavy_tree(n=255) frog(frogs=2) source=254 label=frogs",
      "circulant(n=4096,k=8) meet-exchange(lazy=always) trials=5 "
      "label=lazy-meetx",
  };
  for (const std::string& line : lines) {
    std::string error;
    const auto spec = ScenarioSpec::parse(line, &error);
    ASSERT_TRUE(spec) << line << ": " << error;
    const auto reparsed = ScenarioSpec::parse(spec->name(), &error);
    ASSERT_TRUE(reparsed) << spec->name() << ": " << error;
    EXPECT_EQ(*reparsed, *spec) << line << " -> " << spec->name();
  }
}

TEST(ScenarioSpecText, DefaultPlanKeysAreOmitted) {
  const auto spec = ScenarioSpec::parse("complete(n=64) push");
  ASSERT_TRUE(spec);
  EXPECT_EQ(spec->name(), "complete(n=64) push");
  EXPECT_EQ(spec->plan.trials, 20u);
  EXPECT_EQ(spec->plan.seed, kDefaultMasterSeed);
  EXPECT_EQ(spec->plan.source, 0u);
  EXPECT_FALSE(spec->plan.fresh_graph);
}

TEST(ScenarioSpecText, RejectsMalformedLines) {
  std::string error;
  EXPECT_FALSE(ScenarioSpec::parse("complete(n=64)", &error));  // no protocol
  EXPECT_FALSE(ScenarioSpec::parse("complete(n=64) push bogus", &error));
  EXPECT_FALSE(ScenarioSpec::parse("complete(n=64) push cycles=9", &error));
  // '#' in a label would be stripped as a comment on file re-read.
  EXPECT_FALSE(ScenarioSpec::parse("complete(n=64) push label=a#b", &error));
  // fresh graphs only make sense for random families.
  EXPECT_FALSE(ScenarioSpec::parse("complete(n=64) push fresh=on", &error));
  EXPECT_NE(error.find("fresh"), std::string::npos);
}

// ---- Scalar magnitude suffixes ------------------------------------------
//
// A scalar integer takes the k/m suffixes a sweep endpoint takes, so
// `leaves=2k` is the one-point `leaves=2k..2k`; name() still prints the
// plain integer, so both spellings are one spec.

TEST(ScalarMagnitudes, ScalarSuffixesMatchTheOnePointSweep) {
  std::string error;
  const auto scalar = ScenarioSpec::parse("star(leaves=2k) push", &error);
  ASSERT_TRUE(scalar) << error;
  EXPECT_EQ(scalar->graph.name(), "star(leaves=2048)");
  const auto swept = expand_scenario_line("star(leaves=2k..2k) push", &error);
  ASSERT_TRUE(swept) << error;
  ASSERT_EQ(swept->size(), 1u);
  EXPECT_EQ(swept->front().graph, scalar->graph);

  const auto big = GraphSpec::parse("random_regular(n=64k,d=16)", &error);
  const auto plain = GraphSpec::parse("random_regular(n=65536,d=16)", &error);
  ASSERT_TRUE(big && plain) << error;
  EXPECT_EQ(*big, *plain);
  EXPECT_EQ(big->name(), "random_regular(n=65536,d=16)");
  EXPECT_EQ(GraphSpec::parse("cycle(n=1m)")->a, 1048576u);
}

TEST(ScalarMagnitudes, PlanAndProtocolIntegersTakeSuffixes) {
  std::string error;
  const auto spec = ScenarioSpec::parse(
      "complete(n=4k) push(max_rounds=1k) trials=1k seed=3m source=2k",
      &error);
  ASSERT_TRUE(spec) << error;
  EXPECT_EQ(spec->plan.trials, 1024u);
  EXPECT_EQ(spec->plan.seed, 3u * 1024 * 1024);
  EXPECT_EQ(spec->plan.source, 2048u);
  EXPECT_EQ(spec->name(),
            "complete(n=4096) push(max_rounds=1024) trials=1024 "
            "seed=3145728 source=2048");
  const auto walk =
      ProtocolSpec::parse("visit-exchange(agents=1k,max_rounds=2k)", &error);
  ASSERT_TRUE(walk) << error;
  EXPECT_EQ(walk->name(), "visit-exchange(agents=1024,max_rounds=2048)");
}

TEST(ScalarMagnitudes, MalformedAndOverflowingSuffixesAreTypedErrors) {
  // Each line is rejected with a message naming the offending key=value.
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"star(leaves=2kk) push", "leaves=2kk"},
      {"star(leaves=2q) push", "leaves=2q"},
      {"star(leaves=k) push", "leaves=k"},
      {"star(leaves=-2k) push", "leaves=-2k"},
      {"star(leaves=99999999999999999999k) push", "leaves=99999999999999999999k"},
      {"star(leaves=18014398509481984k) push", "leaves=18014398509481984k"},
      {"complete(n=8) push trials=2kk", "trials=2kk"},
      {"complete(n=8) push seed=17592186044416m", "seed=17592186044416m"},
      {"complete(n=8) push(max_rounds=2q)", "max_rounds=2q"},
      // Narrow fields keep their range checks after scaling.
      {"complete(n=8) push(stifle=4096m)", "stifle=4096m"},
      {"complete(n=8) push(shards=4096m)", "shards=4096m"},
      {"complete(n=8) frog(frogs=4096m)", "frogs=4096m"},
      {"complete(n=8) push source=4096m", "source=4096m"},
  };
  for (const auto& [line, token] : cases) {
    std::string error;
    EXPECT_FALSE(ScenarioSpec::parse(line, &error)) << line;
    EXPECT_NE(error.find("bad "), std::string::npos) << line << ": " << error;
    EXPECT_NE(error.find(token), std::string::npos) << line << ": " << error;
  }
}

}  // namespace
}  // namespace rumor

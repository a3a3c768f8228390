#include "auction/registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "auction/random_instance.h"
#include "core/long_term_online_vcg.h"
#include "util/rng.h"

namespace sfl::auction {
namespace {

MechanismConfig small_config() {
  MechanismConfig config;
  config.num_clients = 8;
  config.per_round_budget = 4.0;
  config.seed = 99;
  config.lto.v_weight = 6.0;
  config.lto.pacing_rate = 0.5;
  return config;
}

TEST(MechanismRegistryTest, ListsAllBuiltins) {
  const auto& registry = MechanismRegistry::global();
  const std::vector<std::string> expected{
      "lto-vcg",        "lto-vcg-sharded",  "lto-vcg-unpaced",
      "myopic-vcg",     "pay-as-bid",       "fixed-price",
      "adaptive-price", "random-stipend",   "proportional-share",
      "first-best-oracle", "budgeted-oracle", "budgeted-oracle-par",
      "greedy-concave", "greedy-concave-par", "myopic-vcg-ext",
      "myopic-vcg-ext-par"};
  EXPECT_EQ(registry.names(), expected);
  EXPECT_EQ(registry.size(), expected.size());
  for (const std::string& name : expected) {
    EXPECT_TRUE(registry.contains(name)) << name;
  }
  for (const MechanismInfo& info : registry.describe()) {
    EXPECT_FALSE(info.description.empty()) << info.name;
    // A variant must reference a registered canonical key (and never
    // itself) — the property harness trusts this to enumerate coverage.
    if (!info.variant_of.empty()) {
      EXPECT_TRUE(registry.contains(info.variant_of)) << info.name;
      EXPECT_NE(info.variant_of, info.name);
    }
  }
  // The execution variants of the paper mechanism are tagged, so the
  // trajectory-equality sweep picks them up with no hand-maintained list.
  std::vector<std::string> lto_variants;
  for (const MechanismInfo& info : registry.describe()) {
    if (info.variant_of == "lto-vcg") lto_variants.push_back(info.name);
  }
  EXPECT_EQ(lto_variants, (std::vector<std::string>{"lto-vcg-sharded"}));
  // The parallel-oracle keys are tagged as execution variants of their
  // serial canonicals, so the generic variant-equality sweep covers them
  // with no hand-maintained list.
  std::vector<std::string> oracle_variants;
  for (const MechanismInfo& info : registry.describe()) {
    if (!info.variant_of.empty() && info.variant_of != "lto-vcg") {
      oracle_variants.push_back(info.name + "->" + info.variant_of);
    }
  }
  EXPECT_EQ(oracle_variants,
            (std::vector<std::string>{"budgeted-oracle-par->budgeted-oracle",
                                      "greedy-concave-par->greedy-concave",
                                      "myopic-vcg-ext-par->myopic-vcg-ext"}));
}

TEST(MechanismRegistryTest, TuningKnobsAreDeclaredOnlyWhereTheyAreRead) {
  // Front ends set a tuning knob only for keys that declare it, so a key
  // missing a declaration would silently drop the knob and an extra one
  // would accept a knob that does nothing.
  const std::vector<std::pair<std::string, std::vector<std::string>>> expected{
      {"lto-vcg-sharded", {"lto.shards"}},
      {"budgeted-oracle-par", {"oracle.threads"}},
      {"greedy-concave", {"oracle.greedy_scale"}},
      {"greedy-concave-par", {"oracle.threads", "oracle.greedy_scale"}},
      {"myopic-vcg-ext-par", {"oracle.threads"}}};
  const auto& registry = MechanismRegistry::global();
  for (const MechanismInfo& info : registry.describe()) {
    const auto it = std::find_if(
        expected.begin(), expected.end(),
        [&](const auto& entry) { return entry.first == info.name; });
    const std::vector<std::string> want =
        it == expected.end() ? std::vector<std::string>{} : it->second;
    EXPECT_EQ(info.knobs, want) << info.name;
    for (const std::string& knob : want) EXPECT_TRUE(info.reads(knob));
    EXPECT_FALSE(info.reads("lto.v_weight")) << info.name;
  }
  ASSERT_NE(registry.info("lto-vcg-sharded"), nullptr);
  EXPECT_TRUE(registry.info("lto-vcg-sharded")->reads("lto.shards"));
  EXPECT_FALSE(registry.info("lto-vcg")->reads("lto.shards"));
  EXPECT_EQ(registry.info("no-such-mechanism"), nullptr);
}

TEST(MechanismRegistryTest, RoundTripOverEveryRegisteredName) {
  // Every key must build a working mechanism: run one auction round and
  // check the structural result invariants.
  const MechanismConfig config = small_config();
  sfl::util::Rng rng(7);
  RandomInstanceSpec ispec;
  ispec.num_candidates = 8;
  const auto instance = make_random_instance(ispec, rng);
  RoundContext ctx;
  ctx.max_winners = 3;
  ctx.per_round_budget = config.per_round_budget;

  for (const std::string& name : MechanismRegistry::global().names()) {
    const auto mechanism = build_mechanism(name, config);
    ASSERT_NE(mechanism, nullptr) << name;
    EXPECT_FALSE(mechanism->name().empty()) << name;
    const MechanismResult result = mechanism->run_round(instance.candidates, ctx);
    EXPECT_EQ(result.winners.size(), result.payments.size()) << name;
    EXPECT_LE(result.winners.size(), ctx.max_winners) << name;
    for (const ClientId winner : result.winners) {
      EXPECT_LT(winner, instance.candidates.size()) << name;
    }
    // The settlement protocol must be accepted by every rule.
    RoundSettlement settlement;
    settlement.total_payment = result.total_payment();
    for (std::size_t w = 0; w < result.winners.size(); ++w) {
      settlement.winners.push_back(
          WinnerSettlement{.client = result.winners[w],
                           .bid = instance.candidates[result.winners[w]].bid,
                           .payment = result.payments[w],
                           .energy_cost = 1.0,
                           .dropped = false});
    }
    EXPECT_NO_THROW(mechanism->settle(settlement)) << name;
  }
}

TEST(MechanismRegistryTest, UnknownNameThrowsWithKnownKeys) {
  try {
    (void)build_mechanism("no-such-rule", small_config());
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("no-such-rule"), std::string::npos);
    EXPECT_NE(message.find("lto-vcg"), std::string::npos);
  }
}

TEST(MechanismRegistryTest, DuplicateAndEmptyRegistrationsRejected) {
  MechanismRegistry registry;
  registry.add("custom", "a rule",
               [](const MechanismConfig& config) {
                 return build_mechanism("myopic-vcg", config);
               });
  EXPECT_TRUE(registry.contains("custom"));
  EXPECT_THROW(registry.add("custom", "again",
                            [](const MechanismConfig& config) {
                              return build_mechanism("myopic-vcg", config);
                            }),
               std::invalid_argument);
  EXPECT_THROW(registry.add("", "empty key",
                            [](const MechanismConfig& config) {
                              return build_mechanism("myopic-vcg", config);
                            }),
               std::invalid_argument);
  EXPECT_THROW(registry.add("no-factory", "null", MechanismRegistry::Factory{}),
               std::invalid_argument);
}

TEST(MechanismRegistryTest, LtoPacingSemantics) {
  MechanismConfig config = small_config();

  // Uniform pacing: every client gets pacing_rate.
  {
    const auto mechanism = build_mechanism("lto-vcg", config);
    auto* lto = dynamic_cast<core::LongTermOnlineVcgMechanism*>(mechanism.get());
    ASSERT_NE(lto, nullptr);
    ASSERT_EQ(lto->config().energy_rates.size(), config.num_clients);
    EXPECT_DOUBLE_EQ(lto->config().energy_rates.front(), 0.5);
    EXPECT_DOUBLE_EQ(lto->config().v_weight, 6.0);
    EXPECT_DOUBLE_EQ(lto->config().per_round_budget, 4.0);
  }

  // Explicit per-client rates win over the uniform rate.
  {
    config.lto.energy_rates = {0.1, 0.2, 0.3};
    const auto mechanism = build_mechanism("lto-vcg", config);
    auto* lto = dynamic_cast<core::LongTermOnlineVcgMechanism*>(mechanism.get());
    ASSERT_NE(lto, nullptr);
    EXPECT_EQ(lto->config().energy_rates,
              (std::vector<double>{0.1, 0.2, 0.3}));
  }

  // The unpaced key ignores pacing entirely.
  {
    const auto mechanism = build_mechanism("lto-vcg-unpaced", config);
    auto* lto = dynamic_cast<core::LongTermOnlineVcgMechanism*>(mechanism.get());
    ASSERT_NE(lto, nullptr);
    EXPECT_TRUE(lto->config().energy_rates.empty());
  }

  // Uniform pacing without a client count is a configuration error.
  {
    config.lto.energy_rates.clear();
    config.num_clients = 0;
    EXPECT_THROW((void)build_mechanism("lto-vcg", config),
                 std::invalid_argument);
  }
}

TEST(MechanismRegistryTest, AblationOptionsReachTheMechanism) {
  MechanismConfig config = small_config();
  config.lto.vcg_externality_payments = true;
  config.lto.bid_proxy_queue_arrival = true;
  config.lto.budget_schedule = {6.0, 2.0};
  const auto mechanism = build_mechanism("lto-vcg-unpaced", config);
  auto* lto = dynamic_cast<core::LongTermOnlineVcgMechanism*>(mechanism.get());
  ASSERT_NE(lto, nullptr);
  EXPECT_EQ(lto->config().payment_rule, core::PaymentRule::kVcgExternality);
  EXPECT_EQ(lto->config().queue_arrival, core::QueueArrivalMode::kBidProxy);
  EXPECT_EQ(lto->config().budget_schedule, (std::vector<double>{6.0, 2.0}));
}

}  // namespace
}  // namespace sfl::auction

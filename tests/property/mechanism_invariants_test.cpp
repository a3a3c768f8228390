// Property-test harness for cross-mechanism auction invariants.
//
// A seeded generator produces adversarial instances — exact score/bid ties,
// duplicate client ids, zero values/bids, winner caps at/above the slate
// size, empty slates — and EVERY key in MechanismRegistry::describe() is
// run through the same invariant suite, so a newly registered mechanism is
// covered automatically with no hand-maintained list. Checked per instance:
//
//  - structural sanity: winners/payments aligned, capped at m, winners are
//    candidates (multiset containment, so duplicate-id slates count),
//    payments finite and non-negative;
//  - entry-point agreement: the AoS, batched SoA, and scratch-reusing
//    run_round_into paths return identical results (fresh twin mechanisms,
//    so stateful and randomized rules compare from equal state);
//  - individual rationality: winners are paid at least their bid (skipped
//    for rules that document otherwise, e.g. the bid-blind random stipend);
//  - per-round budget feasibility where the rule guarantees it
//    (proportional-share and budgeted-oracle both epsilon-exact: the
//    knapsack's ceil weights over-count bids, so its DP is conservative);
//  - settlement: settle() on the round's own outcome never throws;
//  - trajectory equality: every registered execution variant of LTO-VCG
//    (today lto-vcg-sharded — enumerated from the registry's variant_of
//    tags) stays bit-identical to the serial mechanism over multi-round
//    settled trajectories; likewise every
//    parallel-oracle variant (budgeted-oracle-par, greedy-concave-par,
//    myopic-vcg-ext-par) against its serial canonical at thread counts
//    {0, 2, 3, 7, 16};
//  - external rounds: for lto-vcg and each of its variants, clearing the
//    round outside the mechanism (external_round_inputs, ShardedWdp
//    select + price, commit_external_round) stays bit-identical to
//    run_round_into, queue state included.
//
// Reproducing failures: every trial logs its seed; run
//   <binary> --seed=N
// to re-run exactly the failing instance (all keys, that one seed). On
// failure the binary also appends the seeds to property_failure_seeds.txt
// next to the test's working directory — CI uploads it as an artifact.
// SFL_PROPERTY_TRIALS overrides the per-key trial count (default 1000).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "auction/candidate_batch.h"
#include "auction/registry.h"
#include "auction/round_scratch.h"
#include "auction/sharded_wdp.h"
#include "core/long_term_online_vcg.h"
#include "util/rng.h"

namespace sfl {
namespace {

using auction::Candidate;
using auction::CandidateBatch;
using auction::ClientId;
using auction::build_mechanism;
using auction::MechanismConfig;
using auction::MechanismRegistry;
using auction::MechanismResult;
using auction::RoundContext;
using auction::RoundSettlement;
using auction::WinnerSettlement;

/// Upper bound on client ids the generator emits; the LTO pacing table is
/// sized to it so every generated id is a legal queue index.
constexpr std::size_t kMaxClients = 40;

std::optional<std::uint64_t> g_fixed_seed;     // --seed=N
std::vector<std::uint64_t> g_failed_seeds;     // written to the artifact

std::size_t trials_per_key() {
  if (g_fixed_seed.has_value()) return 1;
  if (const char* env = std::getenv("SFL_PROPERTY_TRIALS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return 1000;
}

std::uint64_t trial_seed(std::size_t trial) {
  return g_fixed_seed.value_or(static_cast<std::uint64_t>(trial));
}

void record_failure(std::uint64_t seed) {
  for (const std::uint64_t s : g_failed_seeds) {
    if (s == seed) return;
  }
  g_failed_seeds.push_back(seed);
}

// ---------------------------------------------------------------------------
// Adversarial instance generator.
// ---------------------------------------------------------------------------

struct AdversarialInstance {
  std::vector<Candidate> candidates;
  RoundContext context;
  bool has_duplicate_ids = false;
};

/// Six instance families, chosen by seed so --seed=N replays the family
/// along with the draws: typical, tied scores, duplicate ids, zero-heavy,
/// m >= n, and the empty slate.
AdversarialInstance make_adversarial_instance(std::uint64_t seed) {
  util::Rng rng(seed ^ 0x5f15eedULL);
  const std::uint64_t family = seed % 6;

  AdversarialInstance instance;
  std::size_t n = 0;
  switch (family) {
    case 5: n = 0; break;                                        // empty
    case 4: n = 1 + rng.uniform_index(6); break;                 // tiny, m >= n
    default: n = 1 + rng.uniform_index(32); break;
  }

  for (std::size_t i = 0; i < n; ++i) {
    Candidate c;
    c.id = static_cast<ClientId>(i);
    if (family == 2 && n >= 2 && rng.bernoulli(0.5)) {
      // Duplicate ids: the same client appears in several slate rows.
      c.id = static_cast<ClientId>(rng.uniform_index(n));
    }
    if (family == 1) {
      // Exact ties: values and bids from a coarse lattice, so score ties
      // (and tie-breaking rules) are hit constantly.
      c.value = 0.5 * static_cast<double>(rng.uniform_index(5));
      c.bid = 0.25 * static_cast<double>(rng.uniform_index(4));
    } else if (family == 3) {
      // Zero-heavy: worthless candidates, free candidates, both.
      c.value = rng.bernoulli(0.5) ? 0.0 : rng.uniform(0.0, 4.0);
      c.bid = rng.bernoulli(0.5) ? 0.0 : rng.uniform(0.0, 2.0);
    } else {
      c.value = rng.uniform(0.1, 5.0);
      c.bid = rng.uniform(0.05, 3.0);
    }
    c.energy_cost = rng.uniform(0.2, 2.0);
    instance.candidates.push_back(c);
  }
  for (std::size_t i = 0; i + 1 < instance.candidates.size(); ++i) {
    for (std::size_t j = i + 1; j < instance.candidates.size(); ++j) {
      if (instance.candidates[i].id == instance.candidates[j].id) {
        instance.has_duplicate_ids = true;
      }
    }
  }

  instance.context.round = rng.uniform_index(1000);
  if (family == 4) {
    instance.context.max_winners = n + rng.uniform_index(5);  // m >= n
  } else if (family == 1 && rng.bernoulli(0.15)) {
    instance.context.max_winners = 0;  // degenerate cap
  } else {
    instance.context.max_winners = 1 + rng.uniform_index(8);
  }
  // Finite positive budget: adaptive-price requires one, and the
  // budget-feasible rules are only testable against a real budget.
  instance.context.per_round_budget = rng.uniform(0.5, 10.0);
  instance.context.remaining_budget = instance.context.per_round_budget;
  return instance;
}

// ---------------------------------------------------------------------------
// Per-key invariant profiles.
// ---------------------------------------------------------------------------

/// What a mechanism guarantees. Defaults are the safe cross-mechanism core
/// (structural sanity + entry-point agreement + IR); keys with documented
/// exceptions or extra guarantees override below. An unknown (future) key
/// gets the defaults, so registering a rule that pays below bid forces its
/// author to classify it here — deliberate friction.
struct InvariantProfile {
  /// Winners are paid at least their bid.
  bool individually_rational = true;
  /// Per-round budget feasibility: total payment <= budget + slack, with
  /// slack = budget_slack + budget_slack_per_winner * |winners|. Negative
  /// base slack disables the check (long-term-only rules).
  double budget_slack = -1.0;
  double budget_slack_per_winner = 0.0;
};

InvariantProfile profile_for(const std::string& key,
                             const MechanismConfig& config) {
  (void)config;
  InvariantProfile profile;
  if (key == "random-stipend") {
    // Bid-independent stipend: trivially truthful, deliberately not IR.
    profile.individually_rational = false;
  } else if (key == "proportional-share") {
    profile.budget_slack = 1e-9;
  } else if (key == "budgeted-oracle" || key == "budgeted-oracle-par") {
    // Ceil-discretized knapsack weights OVER-count each bid (ceil(bid/res)
    // >= bid/res) and the capacity floor UNDER-counts the budget, so the DP
    // is conservative: sum(bid) <= res * sum(weight) <= res * capacity <=
    // budget. Feasibility is epsilon-tight — no per-winner resolution slack.
    profile.budget_slack = 1e-9;
  }
  return profile;
}

MechanismConfig property_mechanism_config() {
  MechanismConfig config;
  config.num_clients = kMaxClients;
  config.per_round_budget = 5.0;
  config.seed = 777;
  config.lto.v_weight = 8.0;
  config.lto.pacing_rate = 0.4;  // Z queues on: exercises penalty paths
  return config;
}

/// Smallest bid among candidates with this id (the IR reference when
/// duplicate ids make the per-row bid ambiguous).
double min_bid_for(const std::vector<Candidate>& candidates, ClientId id) {
  double best = std::numeric_limits<double>::infinity();
  for (const Candidate& c : candidates) {
    if (c.id == id && c.bid < best) best = c.bid;
  }
  return best;
}

std::size_t id_multiplicity(const std::vector<Candidate>& candidates,
                            ClientId id) {
  std::size_t count = 0;
  for (const Candidate& c : candidates) {
    if (c.id == id) ++count;
  }
  return count;
}

void check_invariants(const std::string& key,
                      const AdversarialInstance& instance,
                      std::uint64_t seed) {
  const MechanismConfig config = property_mechanism_config();
  const InvariantProfile profile = profile_for(key, config);

  // Three fresh twins (identical construction, identical state, identical
  // RNG streams for randomized rules): one per entry point.
  const auto aos_twin = build_mechanism(key, config);
  const auto batch_twin = build_mechanism(key, config);
  const auto into_twin = build_mechanism(key, config);

  const CandidateBatch batch = CandidateBatch::from_aos(instance.candidates);
  const MechanismResult via_aos =
      aos_twin->run_round(instance.candidates, instance.context);
  const MechanismResult via_batch =
      batch_twin->run_round(batch, instance.context);
  MechanismResult via_into;
  into_twin->run_round_into(batch, instance.context, via_into);

  // Entry-point agreement, exact to the bit.
  EXPECT_EQ(via_aos.winners, via_batch.winners) << "AoS vs batch";
  EXPECT_EQ(via_aos.payments, via_batch.payments) << "AoS vs batch";
  EXPECT_EQ(via_aos.winners, via_into.winners) << "AoS vs run_round_into";
  EXPECT_EQ(via_aos.payments, via_into.payments) << "AoS vs run_round_into";

  // Structural sanity.
  const MechanismResult& result = via_aos;
  ASSERT_EQ(result.winners.size(), result.payments.size());
  EXPECT_LE(result.winners.size(), instance.context.max_winners);
  EXPECT_LE(result.winners.size(), instance.candidates.size());
  for (std::size_t w = 0; w < result.winners.size(); ++w) {
    const ClientId id = result.winners[w];
    const std::size_t available = id_multiplicity(instance.candidates, id);
    ASSERT_GT(available, 0u) << "winner " << id << " is not a candidate";
    std::size_t awarded = 0;
    for (const ClientId other : result.winners) {
      if (other == id) ++awarded;
    }
    EXPECT_LE(awarded, available)
        << "client " << id << " won more slots than it has slate rows";

    const double payment = result.payments[w];
    EXPECT_TRUE(std::isfinite(payment)) << "payment " << payment;
    EXPECT_GE(payment, -1e-12) << "negative payment";
    if (profile.individually_rational) {
      EXPECT_GE(payment, min_bid_for(instance.candidates, id) - 1e-9)
          << "winner " << id << " paid below bid";
    }
  }

  // Budget feasibility where the rule guarantees it.
  if (profile.budget_slack >= 0.0) {
    const double cap =
        instance.context.per_round_budget + profile.budget_slack +
        profile.budget_slack_per_winner *
            static_cast<double>(result.winners.size());
    EXPECT_LE(result.total_payment(), cap) << "budget infeasible round";
  }

  // Settlement: the round's own outcome must settle cleanly (stateful
  // rules update queues; stateless ones no-op) — including duplicate-id
  // slates and empty winner sets.
  RoundSettlement settlement;
  settlement.round = instance.context.round;
  settlement.total_payment = result.total_payment();
  for (std::size_t w = 0; w < result.winners.size(); ++w) {
    settlement.winners.push_back(
        WinnerSettlement{.client = result.winners[w],
                         .bid = min_bid_for(instance.candidates,
                                            result.winners[w]),
                         .payment = result.payments[w],
                         .energy_cost = 1.0,
                         .dropped = false});
  }
  EXPECT_NO_THROW(aos_twin->settle(settlement)) << "settle threw";
}

// ---------------------------------------------------------------------------
// The registry-driven invariant sweep.
// ---------------------------------------------------------------------------

class MechanismInvariantSweep : public ::testing::TestWithParam<std::string> {
};

TEST_P(MechanismInvariantSweep, AdversarialInstancesKeepInvariants) {
  const std::string& key = GetParam();
  const std::size_t trials = trials_per_key();
  for (std::size_t trial = 0; trial < trials; ++trial) {
    const std::uint64_t seed = trial_seed(trial);
    SCOPED_TRACE("repro: property_mechanism_invariants_test --seed=" +
                 std::to_string(seed) + " (key " + key + ")");
    const bool failed_before = ::testing::Test::HasFailure();
    check_invariants(key, make_adversarial_instance(seed), seed);
    if (!failed_before && ::testing::Test::HasFailure()) {
      record_failure(seed);
      // One counterexample per key is enough; later seeds would bury it.
      break;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllRegistryKeys, MechanismInvariantSweep,
    ::testing::ValuesIn(MechanismRegistry::global().names()),
    [](const auto& info) {
      std::string name = info.param;
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

// ---------------------------------------------------------------------------
// Execution-variant trajectory equality (multi-round, settled).
// ---------------------------------------------------------------------------

TEST(LtoExecutionModesProperty, AllRegisteredVariantTrajectoriesBitIdentical) {
  // EVERY execution variant of the paper mechanism — enumerated from the
  // registry's variant_of tags, so a newly registered variant is covered
  // with no hand-maintained list — must produce identical winners,
  // payments, and queue backlogs over settled multi-round trajectories.
  // Each variant key is built twice: with its defaults (auto shard count)
  // and with an explicit odd shard count that forces non-trivial merges on
  // any machine.
  const std::size_t trajectories = std::min<std::size_t>(
      60, std::max<std::size_t>(4, trials_per_key() / 16));
  constexpr std::size_t kRounds = 16;

  for (std::size_t trajectory = 0; trajectory < trajectories; ++trajectory) {
    const std::uint64_t seed = trial_seed(trajectory);
    SCOPED_TRACE("repro: property_mechanism_invariants_test --seed=" +
                 std::to_string(seed) + " (trajectory)");
    const bool failed_before = ::testing::Test::HasFailure();

    MechanismConfig config = property_mechanism_config();
    const auto serial = build_mechanism("lto-vcg", config);
    std::vector<std::unique_ptr<sfl::auction::Mechanism>> owned;
    for (const auto& info : MechanismRegistry::global().describe()) {
      if (info.variant_of != "lto-vcg") continue;
      MechanismConfig variant_config = config;  // defaults: auto counts
      owned.push_back(build_mechanism(info.name, variant_config));
      variant_config.lto.shards = 3;
      owned.push_back(build_mechanism(info.name, variant_config));
    }
    ASSERT_GE(owned.size(), 2u) << "variant tags disappeared from the registry";
    std::vector<sfl::auction::Mechanism*> variants;
    for (const auto& mechanism : owned) variants.push_back(mechanism.get());

    util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 1);
    for (std::size_t round = 0; round < kRounds; ++round) {
      AdversarialInstance instance =
          make_adversarial_instance(rng());
      instance.context.round = round;

      const MechanismResult reference =
          serial->run_round(instance.candidates, instance.context);
      for (sfl::auction::Mechanism* variant : variants) {
        const MechanismResult result =
            variant->run_round(instance.candidates, instance.context);
        ASSERT_EQ(reference.winners, result.winners)
            << variant->name() << " round " << round;
        ASSERT_EQ(reference.payments, result.payments)
            << variant->name() << " round " << round;
      }

      RoundSettlement settlement;
      settlement.round = round;
      settlement.total_payment = reference.total_payment();
      for (std::size_t w = 0; w < reference.winners.size(); ++w) {
        settlement.winners.push_back(WinnerSettlement{
            .client = reference.winners[w],
            .bid = min_bid_for(instance.candidates, reference.winners[w]),
            .payment = reference.payments[w],
            .energy_cost = 1.0,
            .dropped = false});
      }
      serial->settle(settlement);
      for (sfl::auction::Mechanism* variant : variants) {
        variant->settle(settlement);
      }
    }

    // Post-trajectory queue state.
    auto* serial_lto =
        dynamic_cast<core::LongTermOnlineVcgMechanism*>(serial->underlying());
    ASSERT_NE(serial_lto, nullptr);
    for (sfl::auction::Mechanism* variant : variants) {
      auto* lto = dynamic_cast<core::LongTermOnlineVcgMechanism*>(
          variant->underlying());
      ASSERT_NE(lto, nullptr);
      ASSERT_EQ(serial_lto->budget_backlog(), lto->budget_backlog())
          << variant->name();
      for (std::size_t client = 0; client < kMaxClients; ++client) {
        ASSERT_EQ(serial_lto->sustainability_backlog(client),
                  lto->sustainability_backlog(client))
            << variant->name() << " client " << client;
      }
    }

    if (!failed_before && ::testing::Test::HasFailure()) {
      record_failure(seed);
      break;
    }
  }
}

// ---------------------------------------------------------------------------
// Parallel-oracle variant equality (registry-driven, thread-count swept).
// ---------------------------------------------------------------------------

TEST(OracleVariantsProperty, ParallelOracleTrajectoriesBitIdenticalToSerial) {
  // EVERY registered parallel-oracle key — enumerated from variant_of tags
  // pointing at a non-lto-vcg canonical, so a newly parallelized baseline
  // is swept with no hand-maintained list — must stay bit-identical to its
  // serial canonical over settled multi-round trajectories at EVERY thread
  // count, including auto (0) and counts above the hardware concurrency.
  const std::size_t trajectories = std::min<std::size_t>(
      24, std::max<std::size_t>(2, trials_per_key() / 64));
  constexpr std::size_t kRounds = 8;
  const std::size_t thread_counts[] = {0, 2, 3, 7, 16};

  std::vector<std::pair<std::string, std::string>> pairs;  // variant, serial
  for (const auto& info : MechanismRegistry::global().describe()) {
    if (!info.variant_of.empty() && info.variant_of != "lto-vcg") {
      pairs.emplace_back(info.name, info.variant_of);
    }
  }
  ASSERT_GE(pairs.size(), 3u) << "oracle variant tags disappeared";

  for (const auto& [variant_key, serial_key] : pairs) {
    for (std::size_t trajectory = 0; trajectory < trajectories; ++trajectory) {
      const std::uint64_t seed = trial_seed(trajectory);
      SCOPED_TRACE("repro: property_mechanism_invariants_test --seed=" +
                   std::to_string(seed) + " (oracle variant " + variant_key +
                   ")");
      const bool failed_before = ::testing::Test::HasFailure();

      const MechanismConfig config = property_mechanism_config();
      const auto serial = build_mechanism(serial_key, config);
      std::vector<std::unique_ptr<sfl::auction::Mechanism>> variants;
      for (const std::size_t threads : thread_counts) {
        MechanismConfig variant_config = config;
        variant_config.oracle.threads = threads;
        variants.push_back(build_mechanism(variant_key, variant_config));
      }

      util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 3);
      for (std::size_t round = 0; round < kRounds; ++round) {
        AdversarialInstance instance = make_adversarial_instance(rng());
        instance.context.round = round;

        const MechanismResult reference =
            serial->run_round(instance.candidates, instance.context);
        for (std::size_t v = 0; v < variants.size(); ++v) {
          const MechanismResult result =
              variants[v]->run_round(instance.candidates, instance.context);
          ASSERT_EQ(reference.winners, result.winners)
              << variant_key << " threads=" << thread_counts[v] << " round "
              << round;
          ASSERT_EQ(reference.payments.size(), result.payments.size())
              << variant_key << " threads=" << thread_counts[v];
          for (std::size_t w = 0; w < reference.payments.size(); ++w) {
            ASSERT_EQ(std::bit_cast<std::uint64_t>(reference.payments[w]),
                      std::bit_cast<std::uint64_t>(result.payments[w]))
                << variant_key << " threads=" << thread_counts[v] << " round "
                << round << " winner " << w << ": " << reference.payments[w]
                << " != " << result.payments[w];
          }
        }

        RoundSettlement settlement;
        settlement.round = round;
        settlement.total_payment = reference.total_payment();
        for (std::size_t w = 0; w < reference.winners.size(); ++w) {
          settlement.winners.push_back(WinnerSettlement{
              .client = reference.winners[w],
              .bid = min_bid_for(instance.candidates, reference.winners[w]),
              .payment = reference.payments[w],
              .energy_cost = 1.0,
              .dropped = false});
        }
        serial->settle(settlement);
        for (auto& variant : variants) variant->settle(settlement);
      }

      if (!failed_before && ::testing::Test::HasFailure()) {
        record_failure(seed);
        break;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// External-round family: select + price outside the mechanism ==
// run_round_into.
// ---------------------------------------------------------------------------

/// Full-delivery settlement built from a round result the same way on both
/// sides of the external-round comparison, so any divergence comes from the
/// clearing itself, never from the settlement construction.
RoundSettlement settlement_for(const MechanismResult& result,
                               const std::vector<Candidate>& candidates,
                               std::size_t round) {
  RoundSettlement settlement;
  settlement.round = round;
  settlement.total_payment = result.total_payment();
  for (std::size_t w = 0; w < result.winners.size(); ++w) {
    settlement.winners.push_back(
        WinnerSettlement{.client = result.winners[w],
                         .bid = min_bid_for(candidates, result.winners[w]),
                         .payment = result.payments[w],
                         .energy_cost = 1.0,
                         .dropped = false});
  }
  return settlement;
}

TEST(LtoExternalRoundProperty, ExternalRoundsMatchRunRoundIntoForAllVariants) {
  // For EVERY registered lto-vcg execution variant (registry-driven, so a
  // new topology is swept automatically), a twin pair of mechanisms clears
  // the same seeded rounds two ways:
  //   reference: run_round_into + settle;
  //   external:  external_round_inputs, ShardedWdp::select_top_m and
  //              critical_payments on an engine built with the mechanism's
  //              shard count, commit_external_round + the identical settle
  //              — the shape perfbench's clear-diurnal workload times.
  // Winners, payments (bit for bit) and the final queue backlogs must
  // agree.
  constexpr std::size_t kRounds = 24;
  const std::size_t trajectories = std::min<std::size_t>(
      40, std::max<std::size_t>(4, trials_per_key() / 32));

  std::vector<std::string> keys = {"lto-vcg"};
  for (const auto& info : MechanismRegistry::global().describe()) {
    if (info.variant_of == "lto-vcg") keys.push_back(info.name);
  }
  ASSERT_GE(keys.size(), 2u) << "variant tags disappeared from the registry";

  for (const std::string& key : keys) {
    for (std::size_t trajectory = 0; trajectory < trajectories; ++trajectory) {
      const std::uint64_t seed = trial_seed(trajectory);
      SCOPED_TRACE("repro: property_mechanism_invariants_test --seed=" +
                   std::to_string(seed) + " (external rounds, key " + key +
                   ")");
      const bool failed_before = ::testing::Test::HasFailure();

      const MechanismConfig config = property_mechanism_config();
      const std::unique_ptr<sfl::auction::Mechanism> reference =
          build_mechanism(key, config);
      const std::unique_ptr<sfl::auction::Mechanism> external =
          build_mechanism(key, config);
      auto* want_lto = dynamic_cast<core::LongTermOnlineVcgMechanism*>(
          reference->underlying());
      auto* lto = dynamic_cast<core::LongTermOnlineVcgMechanism*>(
          external->underlying());
      ASSERT_NE(want_lto, nullptr) << key;
      ASSERT_NE(lto, nullptr) << key;
      ASSERT_TRUE(lto->supports_external_rounds()) << key;
      const sfl::auction::ShardedWdp engine(
          sfl::auction::ShardedWdpConfig{.shards = lto->config().shards});

      util::Rng rng(seed * 0x9e3779b97f4a7c15ULL + 2);
      sfl::auction::RoundScratch scratch;
      sfl::auction::Penalties penalties;
      MechanismResult want;
      MechanismResult got;

      for (std::size_t round = 0; round < kRounds; ++round) {
        AdversarialInstance instance = make_adversarial_instance(rng());
        instance.context.round = round;
        const CandidateBatch batch =
            CandidateBatch::from_aos(instance.candidates);
        const std::size_t m = instance.context.max_winners;

        reference->run_round_into(batch, instance.context, want);
        reference->settle(settlement_for(want, instance.candidates, round));

        const sfl::auction::ScoreWeights weights =
            lto->external_round_inputs(batch, penalties);
        engine.select_top_m(batch, weights, m, penalties, scratch);
        engine.critical_payments(batch, weights, m, penalties, scratch);
        lto->commit_external_round(batch, scratch.allocation.selected,
                                   scratch.payments, got);
        external->settle(settlement_for(got, instance.candidates, round));

        ASSERT_EQ(want.winners, got.winners) << key << " round " << round;
        ASSERT_EQ(want.payments.size(), got.payments.size());
        for (std::size_t w = 0; w < want.payments.size(); ++w) {
          ASSERT_EQ(std::bit_cast<std::uint64_t>(want.payments[w]),
                    std::bit_cast<std::uint64_t>(got.payments[w]))
              << key << " round " << round << " winner " << w << ": "
              << want.payments[w] << " != " << got.payments[w];
        }
      }

      // Queue state must agree too (the settles were fed identical
      // outcomes, so a divergence means hidden state drift).
      ASSERT_EQ(std::bit_cast<std::uint64_t>(want_lto->budget_backlog()),
                std::bit_cast<std::uint64_t>(lto->budget_backlog()))
          << key;
      for (std::size_t client = 0; client < kMaxClients; ++client) {
        ASSERT_EQ(std::bit_cast<std::uint64_t>(
                      want_lto->sustainability_backlog(client)),
                  std::bit_cast<std::uint64_t>(
                      lto->sustainability_backlog(client)))
            << key << " client " << client;
      }

      if (!failed_before && ::testing::Test::HasFailure()) {
        record_failure(seed);
        break;
      }
    }
  }
}

}  // namespace
}  // namespace sfl

// Custom main: --seed=N pins the generator to one instance seed for exact
// reproduction; failing seeds are persisted for the CI artifact and echoed
// with a copy-pasteable repro command.
int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    constexpr const char* kSeedFlag = "--seed=";
    if (arg.rfind(kSeedFlag, 0) == 0) {
      sfl::g_fixed_seed =
          std::strtoull(arg.c_str() + std::string(kSeedFlag).size(), nullptr,
                        10);
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  const int result = RUN_ALL_TESTS();
  if (!sfl::g_failed_seeds.empty()) {
    std::ofstream out("property_failure_seeds.txt", std::ios::app);
    std::cerr << "\nproperty-test failures; reproduce each with:\n";
    for (const std::uint64_t seed : sfl::g_failed_seeds) {
      out << seed << "\n";
      std::cerr << "  property_mechanism_invariants_test --seed=" << seed
                << "\n";
    }
    std::cerr << "(seeds appended to property_failure_seeds.txt)\n";
  }
  return result;
}

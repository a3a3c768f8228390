// Zero-allocation regression for the steady-state round pipeline.
//
// This binary replaces the global operator new/delete with counting
// versions. After a warm-up phase (scratch buffers grown, thread pool
// spawned, result capacity established), a full auction round — scoring,
// top-m selection, critical payments, result publication, and settlement —
// must perform ZERO heap allocations, serial and sharded alike. A
// regression here silently reintroduces per-round allocator traffic at
// million-client scale, which is exactly what RoundScratch exists to
// prevent.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>

#include "auction/baselines.h"
#include "auction/round_scratch.h"
#include "auction/sharded_wdp.h"
#include "core/long_term_online_vcg.h"
#include "util/rng.h"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void* operator new[](std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = std::malloc(size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace sfl::auction {
namespace {

/// Rebuilds the slate in place (capacity reuse) with fresh bids, the way
/// the orchestrator's round loop does.
void refill_batch(CandidateBatch& batch, std::size_t n, sfl::util::Rng& rng) {
  batch.clear();
  for (std::size_t i = 0; i < n; ++i) {
    batch.emplace(i, rng.uniform(0.5, 5.0), rng.uniform(0.1, 3.0), 1.0);
  }
}

TEST(RoundScratchAllocTest, EngineRoundIsAllocationFreeAfterWarmup) {
  constexpr std::size_t kClients = 5000;
  constexpr std::size_t kWinners = 10;
  const ScoreWeights weights{.value_weight = 10.0, .bid_weight = 12.5};
  sfl::util::Rng rng(77);

  for (const std::size_t shards : {std::size_t{1}, std::size_t{4}}) {
    const ShardedWdp engine{ShardedWdpConfig{.shards = shards}};
    CandidateBatch batch;
    batch.reserve(kClients);
    RoundScratch scratch;

    // Warm-up: grows every buffer (and spawns the shared pool for the
    // sharded variant).
    for (int round = 0; round < 3; ++round) {
      refill_batch(batch, kClients, rng);
      engine.run_round(batch, weights, kWinners, {}, scratch);
    }

    // The warm-up must have gone through the counting operator new — a zero
    // count here would mean the override is not linked and the test is
    // vacuous.
    ASSERT_GT(g_allocations.load(), 0u);

    const std::size_t before = g_allocations.load();
    for (int round = 0; round < 10; ++round) {
      refill_batch(batch, kClients, rng);
      engine.run_round(batch, weights, kWinners, {}, scratch);
    }
    const std::size_t after = g_allocations.load();
    EXPECT_EQ(after - before, 0u)
        << "shards=" << shards << ": steady-state engine rounds allocated";
  }
}

TEST(RoundScratchAllocTest, SharedScratchMakesFreshMechanismsStartWarm) {
  // Multi-mechanism comparison runs lease ONE RoundScratch for the whole
  // roster (bench_common.h's ScratchPool): after any mechanism has warmed
  // it, a freshly constructed mechanism's first round must not pay the
  // buffer-growth allocations again. A private-scratch mechanism on the
  // same workload DOES allocate — that contrast keeps this test
  // non-vacuous.
  constexpr std::size_t kClients = 2000;
  sfl::util::Rng rng(79);
  CandidateBatch batch;
  batch.reserve(kClients);
  RoundContext context;
  context.max_winners = 8;

  RoundScratch shared;
  sfl::core::LtoVcgConfig config;
  config.v_weight = 10.0;
  config.per_round_budget = 5.0;
  config.shards = 1;
  config.shared_scratch = &shared;

  // Warm the pooled scratch through a first mechanism (several rounds so
  // every buffer reaches steady capacity).
  {
    sfl::core::LongTermOnlineVcgMechanism warmup(config);
    MechanismResult outcome;
    for (std::size_t round = 0; round < 3; ++round) {
      context.round = round;
      refill_batch(batch, kClients, rng);
      warmup.run_round_into(batch, context, outcome);
    }
  }

  // A brand-new mechanism sharing the warmed scratch: its FIRST round may
  // only pay the O(max_winners) mechanism-local winner-cache growth (a
  // handful of allocations), never the O(n) scratch growth, and every
  // round after that must allocate nothing.
  sfl::core::LongTermOnlineVcgMechanism fresh(config);
  MechanismResult outcome;
  outcome.winners.reserve(context.max_winners);
  outcome.payments.reserve(context.max_winners);
  refill_batch(batch, kClients, rng);
  const std::size_t first_before = g_allocations.load();
  context.round = 0;
  fresh.run_round_into(batch, context, outcome);
  const std::size_t fresh_first_round = g_allocations.load() - first_before;

  const std::size_t steady_before = g_allocations.load();
  for (std::size_t round = 1; round < 6; ++round) {
    context.round = round;
    fresh.run_round_into(batch, context, outcome);
  }
  EXPECT_EQ(g_allocations.load() - steady_before, 0u)
      << "a fresh mechanism on a warmed shared scratch allocated";

  // Contrast: the same construction with a private scratch regrows every
  // O(n) buffer on its first round — the pooled variant must be far below
  // it (and without this check the steady-state assertion could pass
  // vacuously).
  config.shared_scratch = nullptr;
  sfl::core::LongTermOnlineVcgMechanism isolated(config);
  const std::size_t isolated_before = g_allocations.load();
  isolated.run_round_into(batch, context, outcome);
  const std::size_t isolated_first_round =
      g_allocations.load() - isolated_before;
  EXPECT_GT(isolated_first_round, 0u)
      << "private-scratch warm-up no longer allocates; test is vacuous";
  EXPECT_LT(fresh_first_round * 2, isolated_first_round)
      << "shared scratch no longer removes the warm-up growth (pooled "
      << fresh_first_round << " vs private " << isolated_first_round << ")";
}

TEST(RoundScratchAllocTest, LtoMechanismRoundAndSettleAreAllocationFree) {
  constexpr std::size_t kClients = 2000;
  sfl::core::LtoVcgConfig config;
  config.v_weight = 10.0;
  config.per_round_budget = 5.0;
  config.energy_rates.assign(kClients, 0.5);  // paced: Z queues + penalties on
  config.shards = 1;
  sfl::core::LongTermOnlineVcgMechanism mechanism(config);

  RoundContext context;
  context.max_winners = 8;
  sfl::util::Rng rng(78);
  CandidateBatch batch;
  batch.reserve(kClients);
  MechanismResult outcome;
  RoundSettlement settlement;

  const auto run_one_round = [&](std::size_t round) {
    context.round = round;
    refill_batch(batch, kClients, rng);
    outcome.winners.clear();
    outcome.payments.clear();
    mechanism.run_round_into(batch, context, outcome);
    settlement.round = round;
    settlement.total_payment = outcome.total_payment();
    settlement.winners.clear();
    for (std::size_t w = 0; w < outcome.winners.size(); ++w) {
      settlement.winners.push_back(
          WinnerSettlement{.client = outcome.winners[w],
                           .bid = 0.0,
                           .payment = outcome.payments[w],
                           .energy_cost = 1.0,
                           .dropped = false});
    }
    mechanism.settle(settlement);
  };

  for (std::size_t round = 0; round < 3; ++round) run_one_round(round);
  // settlement.winners capacity may still be below the worst case; reserve
  // the cap the way the orchestrator's reused buffers end up.
  settlement.winners.reserve(context.max_winners);
  outcome.winners.reserve(context.max_winners);
  outcome.payments.reserve(context.max_winners);

  const std::size_t before = g_allocations.load();
  for (std::size_t round = 3; round < 13; ++round) run_one_round(round);
  const std::size_t after = g_allocations.load();
  EXPECT_EQ(after - before, 0u)
      << "steady-state LTO rounds (run_round_into + settle) allocated";
}

TEST(RoundScratchAllocTest, StatelessRuleSettleIsAllocationFree) {
  // A stateless rule's settle() is the base no-op: reporting a round with
  // winners must not allocate. myopic-vcg's run_round_into is the base
  // adapter that returns a fresh result, so only the settle() calls are
  // counted; the rounds still run so every settlement reports real winners.
  constexpr std::size_t kClients = 500;
  MyopicVcgMechanism mechanism;
  RoundContext context;
  context.max_winners = 8;
  sfl::util::Rng rng(80);
  CandidateBatch batch;
  batch.reserve(kClients);
  MechanismResult outcome;
  RoundSettlement settlement;
  settlement.winners.reserve(context.max_winners);

  std::size_t settle_allocations = 0;
  std::size_t settled_winners = 0;
  for (std::size_t round = 0; round < 10; ++round) {
    context.round = round;
    refill_batch(batch, kClients, rng);
    mechanism.run_round_into(batch, context, outcome);
    settlement.round = round;
    settlement.total_payment = outcome.total_payment();
    settlement.winners.clear();
    for (std::size_t w = 0; w < outcome.winners.size(); ++w) {
      settlement.winners.push_back(
          WinnerSettlement{.client = outcome.winners[w],
                           .bid = batch.bids()[outcome.winners[w]],
                           .payment = outcome.payments[w],
                           .energy_cost = 1.0,
                           .dropped = false});
    }
    settled_winners += settlement.winners.size();
    const std::size_t before = g_allocations.load();
    mechanism.settle(settlement);
    settle_allocations += g_allocations.load() - before;
  }
  ASSERT_GT(settled_winners, 0u) << "no winners settled; test is vacuous";
  EXPECT_EQ(settle_allocations, 0u)
      << "settle() with winners allocated on a stateless rule";
}

}  // namespace
}  // namespace sfl::auction

// Fault-injection suite for the distributed WDP coordinator.
//
// Every scenario scripts the deterministic LoopbackTransport — dropped,
// duplicated, delayed, reordered, and corrupted replies; workers dying
// before or after accepting a request; whole-cluster loss — and asserts
// the coordinator either produces the BIT-IDENTICAL allocation and
// critical payments of the serial engine (scenario completes) or fails
// with the typed DistributedWdpError (recovery disabled). The
// misattribution cases replay stale round-t frames (delayed, duplicated, or
// left over from a failed round) into a round t+1 with identical span
// geometry, which only the per-round sequence number can reject. Plus the
// acceptance sweep: fixed-seed 200-round settled LTO markets where
// lto-vcg-dist must match lto-vcg exactly for worker counts {1, 2, 4, 7}.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "auction/random_instance.h"
#include "auction/registry.h"
#include "auction/round_scratch.h"
#include "auction/sharded_wdp.h"
#include "core/long_term_online_vcg.h"
#include "dist/distributed_wdp.h"
#include "dist/loopback_transport.h"
#include "util/rng.h"

namespace sfl::dist {
namespace {

using auction::Allocation;
using auction::CandidateBatch;
using auction::ClientId;
using auction::Penalties;
using auction::RoundScratch;
using auction::ScoreWeights;
using auction::ShardedWdp;
using auction::ShardedWdpConfig;

constexpr ScoreWeights kWeights{.value_weight = 10.0, .bid_weight = 12.5};
constexpr std::size_t kMaxWinners = 5;

CandidateBatch make_batch(std::size_t n, std::uint64_t seed,
                          bool with_ties = false) {
  sfl::util::Rng rng(seed);
  CandidateBatch batch;
  batch.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    double value = rng.uniform(0.1, 5.0);
    double bid = rng.uniform(0.05, 3.0);
    if (with_ties) {
      // Lattice draws force exact score ties across shard boundaries.
      value = 0.5 * static_cast<double>(rng.uniform_index(5));
      bid = 0.25 * static_cast<double>(rng.uniform_index(4));
    }
    batch.emplace(static_cast<ClientId>(rng.uniform_index(n)), value, bid,
                  rng.uniform(0.2, 2.0));
  }
  return batch;
}

struct SerialReference {
  Allocation allocation;
  std::vector<double> payments;
};

SerialReference serial_reference(const CandidateBatch& batch,
                                 const Penalties& penalties = {}) {
  const ShardedWdp serial{ShardedWdpConfig{.shards = 1}};
  RoundScratch scratch;
  serial.run_round(batch, kWeights, kMaxWinners, penalties, scratch);
  return SerialReference{.allocation = scratch.allocation,
                         .payments = scratch.payments};
}

/// Builds a coordinator with an injected loopback transport and hands the
/// transport back for fault scripting.
struct Harness {
  std::unique_ptr<DistributedWdp> engine;
  LoopbackTransport* transport = nullptr;
};

Harness make_harness(std::size_t workers, DistributedWdpConfig config = {}) {
  auto transport = std::make_unique<LoopbackTransport>(workers);
  LoopbackTransport* raw = transport.get();
  config.workers = workers;
  return Harness{
      .engine = std::make_unique<DistributedWdp>(config, std::move(transport)),
      .transport = raw};
}

void expect_bit_identical(const DistributedWdp& engine,
                          const CandidateBatch& batch,
                          const Penalties& penalties = {}) {
  const SerialReference reference = serial_reference(batch, penalties);
  RoundScratch scratch;
  engine.run_round(batch, kWeights, kMaxWinners, penalties, scratch);
  ASSERT_EQ(scratch.allocation.selected, reference.allocation.selected);
  ASSERT_EQ(scratch.allocation.total_score,
            reference.allocation.total_score);  // exact, not approx
  ASSERT_EQ(scratch.payments, reference.payments);
}

// ---------------------------------------------------------------------------
// Clean-path equality.
// ---------------------------------------------------------------------------

TEST(DistributedWdpTest, CleanRoundsMatchSerialForEveryWorkerCount) {
  for (const std::size_t workers : {1u, 2u, 4u, 7u}) {
    for (const std::size_t n : {1u, 3u, 7u, 40u, 257u}) {
      for (const bool ties : {false, true}) {
        const Harness h = make_harness(workers);
        SCOPED_TRACE("workers=" + std::to_string(workers) +
                     " n=" + std::to_string(n) + " ties=" +
                     std::to_string(ties));
        expect_bit_identical(*h.engine, make_batch(n, 31 * n + workers, ties));
      }
    }
  }
}

TEST(DistributedWdpTest, ExplicitShardCountsMatchSerial) {
  // Shard count and worker count vary independently; every combination
  // must merge to the serial result.
  const CandidateBatch batch = make_batch(97, 1234);
  for (const std::size_t shards : {1u, 2u, 5u, 16u}) {
    for (const std::size_t workers : {1u, 3u}) {
      const Harness h =
          make_harness(workers, DistributedWdpConfig{.shards = shards});
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " workers=" + std::to_string(workers));
      expect_bit_identical(*h.engine, batch);
    }
  }
}

TEST(DistributedWdpTest, PenaltiesCrossTheWire) {
  const std::size_t n = 64;
  const CandidateBatch batch = make_batch(n, 99);
  sfl::util::Rng rng(7);
  Penalties penalties(n);
  for (double& p : penalties) p = rng.uniform(0.0, 3.0);
  const Harness h = make_harness(3);
  expect_bit_identical(*h.engine, batch, penalties);
}

TEST(DistributedWdpTest, EmptySlateAndTinyMarkets) {
  const Harness h = make_harness(4);
  RoundScratch scratch;
  const CandidateBatch empty;
  h.engine->run_round(empty, kWeights, kMaxWinners, {}, scratch);
  EXPECT_TRUE(scratch.allocation.selected.empty());
  EXPECT_TRUE(scratch.payments.empty());
  expect_bit_identical(*h.engine, make_batch(1, 5));
  expect_bit_identical(*h.engine, make_batch(2, 6));
}

// ---------------------------------------------------------------------------
// Fault scenarios: each must still be bit-identical to serial.
// ---------------------------------------------------------------------------

TEST(DistributedWdpFaultTest, DroppedReplyIsRedispatched) {
  const CandidateBatch batch = make_batch(50, 42);
  const Harness h = make_harness(3);
  h.transport->drop_next_replies(1);
  expect_bit_identical(*h.engine, batch);
  EXPECT_GE(h.engine->last_round_stats().redispatches, 1u);
}

TEST(DistributedWdpFaultTest, AllRepliesDroppedOnceAreRedispatched) {
  const CandidateBatch batch = make_batch(50, 43);
  const Harness h = make_harness(4);
  h.transport->drop_next_replies(4);  // the entire first dispatch wave
  expect_bit_identical(*h.engine, batch);
  EXPECT_GE(h.engine->last_round_stats().redispatches, 4u);
}

TEST(DistributedWdpFaultTest, DuplicatedReplyIsIgnored) {
  const CandidateBatch batch = make_batch(50, 44);
  const Harness h = make_harness(3);
  h.transport->duplicate_next_reply();
  expect_bit_identical(*h.engine, batch);
  EXPECT_GE(h.engine->last_round_stats().ignored_replies, 1u);
}

TEST(DistributedWdpFaultTest, ReorderedRepliesMergeIdentically) {
  const CandidateBatch batch = make_batch(120, 45, /*with_ties=*/true);
  const Harness h = make_harness(5);
  h.transport->deliver_lifo(true);  // newest reply first
  expect_bit_identical(*h.engine, batch);
}

TEST(DistributedWdpFaultTest, WorkerDeathMidRoundReroutes) {
  const CandidateBatch batch = make_batch(60, 46);
  const Harness h = make_harness(3);
  // Shard 0's home worker accepts its request, never replies, and is dead
  // after. The re-dispatch advances along the shard's rendezvous order, so
  // the coordinator recovers without ever probing the corpse again.
  const std::size_t home = h.engine->home_worker(0);
  h.transport->kill_worker_after_request(home);
  expect_bit_identical(*h.engine, batch);
  EXPECT_FALSE(h.transport->worker_alive(home));
  EXPECT_GE(h.engine->last_round_stats().redispatches, 1u);
}

TEST(DistributedWdpFaultTest, DeadWorkerAtDispatchIsSkipped) {
  const CandidateBatch batch = make_batch(60, 47);
  const Harness h = make_harness(3);
  h.transport->kill_worker(1);  // send() throws; coordinator routes around
  expect_bit_identical(*h.engine, batch);
  EXPECT_GE(h.engine->last_round_stats().dead_workers, 1u);
}

TEST(DistributedWdpFaultTest, SlowShardTimesOutAndRecovers) {
  const CandidateBatch batch = make_batch(80, 48);
  const Harness h = make_harness(2);
  // The first reply only becomes deliverable after 6 further receive()
  // calls — the coordinator times out, re-dispatches, and must ignore
  // whichever copy loses the race.
  h.transport->delay_next_reply(6);
  expect_bit_identical(*h.engine, batch);
  const auto& stats = h.engine->last_round_stats();
  EXPECT_GE(stats.redispatches + stats.local_recomputes, 1u);
}

TEST(DistributedWdpFaultTest, CorruptedReplyIsRejectedNeverAccepted) {
  const CandidateBatch batch = make_batch(70, 49);
  for (const std::size_t byte_index : {5u, 17u, 40u, 100u}) {
    const Harness h = make_harness(3);
    h.transport->corrupt_next_reply(byte_index, 0x5A);
    SCOPED_TRACE("corrupt byte " + std::to_string(byte_index));
    expect_bit_identical(*h.engine, batch);
    EXPECT_GE(h.engine->last_round_stats().rejected_replies, 1u);
  }
}

TEST(DistributedWdpFaultTest, WholeClusterLossFallsBackLocally) {
  const CandidateBatch batch = make_batch(90, 50);
  const Harness h = make_harness(4);
  for (std::size_t w = 0; w < 4; ++w) h.transport->kill_worker(w);
  expect_bit_identical(*h.engine, batch);
  const auto& stats = h.engine->last_round_stats();
  EXPECT_EQ(stats.local_recomputes, h.engine->effective_shards(batch.size()));
}

TEST(DistributedWdpFaultTest, PersistentLossExhaustsAttemptsThenRecovers) {
  const CandidateBatch batch = make_batch(90, 51);
  const Harness h = make_harness(2);
  h.transport->drop_next_replies(1000);  // nothing ever arrives
  expect_bit_identical(*h.engine, batch);
  EXPECT_EQ(h.engine->last_round_stats().local_recomputes,
            h.engine->effective_shards(batch.size()));
}

TEST(DistributedWdpFaultTest, MutedHomeWorkerIsRoutedPastWithoutFallback) {
  // One-way link failure: the home worker accepts every request but its
  // replies never arrive. With local fallback DISABLED the round can only
  // succeed if re-dispatch advances to the other (healthy) worker — a
  // retry policy pinned to the home worker would throw here.
  const CandidateBatch batch = make_batch(80, 54);
  const Harness h = make_harness(2, DistributedWdpConfig{
                                        .max_attempts_per_shard = 3,
                                        .allow_local_fallback = false});
  h.transport->mute_worker(h.engine->home_worker(0));
  expect_bit_identical(*h.engine, batch);
  EXPECT_GE(h.engine->last_round_stats().redispatches, 1u);
  EXPECT_EQ(h.engine->last_round_stats().local_recomputes, 0u);
}

TEST(DistributedWdpFaultTest, UnrecoverableLossIsATypedError) {
  const CandidateBatch batch = make_batch(40, 52);
  const Harness h = make_harness(2, DistributedWdpConfig{
                                        .max_attempts_per_shard = 2,
                                        .allow_local_fallback = false});
  h.transport->drop_next_replies(1000);
  RoundScratch scratch;
  EXPECT_THROW(
      h.engine->select_top_m(batch, kWeights, kMaxWinners, {}, scratch),
      DistributedWdpError);
  // Once the transport behaves again, the SAME engine recovers: stale
  // frames are invalidated by the round sequence number.
  h.transport->clear_faults();
  expect_bit_identical(*h.engine, batch);
}

TEST(DistributedWdpFaultTest, FaultPileupStillMatchesSerial) {
  // Several faults in one round: a dead worker, a dropped reply, a
  // duplicate, LIFO delivery, and a corrupted frame.
  const CandidateBatch batch = make_batch(150, 53, /*with_ties=*/true);
  const Harness h = make_harness(4);
  h.transport->kill_worker(2);
  h.transport->deliver_lifo(true);
  h.transport->drop_next_replies(1);
  h.transport->duplicate_next_reply();
  h.transport->corrupt_next_reply(33, 0x80);
  expect_bit_identical(*h.engine, batch);
}

// ---------------------------------------------------------------------------
// Cross-round misattribution: a frame out of round t that surfaces while
// round t+1 — same n, same shard count, same span layout, so only the
// sequence number tells the two apart — is being collected is ignored.
// ---------------------------------------------------------------------------

TEST(DistributedWdpMisattributionTest, DelayedReplyFromPreviousRoundIsIgnored) {
  const Harness h = make_harness(2);
  const CandidateBatch batch_t = make_batch(40, 11);
  const CandidateBatch batch_t1 = make_batch(40, 12);  // same spans

  // Round t's shard-0 reply is delayed past round t (which recovers by
  // re-dispatch), so it surfaces during round t+1; t+1's own straggler
  // keeps its collect loop pumping until it does.
  h.transport->delay_next_reply(6);
  expect_bit_identical(*h.engine, batch_t);
  h.transport->delay_next_reply(8);
  expect_bit_identical(*h.engine, batch_t1);
  EXPECT_GE(h.engine->last_round_stats().ignored_replies, 1u);
}

TEST(DistributedWdpMisattributionTest,
     DuplicatedReplyFromPreviousRoundIsIgnored) {
  const Harness h = make_harness(2);
  const CandidateBatch batch_t = make_batch(40, 21);
  const CandidateBatch batch_t1 = make_batch(40, 22);

  // Both copies of round t's duplicated shard-0 reply arrive during t+1.
  h.transport->duplicate_next_reply();
  h.transport->delay_next_reply(6);
  expect_bit_identical(*h.engine, batch_t);
  h.transport->delay_next_reply(8);
  expect_bit_identical(*h.engine, batch_t1);
  EXPECT_GE(h.engine->last_round_stats().ignored_replies, 2u);
}

TEST(DistributedWdpMisattributionTest, FailedRoundReplyDoesNotMergeIntoNext) {
  // One attempt per shard and no fallback: round t fails on its first
  // empty receive while its delayed shard-0 reply is still in flight. That
  // reply becomes deliverable first thing in round t+1 and must be dropped.
  const Harness h = make_harness(2, DistributedWdpConfig{
                                        .max_attempts_per_shard = 1,
                                        .allow_local_fallback = false});
  const CandidateBatch batch_t = make_batch(40, 31);
  const CandidateBatch batch_t1 = make_batch(40, 32);

  h.transport->delay_next_reply(3);
  RoundScratch scratch;
  EXPECT_THROW(
      h.engine->select_top_m(batch_t, kWeights, kMaxWinners, {}, scratch),
      DistributedWdpError);
  expect_bit_identical(*h.engine, batch_t1);
  EXPECT_GE(h.engine->last_round_stats().ignored_replies, 1u);
}

// ---------------------------------------------------------------------------
// Acceptance sweep: 200-round settled LTO markets, workers {1, 2, 4, 7}.
// ---------------------------------------------------------------------------

TEST(DistributedLtoTrajectoryTest, TwoHundredRoundMarketsMatchSerialExactly) {
  constexpr std::size_t kClients = 30;
  constexpr std::size_t kRounds = 200;

  for (const std::size_t workers : {1u, 2u, 4u, 7u}) {
    SCOPED_TRACE("dist_workers=" + std::to_string(workers));
    auction::MechanismConfig config;
    config.num_clients = kClients;
    config.per_round_budget = 5.0;
    config.lto.v_weight = 8.0;
    config.lto.pacing_rate = 0.4;
    const auto serial = auction::build_mechanism("lto-vcg", config);
    config.lto.dist_workers = workers;
    const auto dist = auction::build_mechanism("lto-vcg-dist", config);

    sfl::util::Rng rng(1000 + workers);
    for (std::size_t round = 0; round < kRounds; ++round) {
      const std::size_t n = 1 + rng.uniform_index(kClients);
      std::vector<auction::Candidate> candidates;
      candidates.reserve(n);
      for (std::size_t i = 0; i < n; ++i) {
        candidates.push_back(auction::Candidate{
            .id = static_cast<ClientId>(rng.uniform_index(kClients)),
            .value = rng.uniform(0.1, 5.0),
            .bid = rng.uniform(0.05, 3.0),
            .energy_cost = rng.uniform(0.2, 2.0)});
      }
      auction::RoundContext context;
      context.round = round;
      context.max_winners = 1 + rng.uniform_index(8);
      context.per_round_budget = config.per_round_budget;

      const auction::MechanismResult reference =
          serial->run_round(candidates, context);
      const auction::MechanismResult result =
          dist->run_round(candidates, context);
      ASSERT_EQ(reference.winners, result.winners) << "round " << round;
      ASSERT_EQ(reference.payments, result.payments) << "round " << round;

      auction::RoundSettlement settlement;
      settlement.round = round;
      settlement.total_payment = reference.total_payment();
      for (std::size_t w = 0; w < reference.winners.size(); ++w) {
        settlement.winners.push_back(auction::WinnerSettlement{
            .client = reference.winners[w],
            .bid = 0.0,
            .payment = reference.payments[w],
            .energy_cost = 1.0,
            .dropped = false});
      }
      serial->settle(settlement);
      dist->settle(settlement);
    }

    auto* serial_lto =
        dynamic_cast<core::LongTermOnlineVcgMechanism*>(serial->underlying());
    auto* dist_lto =
        dynamic_cast<core::LongTermOnlineVcgMechanism*>(dist->underlying());
    ASSERT_NE(serial_lto, nullptr);
    ASSERT_NE(dist_lto, nullptr);
    ASSERT_EQ(serial_lto->budget_backlog(), dist_lto->budget_backlog());
    for (std::size_t client = 0; client < kClients; ++client) {
      ASSERT_EQ(serial_lto->sustainability_backlog(client),
                dist_lto->sustainability_backlog(client))
          << "client " << client;
    }
  }
}

TEST(DistributedLtoTrajectoryTest, AFaultEveryRoundStaysBitIdentical) {
  // 60 engine rounds, one scripted fault per round rotating through the
  // whole menu, evolving weights (as a settling LTO market produces) —
  // every round must match the serial engine bit for bit.
  auto transport = std::make_unique<LoopbackTransport>(3);
  LoopbackTransport* raw = transport.get();
  const DistributedWdp engine{DistributedWdpConfig{}, std::move(transport)};
  const ShardedWdp serial{ShardedWdpConfig{.shards = 1}};

  sfl::util::Rng rng(777);
  RoundScratch serial_scratch;
  RoundScratch dist_scratch;
  for (std::size_t round = 0; round < 60; ++round) {
    switch (round % 5) {
      case 0: raw->drop_next_replies(1); break;
      case 1: raw->duplicate_next_reply(); break;
      case 2: raw->deliver_lifo(round % 2 == 0); break;
      case 3: raw->delay_next_reply(4); break;
      case 4: raw->corrupt_next_reply(round, 0x42); break;
    }

    const std::size_t n = 1 + rng.uniform_index(120);
    const CandidateBatch batch = make_batch(n, 9000 + round, round % 3 == 0);
    // Weights drift the way a settling budget queue moves them.
    const ScoreWeights weights{
        .value_weight = 8.0,
        .bid_weight = 8.0 + rng.uniform(0.0, 6.0)};
    const std::size_t m = 1 + rng.uniform_index(8);

    serial.run_round(batch, weights, m, {}, serial_scratch);
    engine.run_round(batch, weights, m, {}, dist_scratch);
    ASSERT_EQ(serial_scratch.allocation.selected,
              dist_scratch.allocation.selected)
        << "round " << round;
    ASSERT_EQ(serial_scratch.allocation.total_score,
              dist_scratch.allocation.total_score)
        << "round " << round;
    ASSERT_EQ(serial_scratch.payments, dist_scratch.payments)
        << "round " << round;
  }
}

}  // namespace
}  // namespace sfl::dist

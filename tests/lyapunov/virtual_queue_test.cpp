#include "lyapunov/virtual_queue.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/rng.h"

namespace sfl::lyapunov {
namespace {

TEST(VirtualQueueTest, UpdateFollowsLindleyRecursion) {
  VirtualQueue q(2.0);
  EXPECT_DOUBLE_EQ(q.backlog(), 0.0);
  q.update(5.0);  // max(0 + 5 - 2, 0) = 3
  EXPECT_DOUBLE_EQ(q.backlog(), 3.0);
  q.update(0.0);  // max(3 - 2, 0) = 1
  EXPECT_DOUBLE_EQ(q.backlog(), 1.0);
  q.update(0.0);  // max(1 - 2, 0) = 0
  EXPECT_DOUBLE_EQ(q.backlog(), 0.0);
  EXPECT_EQ(q.updates(), 3u);
}

TEST(VirtualQueueTest, InitialBacklogAndReset) {
  VirtualQueue q(1.0, 4.0);
  EXPECT_DOUBLE_EQ(q.backlog(), 4.0);
  q.update(0.0);
  EXPECT_DOUBLE_EQ(q.backlog(), 3.0);
  q.reset();
  EXPECT_DOUBLE_EQ(q.backlog(), 0.0);
  EXPECT_EQ(q.updates(), 0u);
  EXPECT_DOUBLE_EQ(q.average_backlog(), 0.0);
}

TEST(VirtualQueueTest, Validation) {
  EXPECT_THROW(VirtualQueue(-1.0), std::invalid_argument);
  EXPECT_THROW(VirtualQueue(1.0, -0.5), std::invalid_argument);
  VirtualQueue q(1.0);
  EXPECT_THROW(q.update(-0.1), std::invalid_argument);
}

TEST(VirtualQueueTest, StableWhenArrivalsBelowService) {
  // Arrivals ~ U[0, 1.6] with service 1.0: queue is stable, so the
  // normalized backlog Q(t)/t must vanish.
  sfl::util::Rng rng(1);
  VirtualQueue q(1.0);
  for (int t = 0; t < 20000; ++t) {
    q.update(rng.uniform(0.0, 1.6));
  }
  EXPECT_LT(q.normalized_backlog(), 0.01);
  EXPECT_LT(q.average_backlog(), 50.0);
}

TEST(VirtualQueueTest, GrowsLinearlyWhenOverloaded) {
  // Constant arrival 2.0 against service 1.0: backlog = t exactly.
  VirtualQueue q(1.0);
  for (int t = 0; t < 1000; ++t) q.update(2.0);
  EXPECT_DOUBLE_EQ(q.backlog(), 1000.0);
  EXPECT_NEAR(q.normalized_backlog(), 1.0, 1e-12);
}

TEST(VirtualQueueTest, AverageBacklogTracksHistory) {
  VirtualQueue q(0.0);
  q.update(1.0);  // backlog 1
  q.update(1.0);  // backlog 2
  q.update(1.0);  // backlog 3
  EXPECT_DOUBLE_EQ(q.average_backlog(), 2.0);
}

TEST(QueueBankTest, IndependentPerClientQueues) {
  QueueBank bank(std::vector<double>{1.0, 2.0});
  EXPECT_EQ(bank.size(), 2u);
  bank.arrive(0, 3.0);
  bank.arrive(1, 3.0);
  bank.advance();
  EXPECT_DOUBLE_EQ(bank.backlog(0), 2.0);
  EXPECT_DOUBLE_EQ(bank.backlog(1), 1.0);
  EXPECT_DOUBLE_EQ(bank.max_backlog(), 2.0);
  EXPECT_DOUBLE_EQ(bank.total_backlog(), 3.0);
}

TEST(QueueBankTest, Validation) {
  EXPECT_THROW(QueueBank(std::vector<double>{}), std::invalid_argument);
  EXPECT_THROW(QueueBank(std::vector<double>{-1.0}), std::invalid_argument);
  QueueBank bank(std::vector<double>{1.0});
  EXPECT_THROW(bank.arrive(0, -0.5), std::invalid_argument);
  EXPECT_THROW(bank.arrive(1, 1.0), std::out_of_range);
  EXPECT_THROW((void)bank.backlog(1), std::out_of_range);
  bank.arrive(0, 1.0);
  // One arrival per queue per round: a second would be a second step.
  EXPECT_THROW(bank.arrive(0, 1.0), std::invalid_argument);
  bank.advance();
  EXPECT_NO_THROW(bank.arrive(0, 1.0));
}

TEST(QueueBankTest, PacesToServiceRates) {
  // A queue bank with rates {0.2, 0.8} driven by a threshold controller
  // (send a unit arrival whenever the backlog is at most one arrival) keeps
  // every queue bounded, so the long-run arrival rate equals the service
  // rate — exactly the pacing argument the Z_i sustainability queues use.
  QueueBank bank(std::vector<double>{0.2, 0.8});
  int wins0 = 0;
  int wins1 = 0;
  const int rounds = 5000;
  for (int t = 0; t < rounds; ++t) {
    if (bank.backlog(0) <= 1.0 + 1e-9) {
      bank.arrive(0, 1.0);
      ++wins0;
    }
    if (bank.backlog(1) <= 1.0 + 1e-9) {
      bank.arrive(1, 1.0);
      ++wins1;
    }
    bank.advance();
  }
  EXPECT_NEAR(wins0 / static_cast<double>(rounds), 0.2, 0.02);
  EXPECT_NEAR(wins1 / static_cast<double>(rounds), 0.8, 0.02);
  // Boundedness: the controller never let either backlog run away.
  EXPECT_LT(bank.max_backlog(), 3.0);
}

TEST(QueueBankTest, GatherStopsAtFirstOutOfRangeId) {
  QueueBank bank(std::vector<double>{0.5, 0.5});
  bank.arrive(1, 2.5);
  bank.advance();
  const std::vector<std::size_t> ids{1, 0, 2, 1};
  const std::vector<double> scale{2.0, 3.0, 1.0, 1.0};
  std::vector<double> out(ids.size(), -1.0);
  EXPECT_EQ(bank.scaled_backlogs(ids, scale, out), 2u);
  EXPECT_DOUBLE_EQ(out[0], 4.0);  // Z_1 = 2.5 - 0.5 = 2, times 2
  EXPECT_DOUBLE_EQ(out[1], 0.0);
  EXPECT_DOUBLE_EQ(out[2], -1.0);  // rows from the bad id on are untouched
}

// --- lazy == eager oracle ----------------------------------------------------
//
// The bank drains lazily; an array of VirtualQueues updated every round is
// the eager reference. Over seeded schedules the two must agree bit for
// bit at every read. Reproduce a failing schedule with
//   lyapunov_virtual_queue_test --seed=N

std::optional<std::uint64_t> g_fixed_seed;  // --seed=N
std::vector<std::uint64_t> g_failed_seeds;

std::uint64_t bits(double x) { return std::bit_cast<std::uint64_t>(x); }

/// Dyadic values keep the arithmetic exact, so arrivals land exactly on
/// Z = r and drains hit exactly 0; the rest exercise rounding.
double draw_amount(sfl::util::Rng& rng, double hi) {
  if (rng.bernoulli(0.5)) {
    return static_cast<double>(rng.uniform_index(17)) * 0.125;  // 0 .. 2
  }
  return rng.uniform(0.0, hi);
}

/// Compares the bank against the eager queues through backlog() and the
/// gather (random ids, repeats allowed, random scales).
void expect_matches(QueueBank& bank, const std::vector<VirtualQueue>& eager,
                    sfl::util::Rng& rng, std::size_t round) {
  const std::size_t n = eager.size();
  for (std::size_t i = 0; i < n; ++i) {
    ASSERT_EQ(bits(bank.backlog(i)), bits(eager[i].backlog()))
        << "backlog(" << i << ") at round " << round << ": "
        << bank.backlog(i) << " vs eager " << eager[i].backlog();
  }
  std::vector<std::size_t> ids(1 + rng.uniform_index(2 * n));
  std::vector<double> scale(ids.size());
  for (std::size_t k = 0; k < ids.size(); ++k) {
    ids[k] = rng.uniform_index(n);
    scale[k] = draw_amount(rng, 3.0);
  }
  std::vector<double> out(ids.size());
  ASSERT_EQ(bank.scaled_backlogs(ids, scale, out), ids.size());
  for (std::size_t k = 0; k < ids.size(); ++k) {
    ASSERT_EQ(bits(out[k]), bits(eager[ids[k]].backlog() * scale[k]))
        << "gather row " << k << " (client " << ids[k] << ") at round "
        << round;
  }
}

/// One seeded schedule: per-client win probabilities from frequent to
/// rare, idle stretches of 0-500 rounds, duplicate winners summed in
/// listing order, zero-rate queues, reads between rounds and mid-round.
void run_oracle_schedule(std::uint64_t seed) {
  SCOPED_TRACE("repro: lyapunov_virtual_queue_test --seed=" +
               std::to_string(seed));
  sfl::util::Rng rng(seed);
  const std::size_t n = 1 + rng.uniform_index(40);
  std::vector<double> rates(n);
  std::vector<double> win_probability(n);
  constexpr double kWinProbabilities[] = {0.5, 0.1, 0.02, 0.003};
  for (std::size_t i = 0; i < n; ++i) {
    rates[i] = rng.uniform_index(4) == 0 ? 0.0 : draw_amount(rng, 0.6);
    win_probability[i] = kWinProbabilities[rng.uniform_index(4)];
  }
  QueueBank bank(rates);
  std::vector<VirtualQueue> eager;
  for (const double r : rates) eager.emplace_back(r);

  std::vector<double> arrivals(n);
  std::vector<std::pair<std::size_t, double>> winners;
  std::size_t round = 0;
  while (round < 3000) {
    if (rng.bernoulli(0.01)) {
      // An idle stretch: no arrivals at all, every queue drains.
      const std::size_t gap = rng.uniform_index(501);
      for (std::size_t g = 0; g < gap; ++g, ++round) {
        for (VirtualQueue& q : eager) q.update(0.0);
        bank.advance();
      }
      expect_matches(bank, eager, rng, round);
      if (::testing::Test::HasFatalFailure()) return;
      continue;
    }

    // This round's winners, a client possibly listed more than once.
    winners.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (!rng.bernoulli(win_probability[i])) continue;
      winners.emplace_back(i, draw_amount(rng, 2.0));
      if (rng.bernoulli(0.1)) winners.emplace_back(i, draw_amount(rng, 2.0));
      if (rng.bernoulli(0.1)) {
        // Land exactly on Z = r after the step when the values are exact.
        const double target = 2.0 * rates[i] - eager[i].backlog();
        if (target >= 0.0) winners.emplace_back(i, target);
      }
    }
    rng.shuffle(winners);

    // Eager: the dense accumulator, then every queue updates.
    std::fill(arrivals.begin(), arrivals.end(), 0.0);
    for (const auto& [client, energy] : winners) arrivals[client] += energy;
    for (std::size_t i = 0; i < n; ++i) eager[i].update(arrivals[i]);

    // Lazy: one arrival per distinct winner, summed in listing order.
    for (std::size_t k = 0; k < winners.size(); ++k) {
      const std::size_t client = winners[k].first;
      bool first_listing = true;
      for (std::size_t j = 0; j < k; ++j) {
        if (winners[j].first == client) first_listing = false;
      }
      if (!first_listing) continue;
      double sum = 0.0;
      for (std::size_t j = k; j < winners.size(); ++j) {
        if (winners[j].first == client) sum += winners[j].second;
      }
      bank.arrive(client, sum);
      // Mid-round read: an arrived queue already holds its new value.
      ASSERT_EQ(bits(bank.backlog(client)), bits(eager[client].backlog()))
          << "mid-round read of client " << client << " at round " << round;
    }
    bank.advance();
    ++round;
    if (rng.bernoulli(0.3)) {
      expect_matches(bank, eager, rng, round);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
  expect_matches(bank, eager, rng, round);
}

TEST(QueueBankTest, LazyDrainMatchesEagerQueuesBitForBit) {
  const std::uint64_t first = g_fixed_seed.value_or(0);
  const std::uint64_t count = g_fixed_seed.has_value() ? 1 : 64;
  for (std::uint64_t seed = first; seed < first + count; ++seed) {
    run_oracle_schedule(seed);
    if (::testing::Test::HasFatalFailure()) {
      g_failed_seeds.push_back(seed);
      return;
    }
  }
}

}  // namespace
}  // namespace sfl::lyapunov

// Custom main: --seed=N replays one oracle schedule; a failing seed is
// echoed as a copy-pasteable repro command.
int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    constexpr std::string_view kSeedFlag = "--seed=";
    if (arg.rfind(kSeedFlag, 0) == 0) {
      sfl::lyapunov::g_fixed_seed =
          std::strtoull(arg.c_str() + kSeedFlag.size(), nullptr, 10);
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  const int result = RUN_ALL_TESTS();
  for (const std::uint64_t seed : sfl::lyapunov::g_failed_seeds) {
    std::cerr << "queue oracle failure; reproduce with:\n"
              << "  lyapunov_virtual_queue_test --seed=" << seed << "\n";
  }
  return result;
}

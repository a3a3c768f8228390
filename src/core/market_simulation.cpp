#include "core/market_simulation.h"

#include <algorithm>

#include "auction/market_batch.h"
#include "auction/registry.h"
#include "core/long_term_online_vcg.h"
#include "util/require.h"

namespace sfl::core {

using sfl::auction::CandidateBatch;
using sfl::auction::MechanismResult;
using sfl::auction::RoundContext;
using sfl::auction::RoundSettlement;
using sfl::auction::WinnerSettlement;
using sfl::util::require;

MarketResult run_market(sfl::auction::Mechanism& mechanism, const MarketSpec& spec,
                        const StrategyTable& strategies) {
  require(spec.num_clients > 0, "market needs clients");
  require(spec.rounds > 0, "market needs at least one round");
  require(strategies.empty() || strategies.size() == spec.num_clients,
          "strategies must be empty or one per client");
  if (spec.online.enabled) {
    require(spec.online.arrival_window >= 0.0 &&
                spec.online.arrival_window <= 1.0,
            "online arrival window must be in [0, 1]");
    require(spec.online.min_sojourn_fraction > 0.0 &&
                spec.online.min_sojourn_fraction <=
                    spec.online.max_sojourn_fraction,
            "online sojourn fractions need 0 < min <= max");
    require(spec.online.min_win_budget <= spec.online.max_win_budget,
            "online win budget needs min <= max");
  }

  sfl::util::Rng rng(spec.seed);
  sfl::util::Rng value_rng = rng.split();
  sfl::util::Rng cost_rng = rng.split();
  sfl::util::Rng bid_rng = rng.split();

  // Online arrival/departure windows and win budgets, drawn from a stream
  // split AFTER the value/cost/bid streams so enabling the scenario never
  // perturbs the stationary (online.enabled == false) trajectories.
  std::vector<std::size_t> arrival(spec.num_clients, 0);
  std::vector<std::size_t> departure(spec.num_clients, spec.rounds);
  std::vector<std::size_t> win_budget(spec.num_clients, 0);  // 0 = uncapped
  std::vector<std::size_t> wins_used(spec.num_clients, 0);
  if (spec.online.enabled) {
    sfl::util::Rng online_rng = rng.split();
    const double horizon = static_cast<double>(spec.rounds);
    for (std::size_t i = 0; i < spec.num_clients; ++i) {
      arrival[i] = static_cast<std::size_t>(
          online_rng.uniform(0.0, spec.online.arrival_window * horizon));
      const double sojourn_rounds =
          online_rng.uniform(spec.online.min_sojourn_fraction,
                             spec.online.max_sojourn_fraction) *
          horizon;
      departure[i] = std::min(
          spec.rounds,
          arrival[i] + std::max<std::size_t>(
                           1, static_cast<std::size_t>(sojourn_rounds)));
      if (spec.online.max_win_budget > 0) {
        const auto span = static_cast<double>(spec.online.max_win_budget -
                                              spec.online.min_win_budget);
        win_budget[i] =
            std::min(spec.online.max_win_budget,
                     spec.online.min_win_budget +
                         static_cast<std::size_t>(
                             online_rng.uniform(0.0, span + 1.0)));
      }
    }
  }

  // Static per-client values (data-size surrogate).
  std::vector<double> values(spec.num_clients);
  for (auto& v : values) {
    v = spec.valuation_scale * value_rng.lognormal(0.0, spec.value_sigma);
  }

  econ::CostModel cost_model(spec.num_clients, spec.cost, {}, cost_rng);
  econ::UtilityLedger ledger(spec.num_clients);
  econ::BudgetTracker budget(spec.per_round_budget);
  const econ::TruthfulStrategy truthful;

  MarketResult result;
  result.mechanism_name = mechanism.name();
  result.rounds = spec.rounds;
  result.welfare_series.reserve(spec.rounds);
  result.payment_series.reserve(spec.rounds);
  result.cumulative_payment_series.reserve(spec.rounds);

  // Round buffers reused across rounds (zero-allocation steady state once
  // capacities settle).
  CandidateBatch batch;
  batch.reserve(spec.num_clients);
  MechanismResult outcome;
  RoundSettlement settlement;

  // SoA slate for one round. In the stationary market every client bids, so
  // batch row i is client i; under online arrival absent (or budget-spent)
  // clients are skipped and `row_of` maps client ids back to their slate
  // rows (kNoRow when absent). Cost and bid draws happen in strict round
  // order on their dedicated RNG streams.
  constexpr std::size_t kNoRow = static_cast<std::size_t>(-1);
  std::vector<std::size_t> row_of(spec.num_clients, kNoRow);
  const auto present = [&](std::size_t client, std::size_t round) {
    if (!spec.online.enabled) return true;
    if (round < arrival[client] || round >= departure[client]) return false;
    return win_budget[client] == 0 || wins_used[client] < win_budget[client];
  };

  for (std::size_t round = 0; round < spec.rounds; ++round) {
    const std::vector<double> costs = cost_model.draw_round(cost_rng);
    batch.clear();
    for (std::size_t i = 0; i < spec.num_clients; ++i) {
      if (!present(i, round)) {
        row_of[i] = kNoRow;
        continue;
      }
      row_of[i] = batch.size();
      const econ::BiddingStrategy& strategy =
          (!strategies.empty() && strategies[i] != nullptr) ? *strategies[i]
                                                            : truthful;
      batch.emplace(i, values[i], strategy.bid(costs[i], round, bid_rng), 1.0);
    }

    RoundContext context;
    context.round = round;
    context.max_winners = spec.max_winners;
    context.per_round_budget = spec.per_round_budget;

    outcome.winners.clear();
    outcome.payments.clear();
    if (batch.empty()) {
      // Online gap round with nobody present: skip the mechanism's WDP
      // but still record and settle the (empty) round, so budget-queue
      // service keeps replenishing on the wall clock.
    } else {
      mechanism.run_round_into(batch, context, outcome);
    }

    double round_welfare = 0.0;
    settlement.round = round;
    settlement.total_payment = 0.0;
    settlement.winners.clear();
    settlement.winners.reserve(outcome.winners.size());
    for (std::size_t w = 0; w < outcome.winners.size(); ++w) {
      const std::size_t client = outcome.winners[w];
      ledger.record(econ::LedgerEntry{.round = round,
                                      .client = client,
                                      .value = values[client],
                                      .payment = outcome.payments[w],
                                      .true_cost = costs[client]});
      round_welfare += values[client] - costs[client];
      ++wins_used[client];
      settlement.winners.push_back(
          WinnerSettlement{.client = client,
                           .bid = batch.bids()[row_of[client]],
                           .payment = outcome.payments[w],
                           .energy_cost = 1.0,
                           .dropped = false});
    }
    if (spec.online.enabled) {
      result.active_clients_series.push_back(static_cast<double>(batch.size()));
    }
    const double round_payment = outcome.total_payment();
    budget.record_round(round_payment);
    settlement.total_payment = round_payment;
    result.welfare_series.push_back(round_welfare);
    result.payment_series.push_back(round_payment);
    result.cumulative_payment_series.push_back(budget.cumulative_payment());
    mechanism.settle(settlement);
  }

  result.cumulative_welfare = ledger.social_welfare();
  result.time_average_welfare =
      result.cumulative_welfare / static_cast<double>(spec.rounds);
  result.cumulative_payment = budget.cumulative_payment();
  result.average_payment = budget.average_payment();
  result.cumulative_budget_violation = budget.cumulative_violation();
  result.peak_budget_violation = budget.peak_violation();
  result.violation_round_fraction = budget.violation_round_fraction();
  result.client_utilities = ledger.utility_vector();
  result.participation_counts = ledger.participation_vector();
  result.ir_fraction = ledger.individually_rational_fraction();
  if (const auto* lto = dynamic_cast<const LongTermOnlineVcgMechanism*>(
          mechanism.underlying());
      lto != nullptr) {
    result.final_budget_backlog = lto->budget_backlog();
    result.average_budget_backlog = lto->average_budget_backlog();
  }
  if (spec.online.enabled) {
    for (std::size_t i = 0; i < spec.num_clients; ++i) {
      if (win_budget[i] > 0 && wins_used[i] >= win_budget[i]) {
        ++result.budget_exhausted_clients;
      }
    }
  }
  return result;
}

double deviation_utility(sfl::auction::Mechanism& mechanism, const MarketSpec& spec,
                         std::size_t deviator, double misreport_factor) {
  require(deviator < spec.num_clients, "deviator id out of range");
  StrategyTable strategies(spec.num_clients);
  for (auto& s : strategies) {
    s = std::make_shared<econ::TruthfulStrategy>();
  }
  strategies[deviator] =
      std::make_shared<econ::ScaledMisreportStrategy>(misreport_factor);
  const MarketResult result = run_market(mechanism, spec, strategies);
  return result.client_utilities[deviator];
}

MultiRequesterResult run_multi_requester_market(const MultiRequesterSpec& spec,
                                                const std::string& mechanism) {
  require(spec.requesters > 0, "multi-requester market needs requesters");
  require(spec.num_clients > 0, "market needs clients");
  require(spec.rounds > 0, "market needs at least one round");
  require(spec.requester_value_spread >= 0.0,
          "requester value spread must be >= 0");

  sfl::util::Rng rng(spec.seed);
  sfl::util::Rng value_rng = rng.split();
  sfl::util::Rng cost_rng = rng.split();

  // Shared client population: one base mass per client, scaled per
  // requester — everyone competes for the same people.
  std::vector<double> mass(spec.num_clients);
  for (auto& m : mass) m = value_rng.lognormal(0.0, spec.value_sigma);

  econ::CostModel cost_model(spec.num_clients, spec.cost, {}, cost_rng);

  // One LTO mechanism per requester (independent Q/Z queues and budget),
  // built from the registry key so execution variants can be swept. Each
  // must expose the external-round API: winner determination happens in the
  // shared exclusive clear below, not inside the mechanism.
  sfl::auction::MechanismConfig mconfig;
  mconfig.num_clients = spec.num_clients;
  mconfig.per_round_budget = spec.per_round_budget;
  mconfig.seed = spec.seed;
  std::vector<std::unique_ptr<sfl::auction::Mechanism>> owners;
  std::vector<LongTermOnlineVcgMechanism*> requesters;
  owners.reserve(spec.requesters);
  requesters.reserve(spec.requesters);
  for (std::size_t r = 0; r < spec.requesters; ++r) {
    owners.push_back(sfl::auction::build_mechanism(mechanism, mconfig));
    auto* requester =
        dynamic_cast<LongTermOnlineVcgMechanism*>(owners.back()->underlying());
    require(requester != nullptr && requester->supports_external_rounds(),
            "multi-requester market requires an LTO mechanism supporting "
            "external rounds (critical-value payments)");
    requesters.push_back(requester);
  }

  MultiRequesterResult result;
  result.rounds = spec.rounds;
  result.requesters = spec.requesters;
  result.requester_welfare.assign(spec.requesters, 0.0);
  result.requester_payment.assign(spec.requesters, 0.0);
  result.requester_backlog.assign(spec.requesters, 0.0);
  result.requester_wins.assign(spec.requesters, 0);
  result.welfare_series.reserve(spec.rounds);
  result.payment_series.reserve(spec.rounds);
  result.queue_series.reserve(spec.rounds);

  // Reused round buffers: per-requester slates/penalties, the exclusive
  // batch, and the settlement pipeline (allocation-free at steady
  // state once capacities settle).
  std::vector<CandidateBatch> slates(spec.requesters);
  std::vector<sfl::auction::Penalties> penalties(spec.requesters);
  for (auto& s : slates) s.reserve(spec.num_clients);
  sfl::auction::MarketBatch markets;
  markets.reserve(spec.requesters, spec.requesters * spec.num_clients);
  sfl::auction::MarketBatchResult batch_result;
  sfl::auction::RoundScratch clear_scratch;
  MechanismResult outcome;
  RoundSettlement settlement;
  std::vector<unsigned char> won_this_round(spec.num_clients, 0);

  for (std::size_t round = 0; round < spec.rounds; ++round) {
    const std::vector<double> costs = cost_model.draw_round(cost_rng);

    // Phase 1: every requester exports its round inputs against its CURRENT
    // queue state (pure observation — no round opens until commit).
    markets.clear();
    for (std::size_t r = 0; r < spec.requesters; ++r) {
      CandidateBatch& slate = slates[r];
      slate.clear();
      const double scale =
          spec.valuation_scale *
          (1.0 + static_cast<double>(r) * spec.requester_value_spread);
      for (std::size_t i = 0; i < spec.num_clients; ++i) {
        slate.emplace(i, scale * mass[i], costs[i], 1.0);  // truthful bids
      }
      const sfl::auction::ScoreWeights weights =
          requesters[r]->external_round_inputs(slate, penalties[r]);
      markets.append_market(slate, spec.max_winners, weights, penalties[r]);
    }

    // Phase 2: one exclusive clear across all requesters' markets.
    sfl::auction::clear_exclusive(markets, batch_result, clear_scratch);

    // Phase 3: commit + settle each requester (synchronously, in requester
    // order — settling r never touches r' != r's queues, so the inputs
    // exported in phase 1 stay valid for every later commit).
    double round_welfare = 0.0;
    double round_payment = 0.0;
    double round_queue = 0.0;
    std::fill(won_this_round.begin(), won_this_round.end(), 0);
    for (std::size_t r = 0; r < spec.requesters; ++r) {
      outcome.winners.clear();
      outcome.payments.clear();
      requesters[r]->commit_external_round(slates[r], batch_result.selected(r),
                                           batch_result.payments(r), outcome);

      settlement.round = round;
      settlement.winners.clear();
      settlement.winners.reserve(outcome.winners.size());
      for (std::size_t w = 0; w < outcome.winners.size(); ++w) {
        const std::size_t client = outcome.winners[w];
        if (won_this_round[client] != 0) ++result.duplicate_wins;
        won_this_round[client] = 1;
        // Slate row i is client i within each requester's market.
        result.requester_welfare[r] += slates[r].values()[client] - costs[client];
        round_welfare += slates[r].values()[client] - costs[client];
        settlement.winners.push_back(
            WinnerSettlement{.client = client,
                             .bid = costs[client],
                             .payment = outcome.payments[w],
                             .energy_cost = 1.0,
                             .dropped = false});
      }
      settlement.total_payment = outcome.total_payment();
      result.requester_payment[r] += settlement.total_payment;
      result.requester_wins[r] += outcome.winners.size();
      round_payment += settlement.total_payment;
      requesters[r]->settle(settlement);
      round_queue += requesters[r]->budget_backlog();
    }
    result.welfare_series.push_back(round_welfare);
    result.payment_series.push_back(round_payment);
    result.queue_series.push_back(round_queue);
  }

  for (std::size_t r = 0; r < spec.requesters; ++r) {
    result.requester_backlog[r] = requesters[r]->budget_backlog();
  }
  return result;
}

}  // namespace sfl::core

#include "service/market_engine.h"

#include <algorithm>
#include <tuple>

#include "core/long_term_online_vcg.h"

namespace sfl::service {

namespace {

/// The mechanism's external-round surface, or nullptr when this market must
/// clear through run_round_into. Unwraps forwarding decorators.
sfl::core::LongTermOnlineVcgMechanism* external_round_target(
    sfl::auction::Mechanism& mechanism) {
  auto* lto = dynamic_cast<sfl::core::LongTermOnlineVcgMechanism*>(
      mechanism.underlying());
  if (lto == nullptr || !lto->supports_external_rounds()) return nullptr;
  return lto;
}

/// Full-delivery settlement of a cleared round: every winner pays out, no
/// dropouts (the service has no training loop to observe dropouts from).
/// Shared verbatim by the per-round and mega-batch paths.
void settle_full_delivery(sfl::auction::Mechanism& mechanism,
                          std::uint64_t round,
                          const sfl::auction::CandidateBatch& batch,
                          const sfl::auction::MechanismResult& result) {
  sfl::auction::RoundSettlement settlement;
  settlement.round = static_cast<std::size_t>(round);
  settlement.winners.reserve(result.winners.size());
  for (std::size_t w = 0; w < result.winners.size(); ++w) {
    const sfl::auction::ClientId client = result.winners[w];
    sfl::auction::WinnerSettlement entry;
    entry.client = client;
    entry.payment = result.payments[w];
    // The batch is sorted by client id and a round's ids are unique, so a
    // linear probe finds the winner's own bid row (m and n are both small
    // per market round).
    for (std::size_t i = 0; i < batch.size(); ++i) {
      if (batch.ids()[i] == client) {
        entry.bid = batch.bids()[i];
        entry.energy_cost = batch.energy_costs()[i];
        break;
      }
    }
    entry.dropped = false;
    settlement.total_payment += entry.payment;
    settlement.winners.push_back(entry);
  }
  mechanism.settle(settlement);
}

}  // namespace

sfl::auction::MechanismConfig to_mechanism_config(
    const MarketEngineConfig& config) {
  sfl::auction::MechanismConfig mc;
  mc.num_clients = 0;  // open client population; uniform pacing stays off
  mc.per_round_budget = config.per_round_budget;
  mc.seed = config.seed;
  mc.lto.v_weight = config.v_weight;
  mc.lto.pacing_rate = 0.0;
  return mc;
}

std::unique_ptr<sfl::auction::Mechanism> build_market_mechanism(
    const MarketEngineConfig& config) {
  return sfl::auction::build_mechanism(config.mechanism,
                                       to_mechanism_config(config));
}

void clear_market_round(sfl::auction::Mechanism& mechanism,
                        const MarketEngineConfig& config, std::uint64_t round,
                        std::vector<BidRow>& rows,
                        sfl::auction::CandidateBatch& batch,
                        sfl::auction::MechanismResult& result) {
  fill_canonical_batch(rows, batch);
  sfl::auction::RoundContext context;
  context.round = static_cast<std::size_t>(round);
  context.max_winners = config.max_winners;
  context.per_round_budget = config.per_round_budget;
  mechanism.run_round_into(batch, context, result);
  settle_full_delivery(mechanism, round, batch, result);
}

void clear_market_rounds(MultiMarketClearer& clearer,
                         std::span<MarketRoundRequest> requests,
                         const MarketEngineConfig& config) {
  clearer.markets.clear();
  clearer.fast.clear();
  clearer.markets.reserve(requests.size(),
                          requests.size() * config.bids_per_round);

  for (std::size_t j = 0; j < requests.size(); ++j) {
    MarketRoundRequest& req = requests[j];
    sfl::core::LongTermOnlineVcgMechanism* lto =
        external_round_target(*req.mechanism);
    if (lto == nullptr) {
      // Fallback lane: the mechanism clears its own round the classic way.
      clear_market_round(*req.mechanism, config, req.round, *req.rows,
                         *req.batch, *req.result);
      continue;
    }
    fill_canonical_batch(*req.rows, *req.batch);
    const sfl::auction::ScoreWeights weights =
        lto->external_round_inputs(*req.batch, clearer.penalties_scratch);
    clearer.markets.append_market(*req.batch, config.max_winners, weights,
                                  clearer.penalties_scratch);
    clearer.fast.push_back(j);
  }
  if (clearer.fast.empty()) return;

  // ONE fused engine pass over every fast-lane market.
  clearer.engine.run_rounds(clearer.markets, clearer.results, clearer.scratch);

  for (std::size_t k = 0; k < clearer.fast.size(); ++k) {
    MarketRoundRequest& req = requests[clearer.fast[k]];
    sfl::core::LongTermOnlineVcgMechanism* lto =
        external_round_target(*req.mechanism);
    lto->commit_external_round(*req.batch, clearer.results.selected(k),
                               clearer.results.payments(k), *req.result);
    settle_full_delivery(*req.mechanism, req.round, *req.batch, *req.result);
  }
}

void fill_canonical_batch(std::vector<BidRow>& rows,
                          sfl::auction::CandidateBatch& batch) {
  std::sort(rows.begin(), rows.end(), [](const BidRow& a, const BidRow& b) {
    return std::tie(a.client, a.value, a.bid, a.energy_cost) <
           std::tie(b.client, b.value, b.bid, b.energy_cost);
  });
  batch.clear();
  batch.reserve(rows.size());
  for (const BidRow& row : rows) {
    batch.emplace(static_cast<sfl::auction::ClientId>(row.client), row.value,
                  row.bid, row.energy_cost);
  }
}

}  // namespace sfl::service

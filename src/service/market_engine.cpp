#include "service/market_engine.h"

#include <algorithm>
#include <tuple>

namespace sfl::service {

namespace {

/// Full-delivery settlement of a cleared round: every winner pays out, no
/// dropouts (the service has no training loop to observe dropouts from).
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

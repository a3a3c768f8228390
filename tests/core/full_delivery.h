// Test helper: the settlement of a round in which every winner delivered.
#pragma once

#include <cstddef>
#include <vector>

#include "auction/mechanism.h"

namespace sfl::core {

/// Every winner of `result` paid, with its bid and energy cost read off the
/// slate (ids index `candidates`).
inline sfl::auction::RoundSettlement full_delivery(
    const std::vector<sfl::auction::Candidate>& candidates,
    const sfl::auction::MechanismResult& result, std::size_t round) {
  sfl::auction::RoundSettlement settlement;
  settlement.round = round;
  settlement.total_payment = result.total_payment();
  for (std::size_t w = 0; w < result.winners.size(); ++w) {
    const sfl::auction::Candidate& winner = candidates[result.winners[w]];
    settlement.winners.push_back(
        sfl::auction::WinnerSettlement{.client = winner.id,
                                       .bid = winner.bid,
                                       .payment = result.payments[w],
                                       .energy_cost = winner.energy_cost,
                                       .dropped = false});
  }
  return settlement;
}

}  // namespace sfl::core

// Round-level mechanism interface (v2).
//
// A mechanism is the full auction rule: given the round's candidates (ids,
// public values, bids, energy costs) as a SoA CandidateBatch, it picks
// winners and payments. The batch is the one round input every rule
// implements; the AoS `std::vector<Candidate>` overload is a base-class
// convenience that gathers into a batch and forwards.
//
// After the round settles in the real world (payments cleared, dropouts
// known), the caller reports back via `settle(RoundSettlement)`: per-winner
// realized payments, winning bids, energy costs, and dropout flags. It is
// the one feedback path: stateful mechanisms (the long-term online VCG in
// sfl::core, the adaptive posted price) update their state there; the base
// settle() is a no-op for stateless rules.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "auction/candidate_batch.h"
#include "auction/types.h"

namespace sfl::auction {

/// Payload of the retired observe() hook. Nothing in the library reads it:
/// it and the base no-op observe() remain only so that perfbench's
/// mechanism decorator (perfbench/src/fl_harvest.cpp), which overrides and
/// forwards observe(), keeps compiling. Report round
/// outcomes through settle(RoundSettlement).
struct RoundObservation {
  std::size_t round = 0;
  double total_payment = 0.0;
  std::vector<ClientId> winners;
};

/// One auction winner's settled outcome.
struct WinnerSettlement {
  ClientId client = 0;
  double bid = 0.0;          ///< the winning bid (drives bid-proxy queues)
  double payment = 0.0;      ///< realized payment; 0 when the winner dropped
  double energy_cost = 1.0;  ///< e_i the win would drain
  bool dropped = false;      ///< failed to deliver (unpaid, did not train)
};

/// Full realized outcome of one round, reported to the mechanism after
/// payments settle. `winners` covers every auction winner including dropped
/// ones, so stateful rules can decide which flows (payments, bids, energy)
/// each queue should see.
struct RoundSettlement {
  std::size_t round = 0;
  /// Sum of realized payments (delivered winners only).
  double total_payment = 0.0;
  std::vector<WinnerSettlement> winners;

  /// Sum of winning bids over all auction winners, delivered or not — the
  /// drift objective's spend proxy.
  [[nodiscard]] double total_bid() const noexcept {
    double sum = 0.0;
    for (const WinnerSettlement& w : winners) sum += w.bid;
    return sum;
  }

  [[nodiscard]] std::size_t delivered_count() const noexcept {
    std::size_t count = 0;
    for (const WinnerSettlement& w : winners) {
      if (!w.dropped) ++count;
    }
    return count;
  }
};

/// Retired settlement-scheduling contract: settle() is always applied
/// synchronously, in round order, so kRoundOrder is the only value. Kept
/// only so perfbench's decorator, which overrides and forwards
/// settlement_ordering(), keeps compiling.
enum class SettlementOrdering {
  kRoundOrder,
};

class Mechanism {
 public:
  virtual ~Mechanism() = default;

  [[nodiscard]] virtual std::string name() const = 0;

  /// Selects winners and payments for one round. Must be deterministic given
  /// (batch, context, internal state) unless the rule is explicitly
  /// randomized (RandomSelectionMechanism).
  [[nodiscard]] virtual MechanismResult run_round(
      const CandidateBatch& batch, const RoundContext& context) = 0;

  /// AoS convenience: gathers the slate with CandidateBatch::from_aos and
  /// calls the batch overload. Mechanisms do not override it; it is virtual
  /// only because perfbench's decorator overrides it. Concrete classes
  /// re-expose it with `using Mechanism::run_round;`.
  [[nodiscard]] virtual MechanismResult run_round(
      const std::vector<Candidate>& candidates, const RoundContext& context);

  /// Steady-state entry point of the zero-allocation round pipeline: the
  /// caller owns `out` and reuses it across rounds, so a mechanism override
  /// can fill out.winners/out.payments within their existing capacity and
  /// allocate nothing after warm-up. Results must be identical to
  /// run_round(batch, context); the default adapter simply assigns its
  /// result into `out`.
  virtual void run_round_into(const CandidateBatch& batch,
                              const RoundContext& context,
                              MechanismResult& out);

  /// Reports the round's realized outcome. Default: no-op (stateless
  /// rules have nothing to update, and nothing allocates). Stateful
  /// mechanisms override this to read the full settlement.
  virtual void settle(const RoundSettlement& /*settlement*/) {}

  /// Retired predecessor of settle(): a no-op that no library mechanism
  /// overrides or calls. Kept only so perfbench's decorator, which
  /// overrides and forwards it, keeps compiling.
  virtual void observe(const RoundObservation& /*observation*/) {}

  /// Retired with SettlementOrdering: always kRoundOrder, and nothing in
  /// the library reads it. Kept only for perfbench's decorator.
  [[nodiscard]] virtual SettlementOrdering settlement_ordering() const noexcept {
    return SettlementOrdering::kRoundOrder;
  }

  /// Retired settlement barrier: every mechanism applies settle() inline,
  /// so this is a no-op that nothing in the library calls. Kept only so
  /// perfbench's decorator, which overrides and forwards it, keeps
  /// compiling.
  virtual void flush() {}

  /// The mechanism implementing the auction rule itself, unwrapping any
  /// forwarding decorator (perfbench's ProbedMechanism, test decorators).
  /// Diagnostics that downcast to a concrete rule (the orchestrator and
  /// run_market reading LTO queue backlogs) go through here so they keep
  /// working when the rule is wrapped.
  [[nodiscard]] virtual Mechanism* underlying() noexcept { return this; }
  [[nodiscard]] const Mechanism* underlying() const noexcept {
    return const_cast<Mechanism*>(this)->underlying();
  }

  /// True when bidding one's true cost is a dominant strategy under this
  /// rule (used by the property benches to label expectations).
  [[nodiscard]] virtual bool is_truthful() const noexcept = 0;
};

}  // namespace sfl::auction

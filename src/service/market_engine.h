// One auction market behind the service: its mechanism configuration and
// the canonical batch-composition rule.
//
// The service's bit-exactness contract ("a fixed-seed load-gen run over
// loopback TCP matches the in-process engine bit for bit") rests on two
// things defined HERE, shared by the server, the load generator's reference
// check, and the tests:
//
//   1. the mechanism construction: one MarketEngineConfig maps to one
//      MechanismConfig and one registry build, so server and reference run
//      the same rule with the same knobs;
//   2. the batch order: a round's bids are sorted by (ClientId asc) before
//      entering the CandidateBatch, so the slate the mechanism sees is a
//      pure function of the bid SET, never of TCP arrival interleaving.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "auction/candidate_batch.h"
#include "auction/registry.h"

namespace sfl::service {

/// Everything that determines a market's clearing behavior. The server and
/// the load generator's reference engine must agree on ALL of it.
struct MarketEngineConfig {
  /// Registry key of the auction rule (the paper mechanism by default).
  std::string mechanism = "lto-vcg";
  /// A market round clears when exactly this many bids have arrived for it.
  std::size_t bids_per_round = 32;
  std::size_t max_winners = 8;   ///< m
  double per_round_budget = 6.0;  ///< B-bar
  double v_weight = 10.0;         ///< Lyapunov V
  /// Seed for randomized rules (random-stipend).
  std::uint64_t seed = 42;
};

/// The registry config a MarketEngineConfig maps to. Sustainability pacing
/// stays off: the service's client population is open-ended, so per-client
/// Z queues would key on ids the server has not seen yet.
[[nodiscard]] sfl::auction::MechanismConfig to_mechanism_config(
    const MarketEngineConfig& config);

/// Builds the market's mechanism through the registry (throws
/// std::invalid_argument for unknown keys).
[[nodiscard]] std::unique_ptr<sfl::auction::Mechanism> build_market_mechanism(
    const MarketEngineConfig& config);

/// One decoded bid row, server-side.
struct BidRow {
  std::uint64_t client = 0;
  double value = 0.0;
  double bid = 0.0;
  double energy_cost = 1.0;
};

/// Canonical batch composition: sorts rows by (client asc, value, bid,
/// energy) and appends them to `batch` (cleared first). Every path that
/// turns a bid set into a CandidateBatch MUST go through this function.
void fill_canonical_batch(std::vector<BidRow>& rows,
                          sfl::auction::CandidateBatch& batch);

/// Clears one market round — the ONE implementation the server and the
/// load generator's reference both run, so their results can only diverge
/// if the transported bid set itself diverges. Composes the canonical
/// batch from `rows` (sorted in place), runs the round (allocation +
/// critical payments into `result`, reusing its capacity), and settles it
/// with full delivery (every winner pays out; no dropouts — the service
/// has no training loop to observe dropouts from). `batch` is the
/// market's reusable arena.
void clear_market_round(sfl::auction::Mechanism& mechanism,
                        const MarketEngineConfig& config, std::uint64_t round,
                        std::vector<BidRow>& rows,
                        sfl::auction::CandidateBatch& batch,
                        sfl::auction::MechanismResult& result);

}  // namespace sfl::service

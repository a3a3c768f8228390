// RPC messages of the persistent auction service.
//
// Three message kinds cross the client <-> auction-server boundary, all on
// the SFLD frame envelope from dist/wire_codec (magic/version/type/length/
// fnv1a64 checksum, little-endian integers, doubles as IEEE bit patterns):
//
//   SubmitBids    — client -> server: one client's bid slate, one row per
//                   (market, round) it bids into;
//   RoundResult   — server -> client: one market round's allocation and
//                   critical payments, bit-exactly what the in-process
//                   engine computed;
//   SettlementAck — server -> client: the round settled (queues updated),
//                   with the realized total payment.
//
// Decoding keeps the wire codec's defensive contract end to end: envelope
// validation (checksum BEFORE any field), bounds-checked cursor reads, then
// semantics (finite non-negative economics, energy > 0, no duplicate
// (market, round) rows or winner clients, counts bounded by the payload) —
// every violation throws the typed WireError, never crashes, and is never
// accepted. The codec fuzz suite (tests/service/codec_fuzz_test) sweeps
// every message type with a round-trip, type-confusion, mutation,
// truncation and garbage battery.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "dist/wire_codec.h"

namespace sfl::service {

using sfl::dist::Frame;
using sfl::dist::WireError;

/// Upper bound on rows in one SubmitBids slate — far above any legitimate
/// per-frame slate, low enough that a checksummed hostile frame cannot make
/// the server allocate absurd arenas.
inline constexpr std::uint64_t kMaxBidsPerSubmit = 1u << 16;
/// Upper bound on winners in one RoundResult (mirrors the slate bound).
inline constexpr std::uint64_t kMaxWinnersPerResult = 1u << 16;

/// One client's bid slate: row i bids into round `rounds[i]` of market
/// `markets[i]` with the given economics. Parallel arrays, all length
/// row_count().
struct SubmitBids {
  std::uint64_t client = 0;  ///< ClientId of the bidder
  std::vector<std::uint64_t> markets;
  std::vector<std::uint64_t> rounds;
  std::vector<double> values;        ///< v_i >= 0, finite
  std::vector<double> bids;          ///< b_i >= 0, finite
  std::vector<double> energy_costs;  ///< e_i > 0, finite

  [[nodiscard]] std::size_t row_count() const noexcept {
    return markets.size();
  }
};

/// One market round's cleared allocation: winners and their critical
/// payments, parallel arrays. Payments ship as IEEE bit patterns, so a
/// client-side reference check can compare bit-for-bit.
struct RoundResult {
  std::uint64_t market = 0;
  std::uint64_t round = 0;
  std::vector<std::uint64_t> winners;
  std::vector<double> payments;  ///< finite, >= 0
};

/// The round's settlement was applied to the market's mechanism state.
struct SettlementAck {
  std::uint64_t market = 0;
  std::uint64_t round = 0;
  double total_payment = 0.0;  ///< finite, >= 0
  std::uint64_t winner_count = 0;
};

/// Upper bound on the mechanism-key length in a ServerHello — registry keys
/// are short; anything longer is a corrupt frame.
inline constexpr std::uint64_t kMaxMechanismKeyBytes = 256;

/// Server -> client, first frame on every accepted connection: the round
/// geometry this server clears with. A client configured with a different
/// bids_per_round would fill buckets the server never clears (or vice
/// versa) — a silent hang — so the load generator checks this echo against
/// its own knobs and fails fast on any disagreement.
struct ServerHello {
  std::uint64_t bids_per_round = 0;
  std::uint64_t max_winners = 0;
  std::uint64_t max_pending_rounds = 0;
  std::string mechanism;  ///< registry key, <= kMaxMechanismKeyBytes
};

/// Encodes into `out` (cleared first; capacity reused across frames).
void encode(const SubmitBids& message, Frame& out);
void encode(const RoundResult& message, Frame& out);
void encode(const SettlementAck& message, Frame& out);
void encode(const ServerHello& message, Frame& out);

/// Full decode with envelope + structural + semantic validation. Throws
/// WireError; `out` may be left partially written on failure and must not
/// be read.
void decode(std::span<const std::byte> frame, SubmitBids& out);
void decode(std::span<const std::byte> frame, RoundResult& out);
void decode(std::span<const std::byte> frame, SettlementAck& out);
void decode(std::span<const std::byte> frame, ServerHello& out);

}  // namespace sfl::service

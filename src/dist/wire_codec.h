// The SFLD frame envelope shared by every protocol message.
//
// The auction-service RPC messages (SubmitBids / RoundResult /
// SettlementAck / ServerHello — see src/service/rpc_messages) travel in
// this envelope; their FrameType values live here so one type byte names
// every protocol message, and the shared writer/cursor/envelope helpers
// live in dist/wire_format.h.
//
// Frame layout (all integers little-endian, doubles as IEEE-754 bit
// patterns, so a frame round-trips bit-exactly across hosts):
//
//   [u32 magic "SFLD"] [u8 version] [u8 type] [u16 reserved=0]
//   [u64 payload_len]  [u64 checksum = fnv1a64(payload)]
//   [payload_len payload bytes]
//
// Decoding is defensive end to end: the header is bounds/magic/version/type
// checked, the checksum must match BEFORE any payload field is read, and
// every payload read goes through a cursor that rejects overruns — a
// corrupt or truncated frame throws WireError (a typed error), never
// crashes, and is never accepted. The codec fuzz suite
// (tests/service/codec_fuzz_test.cpp) hammers exactly this contract with
// seeded random byte mutations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <vector>

namespace sfl::dist {

/// One framed protocol message as raw bytes.
using Frame = std::vector<std::byte>;

/// Typed decode/validation failure: corrupt, truncated, or semantically
/// invalid frames are REJECTED with this error — never accepted, never UB.
class WireError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

inline constexpr std::uint32_t kWireMagic = 0x444C4653u;  // "SFLD" LE
inline constexpr std::uint8_t kWireVersion = 1;
inline constexpr std::size_t kHeaderSize = 24;
/// Upper bound a receiver enforces on payload_len before allocating —
/// rejects absurd lengths from corrupt headers (1 GiB is far above any
/// legitimate service frame).
inline constexpr std::uint64_t kMaxPayloadBytes = 1ull << 30;

/// Type bytes 1, 2, 6 and 7 belonged to a retired shard protocol; they stay
/// unassigned so a frame from an old peer is rejected, never misread.
enum class FrameType : std::uint8_t {
  // Auction-service RPC layer (src/service/rpc_messages).
  kSubmitBids = 3,
  kRoundResult = 4,
  kSettlementAck = 5,
  // Auction-service config echo (server -> client, once per connection):
  // the round-geometry knobs both sides must agree on, so a mismatched
  // client can fail fast instead of waiting on rounds that never clear.
  kServerHello = 8,
};

/// True for a type byte naming a known protocol message; the envelope
/// validator rejects everything else.
[[nodiscard]] constexpr bool frame_type_known(std::uint8_t raw) noexcept {
  switch (static_cast<FrameType>(raw)) {
    case FrameType::kSubmitBids:
    case FrameType::kRoundResult:
    case FrameType::kSettlementAck:
    case FrameType::kServerHello:
      return true;
  }
  return false;
}

/// FNV-1a 64-bit over the payload; the frame's integrity check.
[[nodiscard]] std::uint64_t fnv1a64(std::span<const std::byte> bytes) noexcept;

/// Validates the header (size, magic, version, payload length, checksum)
/// and returns the frame type. Throws WireError on any violation.
[[nodiscard]] FrameType checked_frame_type(std::span<const std::byte> frame);

}  // namespace sfl::dist

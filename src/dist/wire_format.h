// Shared building blocks of the SFLD frame format.
//
// The service RPC layer (src/service/rpc_messages) speaks the envelope
// declared in dist/wire_codec.h:
//
//   [u32 magic "SFLD"] [u8 version] [u8 type] [u16 reserved=0]
//   [u64 payload_len]  [u64 checksum = fnv1a64(payload)]
//   [payload_len payload bytes]
//
// This header owns the primitives the message codecs build on: the
// little-endian writers, the bounds-checked payload Cursor, and the
// begin/finish/validate envelope helpers. Everything here preserves the
// defensive-decoding contract — a reader can never run past a truncated or
// length-corrupted buffer, and no payload field is interpreted before the
// checksum matched.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "dist/wire_codec.h"

namespace sfl::dist::wire {

// --- little-endian writers --------------------------------------------------

void put_u64(Frame& out, std::uint64_t v);
void put_f64(Frame& out, double v);

/// Bounds-checked sequential reader over a payload. Every read that would
/// pass the end throws WireError — the decoder can never run off a
/// truncated or length-corrupted buffer.
class Cursor {
 public:
  explicit Cursor(std::span<const std::byte> bytes) : bytes_(bytes) {}

  [[nodiscard]] std::size_t remaining() const noexcept {
    return bytes_.size() - offset_;
  }

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();

  void u64_array(std::vector<std::uint64_t>& out, std::size_t count);
  void f64_array(std::vector<double>& out, std::size_t count);

  /// Throws unless every payload byte has been consumed (trailing garbage
  /// after the declared fields is corruption too).
  void expect_exhausted() const;

  /// Guards a resize(count) against a corrupt count that passed the
  /// checksum only because the whole frame is attacker-shaped: the array
  /// must actually fit in the remaining payload BEFORE allocating.
  void require_elems(std::size_t count, std::size_t elem_size) const;

 private:
  void need(std::size_t bytes) const;

  std::span<const std::byte> bytes_;
  std::size_t offset_ = 0;
};

// --- envelope ---------------------------------------------------------------

/// Clears `out` and reserves the header slot; payload writers append after
/// it (no prepend, no memmove, capacity reused across rounds).
void begin_frame(Frame& out);

/// Patches the header (magic, version, type, payload length, checksum) once
/// the payload is in place.
void finish_frame(Frame& out, FrameType type);

/// Validates the envelope (size, magic, version, known type, reserved bits,
/// payload length bound and match, checksum) and returns the frame type
/// plus the checksum-verified payload view. Throws WireError on any
/// violation.
[[nodiscard]] std::pair<FrameType, std::span<const std::byte>> checked_payload(
    std::span<const std::byte> frame);

}  // namespace sfl::dist::wire

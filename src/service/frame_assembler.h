// Incremental, bounded reassembly of SFLD frames from a byte stream.
//
// The auction server reads whatever the kernel has for a connection and
// feeds it here; the assembler buffers until a complete frame is available
// and hands frames out one at a time, under a bounded-read discipline for a
// non-blocking poll loop:
//
//   - the header's magic/version/type are checked the moment 24 bytes are
//     buffered — a stream that opens with garbage is condemned before its
//     length field is ever trusted;
//   - the declared payload length is capped (max_frame_bytes), so a hostile
//     length claim can never size an allocation;
//   - memory grows only with bytes actually received, bounded by one
//     maximum frame — a slow-loris client feeding one byte per poll tick
//     just holds a tiny buffer open and can never stall another connection.
//
// A condemned assembler stays condemned: a stream with a corrupt header can
// never be re-synchronized, so the owner must drop the connection.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "dist/wire_codec.h"

namespace sfl::service {

class FrameAssembler {
 public:
  /// `max_frame_bytes` bounds header + payload of a single frame; frames
  /// whose header claims more are a protocol violation.
  explicit FrameAssembler(std::size_t max_frame_bytes = 1u << 20);

  /// Appends received bytes. Returns false (and records why) when the
  /// stream is condemned — a bad header or an oversized length claim; no
  /// further input is accepted.
  bool feed(std::span<const std::byte> bytes);

  /// Moves the next complete frame into `out` (cleared first). Returns
  /// false when no complete frame is buffered. Call repeatedly: one feed()
  /// may complete several coalesced frames.
  bool next_frame(sfl::dist::Frame& out);

  /// True once the stream is unrecoverable; the connection must be closed.
  [[nodiscard]] bool condemned() const noexcept { return condemned_; }
  [[nodiscard]] const std::string& condemned_reason() const noexcept {
    return reason_;
  }

  /// Bytes currently buffered (monotonically bounded by one max frame).
  [[nodiscard]] std::size_t buffered_bytes() const noexcept {
    return buffer_.size() - consumed_;
  }

 private:
  void condemn(std::string reason);
  /// Drops already-extracted prefix bytes once they dominate the buffer, so
  /// steady-state memory stays at one frame, not one session.
  void compact();

  std::size_t max_frame_bytes_;
  sfl::dist::Frame buffer_;
  std::size_t consumed_ = 0;  ///< bytes of buffer_ already handed out
  bool condemned_ = false;
  std::string reason_;
};

}  // namespace sfl::service

#include "dist/wire_codec.h"

#include <bit>

#include "dist/wire_format.h"

namespace sfl::dist {

// --- shared frame-format primitives (dist/wire_format.h) --------------------

namespace wire {

void put_u64(Frame& out, std::uint64_t v) {
  for (int shift = 0; shift < 64; shift += 8) {
    out.push_back(static_cast<std::byte>((v >> shift) & 0xFF));
  }
}

void put_f64(Frame& out, double v) {
  put_u64(out, std::bit_cast<std::uint64_t>(v));
}

void Cursor::need(std::size_t bytes) const {
  if (bytes > remaining()) throw WireError("wire: payload truncated");
}

void Cursor::require_elems(std::size_t count, std::size_t elem_size) const {
  if (count > remaining() / elem_size) {
    throw WireError("wire: array length exceeds payload");
  }
}

std::uint8_t Cursor::u8() {
  need(1);
  return static_cast<std::uint8_t>(bytes_[offset_++]);
}

std::uint16_t Cursor::u16() {
  need(2);
  std::uint16_t v = 0;
  for (int i = 0; i < 2; ++i) {
    v |= static_cast<std::uint16_t>(
        static_cast<std::uint16_t>(bytes_[offset_ + i]) << (8 * i));
  }
  offset_ += 2;
  return v;
}

std::uint32_t Cursor::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(bytes_[offset_ + i]) << (8 * i);
  }
  offset_ += 4;
  return v;
}

std::uint64_t Cursor::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(bytes_[offset_ + i]) << (8 * i);
  }
  offset_ += 8;
  return v;
}

double Cursor::f64() { return std::bit_cast<double>(u64()); }

void Cursor::u64_array(std::vector<std::uint64_t>& out, std::size_t count) {
  require_elems(count, 8);
  out.resize(count);
  for (std::size_t i = 0; i < count; ++i) out[i] = u64();
}

void Cursor::f64_array(std::vector<double>& out, std::size_t count) {
  require_elems(count, 8);
  out.resize(count);
  for (std::size_t i = 0; i < count; ++i) out[i] = f64();
}

void Cursor::expect_exhausted() const {
  if (offset_ != bytes_.size()) {
    throw WireError("wire: trailing bytes after payload fields");
  }
}

namespace {

void store_u32(Frame& out, std::size_t offset, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out[offset + i] = static_cast<std::byte>((v >> (8 * i)) & 0xFF);
  }
}

void store_u64(Frame& out, std::size_t offset, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out[offset + i] = static_cast<std::byte>((v >> (8 * i)) & 0xFF);
  }
}

}  // namespace

void begin_frame(Frame& out) {
  out.clear();
  out.resize(kHeaderSize);
}

void finish_frame(Frame& out, FrameType type) {
  const std::span<const std::byte> payload{out.data() + kHeaderSize,
                                           out.size() - kHeaderSize};
  store_u32(out, 0, kWireMagic);
  out[4] = static_cast<std::byte>(kWireVersion);
  out[5] = static_cast<std::byte>(type);
  out[6] = std::byte{0};  // reserved
  out[7] = std::byte{0};
  store_u64(out, 8, payload.size());
  store_u64(out, 16, fnv1a64(payload));
}

std::pair<FrameType, std::span<const std::byte>> checked_payload(
    std::span<const std::byte> frame) {
  if (frame.size() < kHeaderSize) throw WireError("wire: frame too short");
  Cursor header(frame.first(kHeaderSize));
  if (header.u32() != kWireMagic) throw WireError("wire: bad magic");
  if (header.u8() != kWireVersion) throw WireError("wire: unknown version");
  const std::uint8_t raw_type = header.u8();
  if (!frame_type_known(raw_type)) {
    throw WireError("wire: unknown frame type");
  }
  if (header.u16() != 0) throw WireError("wire: reserved bits set");
  const std::uint64_t payload_len = header.u64();
  const std::uint64_t checksum = header.u64();
  if (payload_len > kMaxPayloadBytes) {
    throw WireError("wire: payload length exceeds limit");
  }
  if (payload_len != frame.size() - kHeaderSize) {
    throw WireError("wire: payload length does not match frame size");
  }
  const std::span<const std::byte> payload = frame.subspan(kHeaderSize);
  if (fnv1a64(payload) != checksum) throw WireError("wire: checksum mismatch");
  return {static_cast<FrameType>(raw_type), payload};
}

}  // namespace wire

// --- envelope ---------------------------------------------------------------

std::uint64_t fnv1a64(std::span<const std::byte> bytes) noexcept {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (const std::byte b : bytes) {
    hash ^= static_cast<std::uint64_t>(b);
    hash *= 0x100000001b3ull;
  }
  return hash;
}

FrameType checked_frame_type(std::span<const std::byte> frame) {
  return wire::checked_payload(frame).first;
}

}  // namespace sfl::dist

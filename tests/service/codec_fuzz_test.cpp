// Service wire-codec round-trip + fuzz suite.
//
// Round-trip: randomly generated frames of every service RPC type
// (SubmitBids, RoundResult, SettlementAck, ServerHello) must encode/decode
// to bit-identical structures (doubles compared as bit patterns).
//
// Fuzz: seeded random byte mutations of valid frames, truncations at every
// boundary class, type-confused decodes, and pure-garbage buffers must
// NEVER crash and NEVER be accepted — every corrupt input throws the typed
// WireError (length/magic/checksum/structural validation). The sweeps draw
// uniformly from all four frame kinds.
//
// Reproducing failures: every trial logs its seed; run
//   <binary> --seed=N
// to replay exactly that generated frame and its mutations. Failing seeds
// are appended to codec_fuzz_failure_seeds.txt (CI artifact), same
// protocol as the property harness. SFL_FUZZ_TRIALS overrides the trial
// count (default 1500).
#include <gtest/gtest.h>

#include <bit>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "dist/wire_codec.h"
#include "service/rpc_messages.h"
#include "util/rng.h"

namespace sfl::service {
namespace {

using sfl::dist::checked_frame_type;
using sfl::dist::FrameType;

std::optional<std::uint64_t> g_fixed_seed;  // --seed=N
std::vector<std::uint64_t> g_failed_seeds;  // written to the artifact

std::size_t fuzz_trials() {
  if (g_fixed_seed.has_value()) return 1;
  if (const char* env = std::getenv("SFL_FUZZ_TRIALS")) {
    const long parsed = std::strtol(env, nullptr, 10);
    if (parsed > 0) return static_cast<std::size_t>(parsed);
  }
  return 1500;
}

std::uint64_t trial_seed(std::size_t trial) {
  return g_fixed_seed.value_or(static_cast<std::uint64_t>(trial));
}

void record_failure(std::uint64_t seed) {
  for (const std::uint64_t s : g_failed_seeds) {
    if (s == seed) return;
  }
  g_failed_seeds.push_back(seed);
}

// ---------------------------------------------------------------------------
// Frame generators.
// ---------------------------------------------------------------------------

SubmitBids make_submit_bids(sfl::util::Rng& rng) {
  SubmitBids msg;
  msg.client = rng.uniform_index(100'000);
  const std::size_t rows = rng.uniform_index(33);  // 0..32 rows
  for (std::size_t i = 0; i < rows; ++i) {
    // (market, round) unique by construction: a 4-wide market grid walked
    // in row order.
    msg.markets.push_back(i % 4);
    msg.rounds.push_back(i / 4);
    msg.values.push_back(rng.uniform(0.0, 5.0));
    msg.bids.push_back(rng.uniform(0.0, 3.0));
    msg.energy_costs.push_back(rng.uniform(0.1, 4.0));
  }
  return msg;
}

RoundResult make_round_result(sfl::util::Rng& rng) {
  RoundResult msg;
  msg.market = rng.uniform_index(64);
  msg.round = rng.uniform_index(1'000);
  const std::size_t winners = rng.uniform_index(17);  // 0..16 winners
  const std::uint64_t base = rng.uniform_index(10'000);
  for (std::size_t i = 0; i < winners; ++i) {
    msg.winners.push_back(base + i);  // unique clients by construction
    msg.payments.push_back(rng.uniform(0.0, 4.0));
  }
  return msg;
}

SettlementAck make_settlement_ack(sfl::util::Rng& rng) {
  SettlementAck msg;
  msg.market = rng.uniform_index(64);
  msg.round = rng.uniform_index(1'000);
  msg.total_payment = rng.uniform(0.0, 40.0);
  msg.winner_count = rng.uniform_index(17);
  return msg;
}

ServerHello make_server_hello(sfl::util::Rng& rng) {
  ServerHello msg;
  msg.bids_per_round = 1 + rng.uniform_index(64);
  msg.max_winners = 1 + rng.uniform_index(16);
  msg.max_pending_rounds = 1 + rng.uniform_index(32);
  // Printable-ASCII mechanism keys up to the wire cap, empty included.
  const std::size_t key_len =
      rng.uniform_index(kMaxMechanismKeyBytes + 1);
  for (std::size_t i = 0; i < key_len; ++i) {
    msg.mechanism.push_back(
        static_cast<char>(0x20 + rng.uniform_index(0x7f - 0x20)));
  }
  return msg;
}

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

// ---------------------------------------------------------------------------
// Round-trip properties.
// ---------------------------------------------------------------------------

// The per-trial bodies live in helper functions so a fatal assertion (or a
// decode throw, caught by the trial loop) aborts only the helper — the
// loop's record_failure(seed) tail ALWAYS runs, keeping the seed artifact
// truthful on red runs.

void run_submit_bids_roundtrip_trial(std::uint64_t seed) {
  sfl::util::Rng rng(seed ^ 0xb1d5ULL);
  const SubmitBids message = make_submit_bids(rng);
  Frame frame;
  encode(message, frame);
  ASSERT_EQ(checked_frame_type(frame), FrameType::kSubmitBids);
  SubmitBids decoded;
  decode(frame, decoded);
  EXPECT_EQ(message.client, decoded.client);
  EXPECT_EQ(message.markets, decoded.markets);
  EXPECT_EQ(message.rounds, decoded.rounds);
  ASSERT_EQ(message.row_count(), decoded.row_count());
  for (std::size_t i = 0; i < message.row_count(); ++i) {
    EXPECT_TRUE(bits_equal(message.values[i], decoded.values[i])) << i;
    EXPECT_TRUE(bits_equal(message.bids[i], decoded.bids[i])) << i;
    EXPECT_TRUE(bits_equal(message.energy_costs[i], decoded.energy_costs[i]))
        << i;
  }
}

void run_round_result_roundtrip_trial(std::uint64_t seed) {
  sfl::util::Rng rng(seed ^ 0x5e55ULL);
  const RoundResult message = make_round_result(rng);
  Frame frame;
  encode(message, frame);
  ASSERT_EQ(checked_frame_type(frame), FrameType::kRoundResult);
  RoundResult decoded;
  decode(frame, decoded);
  EXPECT_EQ(message.market, decoded.market);
  EXPECT_EQ(message.round, decoded.round);
  EXPECT_EQ(message.winners, decoded.winners);
  ASSERT_EQ(message.payments.size(), decoded.payments.size());
  for (std::size_t i = 0; i < message.payments.size(); ++i) {
    EXPECT_TRUE(bits_equal(message.payments[i], decoded.payments[i])) << i;
  }
}

void run_settlement_ack_roundtrip_trial(std::uint64_t seed) {
  sfl::util::Rng rng(seed ^ 0xac4eULL);
  const SettlementAck message = make_settlement_ack(rng);
  Frame frame;
  encode(message, frame);
  ASSERT_EQ(checked_frame_type(frame), FrameType::kSettlementAck);
  SettlementAck decoded;
  decode(frame, decoded);
  EXPECT_EQ(message.market, decoded.market);
  EXPECT_EQ(message.round, decoded.round);
  EXPECT_TRUE(bits_equal(message.total_payment, decoded.total_payment));
  EXPECT_EQ(message.winner_count, decoded.winner_count);
}

void run_server_hello_roundtrip_trial(std::uint64_t seed) {
  sfl::util::Rng rng(seed ^ 0x5e77ULL);
  const ServerHello message = make_server_hello(rng);
  Frame frame;
  encode(message, frame);
  ASSERT_EQ(checked_frame_type(frame), FrameType::kServerHello);
  ServerHello decoded;
  decode(frame, decoded);
  EXPECT_EQ(message.bids_per_round, decoded.bids_per_round);
  EXPECT_EQ(message.max_winners, decoded.max_winners);
  EXPECT_EQ(message.max_pending_rounds, decoded.max_pending_rounds);
  EXPECT_EQ(message.mechanism, decoded.mechanism);
}

void run_roundtrip_loop(void (*trial)(std::uint64_t)) {
  for (std::size_t t = 0; t < fuzz_trials(); ++t) {
    const std::uint64_t seed = trial_seed(t);
    SCOPED_TRACE("repro: service_codec_fuzz_test --seed=" +
                 std::to_string(seed));
    const bool failed_before = ::testing::Test::HasFailure();
    try {
      trial(seed);
    } catch (const std::exception& e) {
      ADD_FAILURE() << "round trip threw: " << e.what();
    }
    if (!failed_before && ::testing::Test::HasFailure()) {
      record_failure(seed);
      break;
    }
  }
}

TEST(CodecRoundTripTest, SubmitBidsSurviveEncodeDecodeBitExactly) {
  run_roundtrip_loop(&run_submit_bids_roundtrip_trial);
}

TEST(CodecRoundTripTest, RoundResultsSurviveEncodeDecodeBitExactly) {
  run_roundtrip_loop(&run_round_result_roundtrip_trial);
}

TEST(CodecRoundTripTest, SettlementAcksSurviveEncodeDecodeBitExactly) {
  run_roundtrip_loop(&run_settlement_ack_roundtrip_trial);
}

TEST(CodecRoundTripTest, ServerHellosSurviveEncodeDecodeExactly) {
  run_roundtrip_loop(&run_server_hello_roundtrip_trial);
}

TEST(CodecRoundTripTest, TypeConfusionIsRejected) {
  // Every valid frame decodes only as its own type: each decoder refuses
  // each other type's frame, whatever their payload layouts share.
  sfl::util::Rng rng(4242);
  Frame submit_frame;
  Frame result_frame;
  Frame ack_frame;
  Frame hello_frame;
  encode(make_submit_bids(rng), submit_frame);
  encode(make_round_result(rng), result_frame);
  encode(make_settlement_ack(rng), ack_frame);
  encode(make_server_hello(rng), hello_frame);

  SubmitBids submit_out;
  RoundResult result_out;
  SettlementAck ack_out;
  ServerHello hello_out;
  for (const Frame* frame : {&result_frame, &ack_frame, &hello_frame}) {
    EXPECT_THROW(decode(*frame, submit_out), WireError);
  }
  for (const Frame* frame : {&submit_frame, &ack_frame, &hello_frame}) {
    EXPECT_THROW(decode(*frame, result_out), WireError);
  }
  for (const Frame* frame : {&submit_frame, &result_frame, &hello_frame}) {
    EXPECT_THROW(decode(*frame, ack_out), WireError);
  }
  for (const Frame* frame : {&submit_frame, &result_frame, &ack_frame}) {
    EXPECT_THROW(decode(*frame, hello_out), WireError);
  }
}

// ---------------------------------------------------------------------------
// Fuzz: mutated, truncated, and garbage frames.
// ---------------------------------------------------------------------------

/// Every wire type the fuzz sweeps cover.
enum class FrameKind : std::size_t {
  kSubmitBids = 0,
  kRoundResult,
  kSettlementAck,
  kServerHello,
  kCount,
};

FrameKind pick_kind(sfl::util::Rng& rng) {
  return static_cast<FrameKind>(
      rng.uniform_index(static_cast<std::uint64_t>(FrameKind::kCount)));
}

/// Encodes a freshly generated valid frame of the given kind.
void make_frame(FrameKind kind, sfl::util::Rng& rng, Frame& out) {
  switch (kind) {
    case FrameKind::kSubmitBids:
      encode(make_submit_bids(rng), out);
      return;
    case FrameKind::kRoundResult:
      encode(make_round_result(rng), out);
      return;
    case FrameKind::kSettlementAck:
      encode(make_settlement_ack(rng), out);
      return;
    case FrameKind::kServerHello:
      encode(make_server_hello(rng), out);
      return;
    case FrameKind::kCount:
      break;
  }
  ADD_FAILURE() << "unreachable frame kind";
}

/// Decodes with the decoder matching the frame's ORIGINAL kind; any
/// outcome other than WireError (acceptance, crash, foreign exception)
/// fails the trial.
void expect_rejected(const Frame& frame, FrameKind kind,
                     const std::string& what) {
  try {
    switch (kind) {
      case FrameKind::kSubmitBids: {
        SubmitBids out;
        decode(frame, out);
        break;
      }
      case FrameKind::kRoundResult: {
        RoundResult out;
        decode(frame, out);
        break;
      }
      case FrameKind::kSettlementAck: {
        SettlementAck out;
        decode(frame, out);
        break;
      }
      case FrameKind::kServerHello: {
        ServerHello out;
        decode(frame, out);
        break;
      }
      case FrameKind::kCount:
        break;
    }
    ADD_FAILURE() << what << ": corrupt frame was ACCEPTED";
  } catch (const WireError&) {
    // the only correct outcome
  } catch (const std::exception& e) {
    ADD_FAILURE() << what << ": non-typed exception: " << e.what();
  }
}

TEST(CodecFuzzTest, MutatedFramesAreNeverAccepted) {
  for (std::size_t trial = 0; trial < fuzz_trials(); ++trial) {
    const std::uint64_t seed = trial_seed(trial);
    SCOPED_TRACE("repro: service_codec_fuzz_test --seed=" +
                 std::to_string(seed));
    const bool failed_before = ::testing::Test::HasFailure();
    sfl::util::Rng rng(seed ^ 0xabadULL);

    const FrameKind kind = pick_kind(rng);
    Frame original;
    make_frame(kind, rng, original);

    // 1-8 byte mutations, each XORing a nonzero mask so the frame really
    // differs from the original.
    const std::size_t mutations = 1 + rng.uniform_index(8);
    Frame mutated = original;
    for (std::size_t m = 0; m < mutations; ++m) {
      const std::size_t index = rng.uniform_index(mutated.size());
      const auto mask =
          static_cast<unsigned char>(1 + rng.uniform_index(255));
      mutated[index] ^= static_cast<std::byte>(mask);
    }
    if (mutated != original) {
      expect_rejected(mutated, kind,
                      "mutation x" + std::to_string(mutations));
    }

    if (!failed_before && ::testing::Test::HasFailure()) {
      record_failure(seed);
      break;
    }
  }
}

TEST(CodecFuzzTest, TruncatedFramesAreNeverAccepted) {
  for (std::size_t trial = 0; trial < std::min<std::size_t>(fuzz_trials(), 200);
       ++trial) {
    const std::uint64_t seed = trial_seed(trial);
    SCOPED_TRACE("repro: service_codec_fuzz_test --seed=" +
                 std::to_string(seed));
    const bool failed_before = ::testing::Test::HasFailure();
    sfl::util::Rng rng(seed ^ 0x7acaULL);
    const FrameKind kind = pick_kind(rng);
    Frame original;
    make_frame(kind, rng, original);
    // Every prefix shorter than the full frame is corrupt by definition.
    for (std::size_t cut = 0; cut < original.size();
         cut += 1 + rng.uniform_index(7)) {
      Frame truncated(original.begin(), original.begin() + cut);
      expect_rejected(truncated, kind,
                      "truncation at " + std::to_string(cut));
    }
    if (!failed_before && ::testing::Test::HasFailure()) {
      record_failure(seed);
      break;
    }
  }
}

TEST(CodecFuzzTest, GarbageBuffersAreNeverAccepted) {
  for (std::size_t trial = 0; trial < fuzz_trials(); ++trial) {
    const std::uint64_t seed = trial_seed(trial);
    SCOPED_TRACE("repro: service_codec_fuzz_test --seed=" +
                 std::to_string(seed));
    const bool failed_before = ::testing::Test::HasFailure();
    sfl::util::Rng rng(seed ^ 0x9a5bULL);
    Frame garbage(rng.uniform_index(256));
    for (std::byte& b : garbage) {
      b = static_cast<std::byte>(rng.uniform_index(256));
    }
    expect_rejected(garbage, pick_kind(rng), "garbage buffer");
    if (!failed_before && ::testing::Test::HasFailure()) {
      record_failure(seed);
      break;
    }
  }
}

TEST(CodecFuzzTest, LengthFieldAttacksAreBounded) {
  // A frame whose header claims an absurd payload length must be rejected
  // before any allocation of that size is attempted.
  sfl::util::Rng rng(31337);
  Frame frame;
  encode(make_submit_bids(rng), frame);
  // payload_len lives at header offset 8 (little-endian u64): claim 2^62.
  for (std::size_t i = 0; i < 8; ++i) frame[8 + i] = std::byte{0};
  frame[8 + 7] = std::byte{0x40};
  expect_rejected(frame, FrameKind::kSubmitBids, "length bomb");
}

}  // namespace
}  // namespace sfl::service

// Custom main: --seed=N pins the generators to one seed for exact
// reproduction; failing seeds are persisted for the CI artifact and echoed
// with a copy-pasteable repro command (same protocol as the property
// harness).
int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    constexpr const char* kSeedFlag = "--seed=";
    if (arg.rfind(kSeedFlag, 0) == 0) {
      sfl::service::g_fixed_seed = std::strtoull(
          arg.c_str() + std::string(kSeedFlag).size(), nullptr, 10);
    }
  }
  ::testing::InitGoogleTest(&argc, argv);
  const int result = RUN_ALL_TESTS();
  if (!sfl::service::g_failed_seeds.empty()) {
    std::ofstream out("codec_fuzz_failure_seeds.txt", std::ios::app);
    std::cerr << "\ncodec fuzz failures; reproduce each with:\n";
    for (const std::uint64_t seed : sfl::service::g_failed_seeds) {
      out << seed << "\n";
      std::cerr << "  service_codec_fuzz_test --seed=" << seed << "\n";
    }
    std::cerr << "(seeds appended to codec_fuzz_failure_seeds.txt)\n";
  }
  return result;
}

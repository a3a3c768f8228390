// Integration tests for AuctionService over real loopback sockets:
// multi-client end-to-end bit-exactness against the in-process reference,
// and hostile-client containment (garbage frames, slow-loris, mid-frame
// disconnect) — each kills only its own connection. Environments that
// forbid binding localhost sockets skip instead of failing.
#include "service/auction_service.h"

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <chrono>
#include <cstring>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "dist/wire_format.h"
#include "service/frame_assembler.h"
#include "service/rpc_messages.h"
#include "service/workload.h"

namespace sfl::service {
namespace {

using sfl::dist::FrameType;

MarketEngineConfig small_engine() {
  MarketEngineConfig engine;
  engine.bids_per_round = 8;
  engine.max_winners = 3;
  return engine;
}

/// Builds the service or returns nullptr when the sandbox forbids binding.
std::unique_ptr<AuctionService> try_build_service(std::string& why,
                                                  AuctionServiceConfig config) {
  try {
    return std::make_unique<AuctionService>(std::move(config));
  } catch (const std::runtime_error& error) {
    why = error.what();
    return nullptr;
  }
}

/// A blocking test client with its own response reassembly.
struct TestClient {
  int fd = -1;
  FrameAssembler assembler;

  ~TestClient() { close(); }

  void close() {
    if (fd >= 0) {
      ::close(fd);
      fd = -1;
    }
  }

  bool connect(std::uint16_t port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
      close();
      return false;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval timeout{.tv_sec = 10, .tv_usec = 0};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    return true;
  }

  bool send_bytes(std::span<const std::byte> bytes) {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t rc = ::send(fd, bytes.data() + sent, bytes.size() - sent,
                                MSG_NOSIGNAL);
      if (rc < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      sent += static_cast<std::size_t>(rc);
    }
    return true;
  }

  bool send_bid(std::uint64_t market, std::uint64_t round, const BidRow& row) {
    SubmitBids msg;
    msg.client = row.client;
    msg.markets = {market};
    msg.rounds = {round};
    msg.values = {row.value};
    msg.bids = {row.bid};
    msg.energy_costs = {row.energy_cost};
    Frame frame;
    encode(msg, frame);
    return send_bytes(frame);
  }

  /// Blocks (bounded by SO_RCVTIMEO) until one complete frame arrives.
  std::optional<Frame> read_frame() {
    Frame out;
    if (assembler.next_frame(out)) return out;
    std::byte buffer[4096];
    while (true) {
      const ssize_t got = ::recv(fd, buffer, sizeof(buffer), 0);
      if (got <= 0) return std::nullopt;  // EOF, timeout, or error
      if (!assembler.feed(std::span<const std::byte>(
              buffer, static_cast<std::size_t>(got)))) {
        return std::nullopt;
      }
      if (assembler.next_frame(out)) return out;
    }
  }

  /// Reads until a RoundResult arrives (the connection's ServerHello and
  /// SettlementAcks pass through).
  std::optional<RoundResult> read_round_result() {
    while (true) {
      const std::optional<Frame> frame = read_frame();
      if (!frame.has_value()) return std::nullopt;
      const auto [type, payload] = sfl::dist::wire::checked_payload(*frame);
      (void)payload;
      if (type == FrameType::kSettlementAck ||
          type == FrameType::kServerHello) {
        continue;
      }
      if (type != FrameType::kRoundResult) return std::nullopt;
      RoundResult result;
      decode(*frame, result);
      return result;
    }
  }

  /// Consumes (and optionally returns) the config echo that is the first
  /// frame on every accepted connection.
  bool read_hello(ServerHello* out = nullptr) {
    const std::optional<Frame> frame = read_frame();
    if (!frame.has_value()) return false;
    try {
      ServerHello hello;
      decode(*frame, hello);
      if (out != nullptr) *out = hello;
      return true;
    } catch (const WireError&) {
      return false;
    }
  }

  /// True when the server sent this client nothing: no complete frame is
  /// buffered and no byte becomes readable within `timeout_ms`.
  bool silent_for(int timeout_ms) {
    Frame out;
    if (assembler.next_frame(out)) return false;
    pollfd pfd{.fd = fd, .events = POLLIN, .revents = 0};
    return ::poll(&pfd, 1, timeout_ms) == 0;
  }

  /// True when the server has closed this connection (EOF within the
  /// receive timeout); drains any still-buffered frames first.
  bool server_closed() {
    std::byte buffer[256];
    while (true) {
      const ssize_t got = ::recv(fd, buffer, sizeof(buffer), 0);
      if (got == 0) return true;
      if (got < 0) return false;  // timeout or error: still open
    }
  }
};

/// Drives one full round through `client` and returns the RoundResult.
std::optional<RoundResult> drive_round(TestClient& client,
                                       const WorkloadSpec& spec,
                                       std::size_t market_index,
                                       std::size_t round) {
  std::vector<BidRow> rows;
  workload_rows(spec, market_index, round, rows);
  for (const BidRow& row : rows) {
    if (!client.send_bid(spec.market_id(market_index), round, row)) {
      return std::nullopt;
    }
  }
  return client.read_round_result();
}

void expect_same_result(const RoundResult& got, const RoundResult& want) {
  EXPECT_EQ(got.market, want.market);
  EXPECT_EQ(got.round, want.round);
  EXPECT_EQ(got.winners, want.winners);
  ASSERT_EQ(got.payments.size(), want.payments.size());
  for (std::size_t i = 0; i < got.payments.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(got.payments[i]),
              std::bit_cast<std::uint64_t>(want.payments[i]))
        << "payment " << i;
  }
}

TEST(AuctionServiceTest, MultiClientRoundsMatchInProcessEngineBitExactly) {
  std::string why;
  AuctionServiceConfig config;
  config.engine = small_engine();
  auto service = try_build_service(why, config);
  if (service == nullptr) GTEST_SKIP() << why;
  service->start();

  WorkloadSpec spec;
  spec.markets = 2;
  spec.rounds_per_market = 6;
  spec.clients = 24;
  spec.bids_per_round = config.engine.bids_per_round;
  const auto reference = reference_results(spec, config.engine);

  // Three clients split every round's cohort; whoever contributed hears
  // the result, so all three must see identical bit patterns.
  std::vector<TestClient> clients(3);
  for (TestClient& client : clients) {
    ASSERT_TRUE(client.connect(service->port()));
  }
  std::vector<BidRow> rows;
  for (std::size_t r = 0; r < spec.rounds_per_market; ++r) {
    for (std::size_t m = 0; m < spec.markets; ++m) {
      workload_rows(spec, m, r, rows);
      for (std::size_t i = 0; i < rows.size(); ++i) {
        ASSERT_TRUE(clients[i % clients.size()].send_bid(spec.market_id(m), r,
                                                         rows[i]));
      }
      for (TestClient& client : clients) {
        const std::optional<RoundResult> result = client.read_round_result();
        ASSERT_TRUE(result.has_value()) << "market " << m << " round " << r;
        expect_same_result(*result, reference[m][r]);
      }
    }
  }
  service->stop();
  EXPECT_EQ(service->stats().rounds_cleared,
            spec.markets * spec.rounds_per_market);
  EXPECT_EQ(service->stats().protocol_errors, 0u);
}

/// Runs poll cycles on the calling thread until `done` holds or 5 s pass;
/// returns whether `done` held. Tests that drive the service this way own
/// every tick boundary.
template <typename Done>
bool pump_until(AuctionService& service, Done done) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (!done()) {
    if (std::chrono::steady_clock::now() >= deadline) return false;
    service.poll_once(10);
  }
  return true;
}

/// Sends every workload row of `round`, for every market of `spec`.
bool send_round(TestClient& client, const WorkloadSpec& spec,
                std::size_t round) {
  std::vector<BidRow> rows;
  for (std::size_t m = 0; m < spec.markets; ++m) {
    workload_rows(spec, m, round, rows);
    for (const BidRow& row : rows) {
      if (!client.send_bid(spec.market_id(m), round, row)) return false;
    }
  }
  return true;
}

/// Reads every round result of `spec` from `client`: each market's results
/// must arrive in strict round order (0, 1, 2, ...) and match the
/// in-process reference bit for bit.
void expect_strict_round_order(
    TestClient& client, const WorkloadSpec& spec,
    const std::vector<std::vector<RoundResult>>& reference) {
  std::vector<std::uint64_t> next_round(spec.markets, 0);
  for (std::size_t i = 0; i < spec.total_rounds(); ++i) {
    const std::optional<RoundResult> result = client.read_round_result();
    ASSERT_TRUE(result.has_value()) << "result " << i;
    ASSERT_GE(result->market, spec.first_market);
    const std::uint64_t m = result->market - spec.first_market;
    ASSERT_LT(m, spec.markets);
    ASSERT_EQ(result->round, next_round[m]) << "market " << m;
    expect_same_result(*result, reference[m][next_round[m]]);
    ++next_round[m];
  }
}

TEST(AuctionServiceTest, EarlyRoundsWaitThenClearInStrictRoundOrder) {
  // Rounds 3, 2 and 1 of each market fill before round 0 does (all within
  // max_pending_rounds): they must wait, and round 0's arrival must clear
  // the whole backlog in round order.
  std::string why;
  AuctionServiceConfig config;
  config.engine = small_engine();
  auto service = try_build_service(why, config);
  if (service == nullptr) GTEST_SKIP() << why;

  WorkloadSpec spec;
  spec.markets = 2;
  spec.rounds_per_market = 4;
  spec.clients = 24;
  spec.bids_per_round = config.engine.bids_per_round;
  const auto reference = reference_results(spec, config.engine);

  TestClient client;
  ASSERT_TRUE(client.connect(service->port()));
  ASSERT_TRUE(pump_until(
      *service, [&] { return service->stats().connections_accepted == 1; }));

  const std::size_t bids_per_round_all_markets =
      spec.markets * spec.bids_per_round;
  for (std::size_t round = 3; round >= 1; --round) {
    ASSERT_TRUE(send_round(client, spec, round));
  }
  ASSERT_TRUE(pump_until(*service, [&] {
    return service->stats().bids_received == 3 * bids_per_round_all_markets;
  }));
  EXPECT_EQ(service->stats().rounds_cleared, 0u);

  ASSERT_TRUE(send_round(client, spec, 0));
  ASSERT_TRUE(pump_until(*service, [&] {
    return service->stats().rounds_cleared == spec.total_rounds();
  }));
  expect_strict_round_order(client, spec, reference);
  EXPECT_EQ(service->stats().protocol_errors, 0u);
}

TEST(AuctionServiceTest, SeveralMarketsFillingInOneTickClearInRoundOrder) {
  // Every bid of rounds 1 and 0 (round 1 first) for four markets is sent
  // before the service runs a single tick, so one poll cycle reads them
  // all: four markets are ready at once, and each cascades into its
  // already-full round 1 within the same tick.
  std::string why;
  AuctionServiceConfig config;
  config.engine = small_engine();
  auto service = try_build_service(why, config);
  if (service == nullptr) GTEST_SKIP() << why;

  WorkloadSpec spec;
  spec.markets = 4;
  spec.rounds_per_market = 2;
  spec.clients = 24;
  spec.bids_per_round = config.engine.bids_per_round;
  const auto reference = reference_results(spec, config.engine);

  TestClient client;
  ASSERT_TRUE(client.connect(service->port()));
  ASSERT_TRUE(pump_until(
      *service, [&] { return service->stats().connections_accepted == 1; }));

  ASSERT_TRUE(send_round(client, spec, 1));
  ASSERT_TRUE(send_round(client, spec, 0));
  service->poll_once(5000);
  EXPECT_EQ(service->stats().bids_received, spec.total_bids());
  EXPECT_EQ(service->stats().rounds_cleared, spec.total_rounds());
  ASSERT_TRUE(pump_until(*service, [&] {
    return service->stats().rounds_cleared == spec.total_rounds();
  }));
  expect_strict_round_order(client, spec, reference);
  EXPECT_EQ(service->stats().protocol_errors, 0u);
}

TEST(AuctionServiceTest, GarbageFrameKillsOnlyThatConnection) {
  std::string why;
  AuctionServiceConfig config;
  config.engine = small_engine();
  auto service = try_build_service(why, config);
  if (service == nullptr) GTEST_SKIP() << why;
  service->start();

  TestClient hostile;
  TestClient honest;
  ASSERT_TRUE(hostile.connect(service->port()));
  ASSERT_TRUE(honest.connect(service->port()));

  // 32 garbage bytes: enough to complete (and fail) header validation.
  std::vector<std::byte> garbage(32, std::byte{0x5A});
  ASSERT_TRUE(hostile.send_bytes(garbage));
  EXPECT_TRUE(hostile.server_closed());

  // The honest client's rounds still clear, bit-exactly.
  WorkloadSpec spec;
  spec.markets = 1;
  spec.rounds_per_market = 2;
  spec.clients = 16;
  spec.bids_per_round = config.engine.bids_per_round;
  const auto reference = reference_results(spec, config.engine);
  for (std::size_t r = 0; r < spec.rounds_per_market; ++r) {
    const std::optional<RoundResult> result = drive_round(honest, spec, 0, r);
    ASSERT_TRUE(result.has_value()) << "round " << r;
    expect_same_result(*result, reference[0][r]);
  }
  service->stop();
  EXPECT_GE(service->stats().protocol_errors, 1u);
}

TEST(AuctionServiceTest, WellFormedNonSubmitFrameIsAProtocolViolation) {
  std::string why;
  AuctionServiceConfig config;
  config.engine = small_engine();
  auto service = try_build_service(why, config);
  if (service == nullptr) GTEST_SKIP() << why;
  service->start();

  // A checksummed, decodable RoundResult — but clients must only ever send
  // SubmitBids, so the connection dies anyway.
  TestClient confused;
  ASSERT_TRUE(confused.connect(service->port()));
  RoundResult bogus;
  bogus.market = 0;
  bogus.round = 0;
  Frame frame;
  encode(bogus, frame);
  ASSERT_TRUE(confused.send_bytes(frame));
  EXPECT_TRUE(confused.server_closed());
  service->stop();
  EXPECT_GE(service->stats().protocol_errors, 1u);
}

TEST(AuctionServiceTest, SlowLorisConnectionDoesNotStallOthers) {
  std::string why;
  AuctionServiceConfig config;
  config.engine = small_engine();
  auto service = try_build_service(why, config);
  if (service == nullptr) GTEST_SKIP() << why;
  service->start();

  TestClient loris;
  TestClient honest;
  ASSERT_TRUE(loris.connect(service->port()));
  ASSERT_TRUE(honest.connect(service->port()));

  // The slow loris: a valid frame prefix trickled a byte at a time, never
  // completed. Interleave honest rounds between trickles.
  SubmitBids msg;
  msg.client = 999;
  msg.markets = {5};
  msg.rounds = {0};
  msg.values = {1.0};
  msg.bids = {0.5};
  msg.energy_costs = {1.0};
  Frame trickle;
  encode(msg, trickle);

  WorkloadSpec spec;
  spec.markets = 1;
  spec.rounds_per_market = 3;
  spec.clients = 16;
  spec.bids_per_round = config.engine.bids_per_round;
  const auto reference = reference_results(spec, config.engine);
  for (std::size_t r = 0; r < spec.rounds_per_market; ++r) {
    ASSERT_TRUE(loris.send_bytes(
        std::span<const std::byte>(trickle.data() + r, 1)));
    const std::optional<RoundResult> result = drive_round(honest, spec, 0, r);
    ASSERT_TRUE(result.has_value()) << "round " << r;
    expect_same_result(*result, reference[0][r]);
  }
  // The loris was never dropped — slowness alone is not a violation.
  service->stop();
  EXPECT_EQ(service->stats().protocol_errors, 0u);
}

TEST(AuctionServiceTest, MidFrameDisconnectIsContained) {
  std::string why;
  AuctionServiceConfig config;
  config.engine = small_engine();
  auto service = try_build_service(why, config);
  if (service == nullptr) GTEST_SKIP() << why;
  service->start();

  TestClient goner;
  TestClient honest;
  ASSERT_TRUE(goner.connect(service->port()));
  ASSERT_TRUE(honest.connect(service->port()));

  // Half a valid frame, then a hard close.
  Frame frame;
  SubmitBids msg;
  msg.client = 1;
  msg.markets = {0};
  msg.rounds = {0};
  msg.values = {1.0};
  msg.bids = {0.5};
  msg.energy_costs = {1.0};
  encode(msg, frame);
  ASSERT_TRUE(goner.send_bytes(
      std::span<const std::byte>(frame.data(), frame.size() / 2)));
  goner.close();

  // Wait for the server to notice the EOF, then confirm honest traffic
  // still clears rounds.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (service->stats().connections_dropped == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(service->stats().connections_dropped, 1u);

  WorkloadSpec spec;
  spec.markets = 1;
  spec.rounds_per_market = 1;
  spec.clients = 16;
  spec.bids_per_round = config.engine.bids_per_round;
  const auto reference = reference_results(spec, config.engine);
  const std::optional<RoundResult> result = drive_round(honest, spec, 0, 0);
  ASSERT_TRUE(result.has_value());
  expect_same_result(*result, reference[0][0]);
  service->stop();
  // A disconnect is not a protocol violation, just a dropped connection.
  EXPECT_EQ(service->stats().protocol_errors, 0u);
}

TEST(AuctionServiceTest, StaleAndFarFutureRoundsAreViolations) {
  std::string why;
  AuctionServiceConfig config;
  config.engine = small_engine();
  config.max_pending_rounds = 4;
  auto service = try_build_service(why, config);
  if (service == nullptr) GTEST_SKIP() << why;
  service->start();

  WorkloadSpec spec;
  spec.markets = 1;
  spec.rounds_per_market = 1;
  spec.clients = 16;
  spec.bids_per_round = config.engine.bids_per_round;

  {
    // Clear round 0, then re-bid into it: stale, connection dies.
    TestClient client;
    ASSERT_TRUE(client.connect(service->port()));
    const std::optional<RoundResult> result = drive_round(client, spec, 0, 0);
    ASSERT_TRUE(result.has_value());
    BidRow row{.client = 3, .value = 1.0, .bid = 0.5, .energy_cost = 1.0};
    ASSERT_TRUE(client.send_bid(spec.market_id(0), 0, row));
    EXPECT_TRUE(client.server_closed());
  }
  {
    // A round far beyond the pending window dies immediately.
    TestClient client;
    ASSERT_TRUE(client.connect(service->port()));
    BidRow row{.client = 3, .value = 1.0, .bid = 0.5, .energy_cost = 1.0};
    ASSERT_TRUE(client.send_bid(spec.market_id(0), 1000, row));
    EXPECT_TRUE(client.server_closed());
  }
  service->stop();
  EXPECT_GE(service->stats().protocol_errors, 2u);
}

TEST(AuctionServiceTest, DisconnectedContributorIsPurgedAndNeverMisrouted) {
  std::string why;
  AuctionServiceConfig config;
  config.engine = small_engine();
  auto service = try_build_service(why, config);
  if (service == nullptr) GTEST_SKIP() << why;
  service->start();

  WorkloadSpec spec;
  spec.markets = 1;
  spec.rounds_per_market = 2;
  spec.clients = 16;
  spec.bids_per_round = config.engine.bids_per_round;
  const auto reference = reference_results(spec, config.engine);

  // `goner` seeds round 0 with one bid that is NOT part of the workload,
  // then disconnects. Its bid must be purged with it: otherwise round 0
  // clears early on a slate containing a ghost bidder.
  {
    TestClient goner;
    ASSERT_TRUE(goner.connect(service->port()));
    BidRow ghost{.client = 500, .value = 9.0, .bid = 4.0, .energy_cost = 1.0};
    ASSERT_TRUE(goner.send_bid(spec.market_id(0), 0, ghost));
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(5);
    while (service->stats().bids_received == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    ASSERT_EQ(service->stats().bids_received, 1u);
  }
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (service->stats().connections_dropped == 0 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ASSERT_EQ(service->stats().connections_dropped, 1u);

  // `bystander` connects next, making it the prime candidate to inherit
  // the goner's just-released fd from the kernel.
  TestClient bystander;
  TestClient honest;
  ASSERT_TRUE(bystander.connect(service->port()));
  ASSERT_TRUE(honest.connect(service->port()));
  // Every connection gets a config echo; consume the bystander's so the
  // misrouting check below really asserts "no ROUND traffic arrived".
  ASSERT_TRUE(bystander.read_hello());

  // The honest client's full workload slate clears round 0 bit-exactly —
  // impossible if the ghost bid still occupied a bucket slot.
  const std::optional<RoundResult> result = drive_round(honest, spec, 0, 0);
  ASSERT_TRUE(result.has_value());
  expect_same_result(*result, reference[0][0]);

  // The goner contributed to round 0, but its result must not be delivered
  // to whoever now holds its old fd.
  EXPECT_TRUE(bystander.silent_for(200));
  // And the bystander's connection is fully usable afterwards.
  const std::optional<RoundResult> next = drive_round(bystander, spec, 0, 1);
  ASSERT_TRUE(next.has_value());
  expect_same_result(*next, reference[0][1]);

  service->stop();
  EXPECT_EQ(service->stats().protocol_errors, 0u);
}

TEST(AuctionServiceTest, RejectedSlateIsAppliedTransactionally) {
  std::string why;
  AuctionServiceConfig config;
  config.engine = small_engine();
  auto service = try_build_service(why, config);
  if (service == nullptr) GTEST_SKIP() << why;
  service->start();

  // One frame, two rows: a valid round-0 bid followed by a far-future
  // round. The violation must reject the WHOLE slate — the valid first row
  // never enters any bucket.
  TestClient hostile;
  ASSERT_TRUE(hostile.connect(service->port()));
  SubmitBids slate;
  slate.client = 7;
  slate.markets = {0, 0};
  slate.rounds = {0, 1000000};
  slate.values = {1.0, 1.0};
  slate.bids = {0.5, 0.5};
  slate.energy_costs = {1.0, 1.0};
  Frame frame;
  encode(slate, frame);
  ASSERT_TRUE(hostile.send_bytes(frame));
  EXPECT_TRUE(hostile.server_closed());
  EXPECT_EQ(service->stats().bids_received, 0u);

  // Round 0 still clears bit-exactly from an honest full slate.
  WorkloadSpec spec;
  spec.markets = 1;
  spec.rounds_per_market = 1;
  spec.clients = 16;
  spec.bids_per_round = config.engine.bids_per_round;
  const auto reference = reference_results(spec, config.engine);
  TestClient honest;
  ASSERT_TRUE(honest.connect(service->port()));
  const std::optional<RoundResult> result = drive_round(honest, spec, 0, 0);
  ASSERT_TRUE(result.has_value());
  expect_same_result(*result, reference[0][0]);
  service->stop();
  EXPECT_GE(service->stats().protocol_errors, 1u);
}

TEST(AuctionServiceTest, FullBucketAndMarketCapAreBenignNotViolations) {
  std::string why;
  AuctionServiceConfig config;
  config.engine = small_engine();
  config.engine.bids_per_round = 2;
  config.max_markets = 1;
  config.max_pending_rounds = 4;
  auto service = try_build_service(why, config);
  if (service == nullptr) GTEST_SKIP() << why;
  service->start();

  // `filler` fills round 1 while round 0 is still open: full but not yet
  // clearable (strict round order).
  TestClient filler;
  ASSERT_TRUE(filler.connect(service->port()));
  ASSERT_TRUE(filler.send_bid(
      0, 1, BidRow{.client = 101, .value = 1.0, .bid = 0.5, .energy_cost = 1.0}));
  ASSERT_TRUE(filler.send_bid(
      0, 1, BidRow{.client = 102, .value = 2.0, .bid = 0.7, .energy_cost = 1.0}));

  // `racer` loses two races an honest client cannot observe: the full
  // round-1 bucket, and the max_markets cap. Both bids are ignored; the
  // connection must survive.
  TestClient racer;
  ASSERT_TRUE(racer.connect(service->port()));
  ASSERT_TRUE(racer.send_bid(
      0, 1, BidRow{.client = 103, .value = 3.0, .bid = 0.9, .energy_cost = 1.0}));
  ASSERT_TRUE(racer.send_bid(
      7, 0, BidRow{.client = 103, .value = 3.0, .bid = 0.9, .energy_cost = 1.0}));

  // The racer's connection still works: it fills round 0, which clears and
  // cascades into the already-full round 1.
  ASSERT_TRUE(racer.send_bid(
      0, 0, BidRow{.client = 104, .value = 1.5, .bid = 0.6, .energy_cost = 1.0}));
  ASSERT_TRUE(racer.send_bid(
      0, 0, BidRow{.client = 105, .value = 2.5, .bid = 0.8, .energy_cost = 1.0}));

  const std::optional<RoundResult> round0 = racer.read_round_result();
  ASSERT_TRUE(round0.has_value());
  EXPECT_EQ(round0->round, 0u);
  for (const std::uint64_t winner : round0->winners) {
    EXPECT_NE(winner, 103u) << "ignored bid must not win";
  }
  const std::optional<RoundResult> round1 = filler.read_round_result();
  ASSERT_TRUE(round1.has_value());
  EXPECT_EQ(round1->round, 1u);

  service->stop();
  EXPECT_EQ(service->stats().rounds_cleared, 2u);
  EXPECT_EQ(service->stats().protocol_errors, 0u);
}

TEST(AuctionServiceTest, ServerHelloEchoesEngineKnobsFirstOnEveryConnection) {
  // The knob-mismatch regression (satellite of PR-8): a load generator
  // configured with a different bids_per_round used to hang silently —
  // buckets never filled, rounds never cleared, nothing was ever sent.
  // The config echo makes the disagreement observable BEFORE any bid.
  std::string why;
  AuctionServiceConfig config;
  config.engine = small_engine();
  config.max_pending_rounds = 16;
  auto service = try_build_service(why, config);
  if (service == nullptr) GTEST_SKIP() << why;
  service->start();

  for (int c = 0; c < 2; ++c) {  // every connection, not just the first
    TestClient client;
    ASSERT_TRUE(client.connect(service->port()));
    ServerHello hello;
    ASSERT_TRUE(client.read_hello(&hello)) << "connection " << c;
    EXPECT_EQ(hello.bids_per_round, config.engine.bids_per_round);
    EXPECT_EQ(hello.max_winners, config.engine.max_winners);
    EXPECT_EQ(hello.max_pending_rounds, config.max_pending_rounds);
    EXPECT_EQ(hello.mechanism, config.engine.mechanism);
  }
  service->stop();
  EXPECT_EQ(service->stats().protocol_errors, 0u);
}

TEST(AuctionServiceTest, UnknownMechanismKeyThrowsBeforeAnySocketExists) {
  // The mechanism key is validated before socket()/bind(), so the throw
  // cannot leak a listening fd — and it fires even where binding is
  // forbidden, as std::invalid_argument straight from the registry.
  AuctionServiceConfig config;
  config.engine.mechanism = "no-such-mechanism";
  EXPECT_THROW(AuctionService{std::move(config)}, std::invalid_argument);
}

}  // namespace
}  // namespace sfl::service

// sfl_load_gen: open-loop load generator for the persistent auction server.
//
// Simulates a large logical client population (10k+ ids) over a small pool
// of loopback TCP connections. Bids are the deterministic workload of
// service/workload.h — a pure function of (seed, market, round, slot) —
// submitted with seeded Poisson arrival gaps (--rate, 0 = max speed), so
// the byte stream's TIMING is randomized while the bid SET is pinned. For
// each tier in --clients the generator:
//
//   1. opens --connections sockets to the server,
//   2. streams every (market, round, slot) bid as a SubmitBids frame,
//      shuffling slot order within each round block,
//   3. reads RoundResult / SettlementAck frames as rounds clear, recording
//      round latency (last bid sent for the round -> RoundResult received)
//      in a log-scale histogram,
//   4. with --verify=1, replays the same workload through the in-process
//      engine and compares winners and payments BIT FOR BIT.
//
// Tiers use disjoint market-id ranges, so each tier clears on fresh
// mechanism state. Results print as a table and, with --json=PATH, land in
// a benchmark JSON (p50/p99/p999 round latency in microseconds plus
// rounds/sec per tier). Exit codes: 0 ok, 1 verification or protocol
// failure, 2 bad usage, 3 cannot connect.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "dist/wire_format.h"
#include "service/frame_assembler.h"
#include "service/market_engine.h"
#include "service/rpc_messages.h"
#include "service/workload.h"
#include "stats/latency_histogram.h"
#include "util/rng.h"
#include "util/table.h"

namespace {

using Clock = std::chrono::steady_clock;
using sfl::dist::Frame;
using sfl::dist::FrameType;
using sfl::service::BidRow;
using sfl::service::FrameAssembler;
using sfl::service::MarketEngineConfig;
using sfl::service::RoundResult;
using sfl::service::SettlementAck;
using sfl::service::SubmitBids;
using sfl::service::WorkloadSpec;

struct Options {
  std::string host = "127.0.0.1";
  std::uint16_t port = 0;
  std::vector<std::size_t> client_tiers = {1000, 10000};
  std::size_t connections = 8;
  std::size_t markets = 4;
  std::size_t rounds = 50;
  std::size_t bids_per_round = 32;
  double rate = 0.0;  ///< aggregate bids/sec; 0 = max speed
  bool verify = true;
  std::string json_path;
  MarketEngineConfig engine{};
};

struct TierReport {
  std::size_t tier = 0;
  std::size_t clients = 0;
  double rounds_per_sec = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  double max_us = 0.0;
  bool verified = false;
};

void print_usage(std::ostream& out) {
  out << "usage: sfl_load_gen --port=P [flags]\n"
         "\n"
         "Open-loop load generator for sfl_auction_server.\n"
         "\n"
         "  --host=H             server host (default 127.0.0.1)\n"
         "  --port=P             server port (required)\n"
         "  --clients=A,B,...    logical client tiers (default 1000,10000)\n"
         "  --connections=N      TCP connections per tier (default 8)\n"
         "  --markets=M          markets per tier (default 4)\n"
         "  --rounds=R           rounds per market (default 50)\n"
         "  --bids-per-round=N   bids that clear a round (default 32)\n"
         "  --rate=X             Poisson aggregate bids/sec (0 = max speed)\n"
         "  --verify=0|1         bit-exact check vs in-process engine "
         "(default 1)\n"
         "  --json=PATH          write benchmark JSON (default: none)\n"
         "  --mechanism=KEY      registry key (default lto-vcg)\n"
         "  --winners=M --budget=B --v=V --seed=S\n"
         "                       engine knobs; MUST match the server's\n"
         "  --help               show this message and exit\n"
         "\n"
         "Exit codes: 0 ok, 1 verification/protocol failure, 2 bad usage,\n"
         "3 cannot connect.\n";
}

bool parse_u64(const std::string& arg, const char* flag, std::uint64_t& out) {
  char* end = nullptr;
  const unsigned long long value =
      std::strtoull(arg.c_str() + std::strlen(flag), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  out = value;
  return true;
}

bool parse_f64(const std::string& arg, const char* flag, double& out) {
  char* end = nullptr;
  const double value = std::strtod(arg.c_str() + std::strlen(flag), &end);
  if (end == nullptr || *end != '\0') return false;
  out = value;
  return true;
}

bool parse_tiers(const std::string& list, std::vector<std::size_t>& out) {
  out.clear();
  std::stringstream stream(list);
  std::string item;
  while (std::getline(stream, item, ',')) {
    std::uint64_t value = 0;
    if (!parse_u64(item, "", value) || value == 0) return false;
    out.push_back(static_cast<std::size_t>(value));
  }
  return !out.empty();
}

bool has_prefix(const std::string& arg, const char* prefix) {
  return arg.rfind(prefix, 0) == 0;
}

std::string flag_value(const std::string& arg, const char* prefix) {
  return arg.substr(std::strlen(prefix));
}

/// One load-gen TCP connection with its response reassembly state.
struct GenConnection {
  int fd = -1;
  FrameAssembler assembler;
};

int connect_to(const std::string& host, std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return -1;
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

/// connect_to with bounded exponential backoff: a freshly spawned server
/// may still be binding its socket when the generator starts (the smoke
/// test and real deployments launch both at once), so the first
/// ECONNREFUSED is retried for ~1.6 s (25 ms doubling to a 400 ms cap)
/// before it counts as a dead server.
int connect_with_backoff(const std::string& host, std::uint16_t port) {
  std::chrono::milliseconds delay{25};
  constexpr std::chrono::milliseconds kMaxDelay{400};
  for (int attempt = 0; attempt < 7; ++attempt) {
    const int fd = connect_to(host, port);
    if (fd >= 0) return fd;
    std::this_thread::sleep_for(delay);
    delay = std::min(delay * 2, kMaxDelay);
  }
  return connect_to(host, port);
}

/// Blocking send of a whole frame (sockets stay blocking on the send side;
/// the kernel applies natural backpressure when the server falls behind).
bool send_all(int fd, const Frame& frame) {
  std::size_t sent = 0;
  while (sent < frame.size()) {
    const ssize_t rc =
        ::send(fd, frame.data() + sent, frame.size() - sent, MSG_NOSIGNAL);
    if (rc < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(rc);
  }
  return true;
}

/// Reads the server's config echo — the FIRST frame on every accepted
/// connection — off `conn` (bounded wait). The socket is blocking, so the
/// poll bounds the wait; leftover bytes stay in the assembler for the
/// round-result stream.
bool read_server_hello(GenConnection& conn, sfl::service::ServerHello& hello,
                       std::string& error) {
  Frame frame;
  std::byte buffer[1024];
  const auto deadline = Clock::now() + std::chrono::seconds(5);
  while (!conn.assembler.next_frame(frame)) {
    if (Clock::now() > deadline) {
      error = "timed out waiting for the server's config echo (ServerHello)";
      return false;
    }
    pollfd pfd{.fd = conn.fd, .events = POLLIN, .revents = 0};
    if (::poll(&pfd, 1, 100) <= 0) continue;
    const ssize_t got = ::recv(conn.fd, buffer, sizeof(buffer), 0);
    if (got == 0) {
      error = "server closed the connection before its config echo";
      return false;
    }
    if (got < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      error = std::string("recv failed waiting for ServerHello: ") +
              std::strerror(errno);
      return false;
    }
    if (!conn.assembler.feed(std::span<const std::byte>(
            buffer, static_cast<std::size_t>(got)))) {
      error =
          "config echo stream condemned: " + conn.assembler.condemned_reason();
      return false;
    }
  }
  try {
    sfl::service::decode(frame, hello);
  } catch (const sfl::dist::WireError& e) {
    error = std::string("bad ServerHello frame: ") + e.what();
    return false;
  }
  return true;
}

/// The knob-mismatch fail-fast: a generator whose round geometry disagrees
/// with the server's would fill buckets the server never clears (or watch
/// rounds clear early) — historically a silent 30 s hang-then-timeout. The
/// server's config echo makes the disagreement detectable up front.
bool hello_matches(const sfl::service::ServerHello& hello,
                   const Options& options, std::string& error) {
  if (hello.bids_per_round != options.bids_per_round) {
    error = "server clears rounds at " + std::to_string(hello.bids_per_round) +
            " bids/round but --bids-per-round=" +
            std::to_string(options.bids_per_round) +
            " was requested; rounds would never clear. Pass --bids-per-round=" +
            std::to_string(hello.bids_per_round) +
            " or restart the server with matching knobs";
    return false;
  }
  if (hello.mechanism != options.engine.mechanism) {
    error = "server runs mechanism '" + hello.mechanism +
            "' but --mechanism=" + options.engine.mechanism +
            " was requested; --verify would compare different auction rules. "
            "Pass --mechanism=" + hello.mechanism +
            " or restart the server with matching knobs";
    return false;
  }
  if (hello.max_winners != options.engine.max_winners) {
    error = "server awards " + std::to_string(hello.max_winners) +
            " winners/round but --winners=" +
            std::to_string(options.engine.max_winners) +
            " was requested; --verify would diverge. Pass --winners=" +
            std::to_string(hello.max_winners) +
            " or restart the server with matching knobs";
    return false;
  }
  return true;
}

/// Everything one tier run accumulates from the response streams.
struct TierState {
  std::vector<std::vector<char>> received;  ///< [market_index][round]
  std::vector<std::vector<RoundResult>> results;
  std::vector<std::uint64_t> cleared_through;  ///< per market, rounds done
  std::vector<std::vector<Clock::time_point>> last_send;
  sfl::stats::LatencyHistogram latency;  ///< microseconds
  std::size_t rounds_received = 0;
  Clock::time_point last_receipt{};
  std::string error;
};

/// Drains whatever responses are readable across all connections.
/// Returns false (with state.error set) on any protocol violation.
bool drain_responses(std::vector<GenConnection>& conns,
                     const WorkloadSpec& spec, TierState& state,
                     int timeout_ms) {
  std::vector<pollfd> pfds;
  pfds.reserve(conns.size());
  for (const GenConnection& conn : conns) {
    pfds.push_back(pollfd{.fd = conn.fd, .events = POLLIN, .revents = 0});
  }
  const int ready = ::poll(pfds.data(), pfds.size(), timeout_ms);
  if (ready <= 0) return true;

  Frame frame;
  RoundResult result;
  SettlementAck ack;
  std::byte buffer[4096];
  for (std::size_t c = 0; c < conns.size(); ++c) {
    if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    GenConnection& conn = conns[c];
    const ssize_t got = ::recv(conn.fd, buffer, sizeof(buffer), MSG_DONTWAIT);
    if (got == 0) {
      state.error = "server closed connection " + std::to_string(c);
      return false;
    }
    if (got < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) continue;
      state.error = "recv failed on connection " + std::to_string(c) + ": " +
                    std::strerror(errno);
      return false;
    }
    if (!conn.assembler.feed(
            std::span<const std::byte>(buffer, static_cast<std::size_t>(got)))) {
      state.error = "response stream condemned: " +
                    conn.assembler.condemned_reason();
      return false;
    }
    while (conn.assembler.next_frame(frame)) {
      try {
        const auto [type, payload] = sfl::dist::wire::checked_payload(frame);
        (void)payload;
        if (type == FrameType::kRoundResult) {
          sfl::service::decode(frame, result);
          if (result.market < spec.first_market ||
              result.market >= spec.first_market + spec.markets ||
              result.round >= spec.rounds_per_market) {
            state.error = "RoundResult for unknown (market, round)";
            return false;
          }
          const auto m =
              static_cast<std::size_t>(result.market - spec.first_market);
          const auto r = static_cast<std::size_t>(result.round);
          if (state.received[m][r] != 0) continue;  // duplicate contributor
          state.received[m][r] = 1;
          state.results[m][r] = result;
          while (state.cleared_through[m] < spec.rounds_per_market &&
                 state.received[m][state.cleared_through[m]] != 0) {
            ++state.cleared_through[m];
          }
          const auto now = Clock::now();
          state.latency.record(
              std::chrono::duration<double, std::micro>(
                  now - state.last_send[m][r])
                  .count());
          state.last_receipt = now;
          ++state.rounds_received;
        } else if (type == FrameType::kSettlementAck) {
          sfl::service::decode(frame, ack);  // validated, content unused
        } else {
          state.error = "unexpected frame type from server";
          return false;
        }
      } catch (const sfl::dist::WireError& error) {
        state.error = std::string("bad server frame: ") + error.what();
        return false;
      }
    }
    if (conn.assembler.condemned()) {
      state.error = "response stream condemned: " +
                    conn.assembler.condemned_reason();
      return false;
    }
  }
  return true;
}

bool bits_equal(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

/// Compares the server's results against the in-process reference, bit for
/// bit. Prints the first divergence found.
bool verify_results(const WorkloadSpec& spec, const MarketEngineConfig& engine,
                    const std::vector<std::vector<RoundResult>>& got) {
  const std::vector<std::vector<RoundResult>> want =
      sfl::service::reference_results(spec, engine);
  for (std::size_t m = 0; m < spec.markets; ++m) {
    for (std::size_t r = 0; r < spec.rounds_per_market; ++r) {
      const RoundResult& g = got[m][r];
      const RoundResult& w = want[m][r];
      bool same = g.winners == w.winners &&
                  g.payments.size() == w.payments.size();
      for (std::size_t i = 0; same && i < g.payments.size(); ++i) {
        same = bits_equal(g.payments[i], w.payments[i]);
      }
      if (!same) {
        std::cerr << "sfl_load_gen: VERIFY FAILED at market "
                  << spec.market_id(m) << " round " << r << " (server "
                  << g.winners.size() << " winners, reference "
                  << w.winners.size() << ")\n";
        return false;
      }
    }
  }
  return true;
}

bool run_tier(const Options& options, std::size_t tier_index,
              std::size_t tier_clients, TierReport& report) {
  WorkloadSpec spec;
  spec.seed = options.engine.seed;
  spec.first_market = tier_index * options.markets;
  spec.markets = options.markets;
  spec.rounds_per_market = options.rounds;
  spec.clients = tier_clients;
  spec.bids_per_round = options.bids_per_round;

  std::vector<GenConnection> conns(options.connections);
  for (std::size_t c = 0; c < conns.size(); ++c) {
    conns[c].fd = connect_with_backoff(options.host, options.port);
    if (conns[c].fd < 0) {
      std::cerr << "sfl_load_gen: cannot connect to " << options.host << ":"
                << options.port << "\n";
      for (GenConnection& conn : conns) {
        if (conn.fd >= 0) ::close(conn.fd);
      }
      return false;
    }
  }

  // Consume every connection's config echo and fail fast on a knob
  // mismatch — BEFORE a single bid is sent.
  for (std::size_t c = 0; c < conns.size(); ++c) {
    sfl::service::ServerHello hello;
    std::string error;
    if (!read_server_hello(conns[c], hello, error) ||
        !hello_matches(hello, options, error)) {
      std::cerr << "sfl_load_gen: " << error << "\n";
      for (GenConnection& conn : conns) {
        if (conn.fd >= 0) ::close(conn.fd);
      }
      return false;
    }
  }

  TierState state;
  state.received.assign(spec.markets,
                        std::vector<char>(spec.rounds_per_market, 0));
  state.results.assign(spec.markets,
                       std::vector<RoundResult>(spec.rounds_per_market));
  state.cleared_through.assign(spec.markets, 0);
  state.last_send.assign(
      spec.markets,
      std::vector<Clock::time_point>(spec.rounds_per_market));

  // Pre-generate every round's rows so send-side work is pure I/O.
  std::vector<std::vector<std::vector<BidRow>>> rows(spec.markets);
  for (std::size_t m = 0; m < spec.markets; ++m) {
    rows[m].resize(spec.rounds_per_market);
    for (std::size_t r = 0; r < spec.rounds_per_market; ++r) {
      sfl::service::workload_rows(spec, m, r, rows[m][r]);
    }
  }

  // Arrival-order shuffles and Poisson gaps come from a stream separate
  // from the economics, so --rate never changes the bid set.
  std::uint64_t arrival_state = spec.seed ^ 0xa5a5a5a5a5a5a5a5ULL;
  sfl::util::Rng arrival_rng(sfl::util::splitmix64(arrival_state) +
                             tier_index);
  SubmitBids submit;
  submit.markets.resize(1);
  submit.rounds.resize(1);
  submit.values.resize(1);
  submit.bids.resize(1);
  submit.energy_costs.resize(1);
  Frame frame;

  // Keep well inside the server's pending-round window (64): stop sending
  // ahead when any market has this many uncleared rounds in flight.
  constexpr std::uint64_t kMaxRoundsAhead = 48;

  bool failed = false;
  const auto start = Clock::now();
  std::vector<std::pair<std::size_t, std::size_t>> events;  // (market, slot)
  std::vector<std::size_t> sent_in_round(spec.markets, 0);
  for (std::size_t r = 0; r < spec.rounds_per_market && !failed; ++r) {
    events.clear();
    for (std::size_t m = 0; m < spec.markets; ++m) {
      sent_in_round[m] = 0;
      for (std::size_t slot = 0; slot < spec.bids_per_round; ++slot) {
        events.emplace_back(m, slot);
      }
    }
    arrival_rng.shuffle(events);
    for (const auto& [m, slot] : events) {
      // Open-loop with a window guard: only throttle when the server is a
      // full pending window behind, which a healthy server never is.
      const auto guard_start = Clock::now();
      while (r >= state.cleared_through[m] + kMaxRoundsAhead) {
        if (!drain_responses(conns, spec, state, /*timeout_ms=*/50)) {
          failed = true;
          break;
        }
        if (Clock::now() - guard_start > std::chrono::seconds(30)) {
          state.error = "server stopped clearing rounds (window guard)";
          failed = true;
          break;
        }
      }
      if (failed) break;
      const BidRow& row = rows[m][r][slot];
      submit.client = row.client;
      submit.markets[0] = spec.market_id(m);
      submit.rounds[0] = r;
      submit.values[0] = row.value;
      submit.bids[0] = row.bid;
      submit.energy_costs[0] = row.energy_cost;
      sfl::service::encode(submit, frame);
      GenConnection& conn = conns[row.client % conns.size()];
      if (!send_all(conn.fd, frame)) {
        state.error = "send failed: " + std::string(std::strerror(errno));
        failed = true;
        break;
      }
      if (++sent_in_round[m] == spec.bids_per_round) {
        state.last_send[m][r] = Clock::now();
      }
      if (options.rate > 0.0) {
        std::this_thread::sleep_for(std::chrono::duration<double>(
            arrival_rng.exponential(options.rate)));
      }
    }
    // Opportunistic drain between round blocks keeps response queues short.
    if (!failed && !drain_responses(conns, spec, state, /*timeout_ms=*/0)) {
      failed = true;
    }
  }

  // Collect the tail: every round must clear, or the run is a failure.
  state.last_receipt = Clock::now();
  while (!failed && state.rounds_received < spec.total_rounds()) {
    if (!drain_responses(conns, spec, state, /*timeout_ms=*/100)) {
      failed = true;
      break;
    }
    if (Clock::now() - state.last_receipt > std::chrono::seconds(30)) {
      state.error = "timed out waiting for round results (" +
                    std::to_string(state.rounds_received) + "/" +
                    std::to_string(spec.total_rounds()) + ")";
      failed = true;
    }
  }
  const auto elapsed =
      std::chrono::duration<double>(Clock::now() - start).count();

  for (GenConnection& conn : conns) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
  if (failed) {
    std::cerr << "sfl_load_gen: tier " << tier_index
              << " failed: " << state.error << "\n";
    return false;
  }

  report.tier = tier_index;
  report.clients = tier_clients;
  report.rounds_per_sec =
      elapsed > 0.0 ? static_cast<double>(spec.total_rounds()) / elapsed : 0.0;
  report.p50_us = state.latency.quantile(0.50);
  report.p99_us = state.latency.quantile(0.99);
  report.p999_us = state.latency.quantile(0.999);
  report.max_us = state.latency.max();
  const bool check_ok =
      !options.verify || verify_results(spec, options.engine, state.results);
  report.verified = options.verify && check_ok;
  return check_ok;
}

void write_json(const Options& options, const std::vector<TierReport>& reports,
                std::ostream& out) {
  out << "{\n  \"bench\": \"service\",\n  \"entries\": [\n";
  for (std::size_t i = 0; i < reports.size(); ++i) {
    const TierReport& tier = reports[i];
    out << "    {\"tier\": " << tier.tier << ", \"clients\": " << tier.clients
        << ", \"connections\": " << options.connections
        << ", \"markets\": " << options.markets
        << ", \"rounds\": " << options.rounds
        << ", \"bids_per_round\": " << options.bids_per_round
        << ", \"rounds_per_sec\": " << tier.rounds_per_sec
        << ", \"p50_us\": " << tier.p50_us << ", \"p99_us\": " << tier.p99_us
        << ", \"p999_us\": " << tier.p999_us << ", \"max_us\": " << tier.max_us
        << ", \"verified\": " << (tier.verified ? "true" : "false") << "}"
        << (i + 1 < reports.size() ? "," : "") << "\n";
  }
  out << "  ]\n}\n";
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::uint64_t u64 = 0;
  bool have_port = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    bool ok = true;
    if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      return 0;
    } else if (has_prefix(arg, "--host=")) {
      options.host = flag_value(arg, "--host=");
      ok = !options.host.empty();
    } else if (has_prefix(arg, "--port=")) {
      ok = parse_u64(arg, "--port=", u64) && u64 > 0 && u64 <= 65535;
      options.port = static_cast<std::uint16_t>(u64);
      have_port = ok;
    } else if (has_prefix(arg, "--clients=")) {
      ok = parse_tiers(flag_value(arg, "--clients="), options.client_tiers);
    } else if (has_prefix(arg, "--connections=")) {
      ok = parse_u64(arg, "--connections=", u64) && u64 > 0 && u64 <= 512;
      options.connections = static_cast<std::size_t>(u64);
    } else if (has_prefix(arg, "--markets=")) {
      ok = parse_u64(arg, "--markets=", u64) && u64 > 0;
      options.markets = static_cast<std::size_t>(u64);
    } else if (has_prefix(arg, "--rounds=")) {
      ok = parse_u64(arg, "--rounds=", u64) && u64 > 0;
      options.rounds = static_cast<std::size_t>(u64);
    } else if (has_prefix(arg, "--bids-per-round=")) {
      ok = parse_u64(arg, "--bids-per-round=", u64) && u64 > 0;
      options.bids_per_round = static_cast<std::size_t>(u64);
      options.engine.bids_per_round = options.bids_per_round;
    } else if (has_prefix(arg, "--rate=")) {
      ok = parse_f64(arg, "--rate=", options.rate) && options.rate >= 0.0;
    } else if (has_prefix(arg, "--verify=")) {
      ok = parse_u64(arg, "--verify=", u64) && u64 <= 1;
      options.verify = u64 == 1;
    } else if (has_prefix(arg, "--json=")) {
      options.json_path = flag_value(arg, "--json=");
    } else if (has_prefix(arg, "--mechanism=")) {
      options.engine.mechanism = flag_value(arg, "--mechanism=");
      ok = !options.engine.mechanism.empty();
    } else if (has_prefix(arg, "--winners=")) {
      ok = parse_u64(arg, "--winners=", u64) && u64 > 0;
      options.engine.max_winners = static_cast<std::size_t>(u64);
    } else if (has_prefix(arg, "--budget=")) {
      ok = parse_f64(arg, "--budget=", options.engine.per_round_budget) &&
           options.engine.per_round_budget > 0.0;
    } else if (has_prefix(arg, "--v=")) {
      ok = parse_f64(arg, "--v=", options.engine.v_weight) &&
           options.engine.v_weight > 0.0;
    } else if (has_prefix(arg, "--seed=")) {
      ok = parse_u64(arg, "--seed=", options.engine.seed);
    } else {
      std::cerr << "sfl_load_gen: unknown flag: " << arg << "\n";
      print_usage(std::cerr);
      return 2;
    }
    if (!ok) {
      std::cerr << "sfl_load_gen: invalid value: " << arg << "\n";
      return 2;
    }
  }
  if (!have_port) {
    std::cerr << "sfl_load_gen: --port is required\n";
    print_usage(std::cerr);
    return 2;
  }
  for (const std::size_t tier_clients : options.client_tiers) {
    if (options.bids_per_round > tier_clients) {
      std::cerr << "sfl_load_gen: --bids-per-round must be <= every tier's "
                   "client count\n";
      return 2;
    }
  }

  // Exit 3 when the server is unreachable even after the connect backoff
  // (which absorbs the server-startup race instead of failing on the first
  // ECONNREFUSED).
  {
    const int probe = connect_with_backoff(options.host, options.port);
    if (probe < 0) {
      std::cerr << "sfl_load_gen: cannot connect to " << options.host << ":"
                << options.port << "\n";
      return 3;
    }
    ::close(probe);
  }

  std::vector<TierReport> reports;
  for (std::size_t t = 0; t < options.client_tiers.size(); ++t) {
    TierReport report;
    if (!run_tier(options, t, options.client_tiers[t], report)) {
      return 1;
    }
    reports.push_back(report);
  }

  sfl::util::TablePrinter table({"tier", "clients", "rounds/s", "p50_us",
                                 "p99_us", "p999_us", "verified"});
  for (const TierReport& tier : reports) {
    table.row(tier.tier, tier.clients, tier.rounds_per_sec, tier.p50_us,
              tier.p99_us, tier.p999_us,
              std::string(tier.verified ? "yes" : "n/a"));
  }
  table.print(std::cout);

  if (!options.json_path.empty()) {
    std::ofstream out(options.json_path);
    if (!out) {
      std::cerr << "sfl_load_gen: cannot write " << options.json_path << "\n";
      return 1;
    }
    write_json(options, reports, out);
    std::cout << "wrote " << options.json_path << "\n";
  }
  return 0;
}

// sfl_auction_server: the persistent auction service as its own process.
//
// A thin main() over service::AuctionService — binds 127.0.0.1:P, prints
//
//   sfl_auction_server listening on 127.0.0.1:<port>
//
// on stdout (flushed, so a spawning harness can parse the port), and serves
// SubmitBids / RoundResult / SettlementAck traffic until SIGTERM/SIGINT.
// Exit codes: 0 on clean shutdown, 2 on bad usage, 3 when the socket cannot
// be bound (sandboxed environments).
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>

#include "service/auction_service.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;

void handle_stop_signal(int) { g_stop = 1; }

void print_usage(std::ostream& out) {
  out << "usage: sfl_auction_server [flags]\n"
         "\n"
         "Persistent auction service front-end (multi-client TCP server).\n"
         "\n"
         "  --port=P             bind 127.0.0.1:P (default 0 = ephemeral)\n"
         "  --mechanism=KEY      registry key (default lto-vcg)\n"
         "  --bids-per-round=N   bids that clear a market round (default 32)\n"
         "  --winners=M          max winners per round (default 8)\n"
         "  --budget=B           per-round payment budget (default 6.0)\n"
         "  --v=V                Lyapunov V weight (default 10.0)\n"
         "  --dist-workers=W     shard workers for dist keys (0 = default)\n"
         "  --seed=S             seed for randomized rules (default 42)\n"
         "  --help               show this message and exit\n"
         "\n"
         "Prints 'sfl_auction_server listening on 127.0.0.1:<port>' once\n"
         "serving; runs until SIGTERM/SIGINT. Exit codes: 0 clean, 2 bad\n"
         "usage, 3 socket cannot be bound.\n";
}

bool parse_u64(const std::string& arg, const char* flag, std::uint64_t& out) {
  const std::string prefix = flag;
  char* end = nullptr;
  const unsigned long long value =
      std::strtoull(arg.c_str() + prefix.size(), &end, 10);
  if (end == nullptr || *end != '\0') return false;
  out = value;
  return true;
}

bool parse_f64(const std::string& arg, const char* flag, double& out) {
  const std::string prefix = flag;
  char* end = nullptr;
  const double value = std::strtod(arg.c_str() + prefix.size(), &end);
  if (end == nullptr || *end != '\0') return false;
  out = value;
  return true;
}

bool has_prefix(const std::string& arg, const char* prefix) {
  return arg.rfind(prefix, 0) == 0;
}

}  // namespace

int main(int argc, char** argv) {
  sfl::service::AuctionServiceConfig config;
  std::uint64_t port = 0;
  std::uint64_t u64 = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    bool ok = true;
    if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      return 0;
    } else if (has_prefix(arg, "--port=")) {
      ok = parse_u64(arg, "--port=", port) && port <= 65535;
      config.port = static_cast<std::uint16_t>(port);
    } else if (has_prefix(arg, "--mechanism=")) {
      config.engine.mechanism = arg.substr(std::string("--mechanism=").size());
      ok = !config.engine.mechanism.empty();
    } else if (has_prefix(arg, "--bids-per-round=")) {
      ok = parse_u64(arg, "--bids-per-round=", u64) && u64 > 0;
      config.engine.bids_per_round = static_cast<std::size_t>(u64);
    } else if (has_prefix(arg, "--winners=")) {
      ok = parse_u64(arg, "--winners=", u64) && u64 > 0;
      config.engine.max_winners = static_cast<std::size_t>(u64);
    } else if (has_prefix(arg, "--budget=")) {
      ok = parse_f64(arg, "--budget=", config.engine.per_round_budget) &&
           config.engine.per_round_budget > 0.0;
    } else if (has_prefix(arg, "--v=")) {
      ok = parse_f64(arg, "--v=", config.engine.v_weight) &&
           config.engine.v_weight > 0.0;
    } else if (has_prefix(arg, "--dist-workers=")) {
      ok = parse_u64(arg, "--dist-workers=", u64);
      config.engine.dist_workers = static_cast<std::size_t>(u64);
    } else if (has_prefix(arg, "--seed=")) {
      ok = parse_u64(arg, "--seed=", config.engine.seed);
    } else {
      std::cerr << "sfl_auction_server: unknown flag: " << arg << "\n";
      print_usage(std::cerr);
      return 2;
    }
    if (!ok) {
      std::cerr << "sfl_auction_server: invalid value: " << arg << "\n";
      return 2;
    }
  }

  std::signal(SIGTERM, handle_stop_signal);
  std::signal(SIGINT, handle_stop_signal);

  try {
    sfl::service::AuctionService service(config);
    service.start();
    // The parse-friendly startup line a spawning harness waits for.
    std::cout << "sfl_auction_server listening on 127.0.0.1:" << service.port()
              << std::endl;
    while (g_stop == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
    service.stop();
    const sfl::service::ServiceStats stats = service.stats();
    std::cout << "sfl_auction_server: " << stats.connections_accepted
              << " connections, " << stats.bids_received << " bids, "
              << stats.rounds_cleared << " rounds cleared, shutting down\n";
  } catch (const std::exception& error) {
    std::cerr << "sfl_auction_server: cannot serve: " << error.what() << "\n";
    return 3;
  }
  return 0;
}

// serve: the service path.
//
// An in-process AuctionService with a default-constructed config is driven
// by one benchmark thread calling poll_once(config.poll_timeout_ms) in a
// loop, exactly as AuctionService::run does. One generator thread (the
// caller's) drives 4 loopback connections carrying 10,000 logical clients;
// every round is 32 bids from service::workload_rows, one bid per
// SubmitBids frame. With 32-row slates the work is frame decode, frame
// assembly, the poll loop and syscalls; large-slate scoring and FL training
// are bypassed. Each phase has its own 64 markets; the amount of work in
// every phase is fixed by --seconds, not by how fast the service runs.
//
//   set-up   bind, connect, hello, row generation for phase A, round 0 of
//            every market of every phase cleared (the warm-up).
//   phase A  (day) open loop on an absolute Poisson schedule at 60,000
//            bids/s, about a quarter of what the unpaced sfl_load_gen
//            example sustains with one send() per bid. A round's latency
//            runs from the INTENDED send time of its last bid to the arrival
//            of its first RoundResult, so a stalled service or a late
//            generator shows up as latency instead of being hidden (no
//            coordinated omission).
//   phase N  (night) one round in flight at a time: a round's 32 bids are
//            sent together and the next round waits for its result — the
//            fixed per-round cost of a quiet service.
//   phase B  closed loop: unpaced, but never more than 48 rounds ahead of
//            any market (inside max_pending_rounds); capacity in rounds/s.
//
// Bids that are due together leave in one send() per connection, as a
// gateway multiplexing many clients writes them; frames stay one bid each.
// Every RoundResult copy must equal service::reference_results bit for bit
// and the service must report zero protocol errors and dropped connections.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "dist/wire_codec.h"
#include "service/auction_service.h"
#include "service/frame_assembler.h"
#include "service/rpc_messages.h"
#include "service/workload.h"
#include "util/rng.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace perfbench {

namespace {

using sfl::dist::Frame;
using sfl::dist::FrameType;
using sfl::service::AuctionService;
using sfl::service::AuctionServiceConfig;
using sfl::service::BidRow;
using sfl::service::RoundResult;
using sfl::service::WorkloadSpec;

constexpr std::size_t kConnections = 4;
constexpr std::size_t kClients = 10'000;
constexpr std::size_t kMarkets = 64;  // per phase
constexpr std::size_t kBidsPerRound = 32;
constexpr double kDayRate = 60'000.0;  // bids/s offered in phase A
constexpr std::uint64_t kWindow = 48;  // closed-loop rounds ahead
constexpr std::size_t kSendBatch = 256;  // closed-loop bids per write round
constexpr std::size_t kSetupRepeats = 5;
// Work per measured second: phase A runs half of the measured time at the
// offered rate; phases N and B run fixed round counts sized to take a few
// seconds between them.
constexpr double kPhaseAShare = 0.5;
constexpr double kNightRoundsPerSecond = 5.0;   // per market
constexpr double kClosedBlocksPerSecond = 30.0;  // rounds of every market
constexpr std::size_t kDigestRounds = 4;  // phase N rounds in the seed digest
constexpr double kMinAchievedRatio = 0.95;
constexpr std::int64_t kStallNs = 10'000'000'000;  // no progress: give up

enum Phase : std::size_t { kPhaseA = 0, kPhaseN = 1, kPhaseB = 2, kPhases = 3 };

struct RoundTrack {
  std::int64_t last_due_ns = 0;  ///< intended send of the round's last bid
  std::int64_t first_result_ns = 0;
  std::uint32_t sent = 0;
  std::uint32_t copies = 0;  ///< RoundResult copies received
  std::vector<std::uint64_t> winners;
  std::vector<double> payments;
};

struct MarketTrack {
  std::vector<RoundTrack> rounds;
  std::uint64_t cleared_through = 0;  ///< rounds [0, this) have results
};

/// The `n`-th CPU (counting from 0) the calling thread may run on, or -1.
int allowed_cpu(int n) {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (::sched_getaffinity(0, sizeof(set), &set) != 0) return -1;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set) && n-- == 0) return cpu;
  }
  return -1;
}

/// Pins the calling thread to `cpu`; no-op for -1.
void pin_to_cpu(int cpu) {
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  ::pthread_setaffinity_np(::pthread_self(), sizeof(set), &set);
}

/// The benchmark thread that owns the service's poll loop, pinned to `cpu`.
class PollLoop {
 public:
  PollLoop(AuctionService& service, int timeout_ms, int cpu, Tracer* tracer)
      : service_(service), timeout_ms_(timeout_ms), cpu_(cpu), tracer_(tracer) {
    thread_ = std::thread([this] { run(); });
  }
  ~PollLoop() { stop(); }
  PollLoop(const PollLoop&) = delete;
  PollLoop& operator=(const PollLoop&) = delete;

  void stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
  }

  /// Starts / ends the measured window: the poll thread samples its own
  /// CPU and, when traced, spans its ticks only inside the window.
  void set_measuring(bool on) {
    request_.store(on ? 1 : 2);
    while (request_.load() != 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  }

  /// Poll-thread resource use over the measured window.
  [[nodiscard]] ProcessSample window_usage() const {
    ProcessSample s;
    s.wall_ns = end_.wall_ns - begin_.wall_ns;
    s.user_s = end_.user_s - begin_.user_s;
    s.sys_s = end_.sys_s - begin_.sys_s;
    return s;
  }
  [[nodiscard]] double window_cpu_s() const { return end_cpu_ - begin_cpu_; }
  [[nodiscard]] std::uint64_t ticks() const { return ticks_; }
  [[nodiscard]] std::uint64_t tick_rounds() const { return tick_rounds_; }
  [[nodiscard]] std::uint64_t tick_frames() const { return tick_frames_; }

 private:
  void run() {
    pin_to_cpu(cpu_);
    const std::uint32_t root =
        tracer_ != nullptr ? tracer_->name_id("bench.serve.poll_loop") : 0;
    const std::uint32_t tick =
        tracer_ != nullptr ? tracer_->name_id("service.poll_once") : 0;
    bool measuring = false;
    while (!stop_.load(std::memory_order_relaxed)) {
      if (tracer_ != nullptr && measuring) {
        const sfl::service::ServiceStats before = service_.stats();
        {
          ScopedSpan span(tracer_, tick, 0);
          service_.poll_once(timeout_ms_);
        }
        const sfl::service::ServiceStats after = service_.stats();
        ++ticks_;
        tick_rounds_ += after.rounds_cleared - before.rounds_cleared;
        tick_frames_ += after.frames_received - before.frames_received;
      } else {
        service_.poll_once(timeout_ms_);
      }
      const int request = request_.load();
      if (request == 1) {
        measuring = true;
        begin_ = sample_thread();
        begin_cpu_ = thread_cpu_s();
        if (tracer_ != nullptr) tracer_->begin(root, 0);
        request_.store(0);
      } else if (request == 2) {
        measuring = false;
        end_ = sample_thread();
        end_cpu_ = thread_cpu_s();
        if (tracer_ != nullptr) tracer_->end();
        request_.store(0);
      }
    }
  }

  AuctionService& service_;
  const int timeout_ms_;
  const int cpu_;
  Tracer* const tracer_;
  std::atomic<bool> stop_{false};
  std::atomic<int> request_{0};  ///< 1 = begin window, 2 = end, 0 = done
  ProcessSample begin_;
  ProcessSample end_;
  double begin_cpu_ = 0.0;
  double end_cpu_ = 0.0;
  std::uint64_t ticks_ = 0;
  std::uint64_t tick_rounds_ = 0;
  std::uint64_t tick_frames_ = 0;
  std::thread thread_;  // last: started once every member above exists
};

struct Connection {
  int fd = -1;
  sfl::service::FrameAssembler assembler;
  std::vector<std::byte> out;  ///< frames queued for the next send()
};

/// Round counts of one measured pass, fixed by the measured seconds.
struct PhasePlan {
  std::size_t day_rounds = 0;     ///< phase A rounds per market
  std::size_t night_rounds = 0;   ///< phase N rounds per market
  std::size_t closed_rounds = 0;  ///< phase B rounds per market

  static PhasePlan for_seconds(double seconds) {
    const auto at_least_digest = [](double x) {
      return std::max<std::size_t>(kDigestRounds,
                                   static_cast<std::size_t>(std::lround(x)));
    };
    PhasePlan plan;
    plan.day_rounds = at_least_digest(kPhaseAShare * seconds * kDayRate /
                                      (kMarkets * kBidsPerRound));
    plan.night_rounds = at_least_digest(kNightRoundsPerSecond * seconds);
    plan.closed_rounds = at_least_digest(kClosedBlocksPerSecond * seconds);
    return plan;
  }
};

/// One phase's generator outcome.
struct PhaseStats {
  std::size_t rounds = 0;
  std::size_t uncleared = 0;  ///< rounds with no result by the stall cut-off
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;  ///< last result of the phase
  double cpu_s = 0.0;       ///< process CPU over the phase
  long switches = 0;        ///< process context switches over the phase
  double generator_cpu_s = 0.0;
  std::vector<double> latency_ns;  ///< per round, in send order
  std::vector<double> late_ns;     ///< actual minus intended send time
  double achieved_ratio = 1.0;     ///< achieved / offered bid rate
  std::vector<double> window_rates;  ///< rounds/s of consecutive windows
};

/// One set-up of the service plus its generator state.
class ServiceRig {
 public:
  ServiceRig(const RunOptions& options, const PhasePlan& plan, int poll_cpu,
             Tracer* poll_tracer, Tracer* gen_tracer);
  ~ServiceRig();
  ServiceRig(const ServiceRig&) = delete;
  ServiceRig& operator=(const ServiceRig&) = delete;

  PhaseStats phase_a();
  PhaseStats phase_n();
  PhaseStats phase_b();

  /// Gates: zero protocol errors and dropped connections, every received
  /// result equal to service::reference_results bit for bit.
  void verify();
  /// Digest of the warm-up and the first phase N rounds, which every pass
  /// runs whatever its length: the seed-determined digest.
  [[nodiscard]] std::uint64_t seed_digest() const;
  /// Digest over every received result, in (market, round) order.
  [[nodiscard]] std::uint64_t full_digest() const;

  PollLoop& poll() { return *poll_; }
  [[nodiscard]] std::uint64_t fed_bytes() const { return fed_bytes_; }

 private:
  void connect_all();
  /// Encodes one bid as its own SubmitBids frame onto its connection's
  /// outgoing buffer; flush_sends() writes every buffer out.
  void queue_bid(std::size_t market_id, std::size_t round, const BidRow& row);
  void flush_sends();
  /// Waits until `deadline_ns` for responses (0 = only what is readable
  /// now) and processes every complete frame.
  void pump(std::int64_t deadline_ns);
  void on_frame(const Frame& frame, std::int64_t arrival_ns);
  void warm_up();
  void wait_cleared(Phase phase, std::uint64_t rounds);
  void wait_window(std::size_t market_id, std::uint64_t round);
  [[nodiscard]] MarketTrack& track(Phase phase, std::size_t m) {
    return markets_[phase * kMarkets + m];
  }
  [[nodiscard]] PhaseStats begin_phase() const;
  void end_phase(Phase phase, PhaseStats& stats, double generator_cpu0) const;

  AuctionServiceConfig config_{};
  std::unique_ptr<AuctionService> service_;
  std::unique_ptr<PollLoop> poll_;
  std::vector<Connection> conns_;
  std::vector<MarketTrack> markets_;  ///< kPhases * kMarkets, by market id
  WorkloadSpec specs_[kPhases];
  std::uint64_t seed_;
  std::vector<ScheduledBid> schedule_;
  std::vector<std::vector<std::vector<BidRow>>> rows_a_;  ///< [m][round]
  Tracer* gen_tracer_;
  std::uint32_t encode_name_ = 0;
  std::uint32_t decode_name_ = 0;
  std::uint32_t feed_name_ = 0;
  std::uint64_t fed_bytes_ = 0;
  std::int64_t last_result_ns_ = 0;  ///< arrival of the latest new result
  sfl::service::SubmitBids submit_;
  Frame frame_;
  Frame rx_frame_;
  RoundResult result_;
  sfl::service::SettlementAck ack_;
};

ServiceRig::ServiceRig(const RunOptions& options, const PhasePlan& plan,
                       int poll_cpu, Tracer* poll_tracer, Tracer* gen_tracer)
    : seed_(options.seed), gen_tracer_(gen_tracer) {
  if (gen_tracer_ != nullptr) {
    encode_name_ = gen_tracer_->name_id("service.rpc.encode_submit");
    decode_name_ = gen_tracer_->name_id("service.rpc.decode_result");
    feed_name_ = gen_tracer_->name_id("service.frame_assembler.feed");
  }
  if (config_.engine.bids_per_round != kBidsPerRound) {
    gate_failed("serve: the default service clears rounds at " +
                std::to_string(config_.engine.bids_per_round) +
                " bids, the workload sends 32");
  }
  service_ = std::make_unique<AuctionService>(config_);
  poll_ = std::make_unique<PollLoop>(*service_, config_.poll_timeout_ms,
                                     poll_cpu, poll_tracer);
  connect_all();

  const std::size_t rounds[kPhases] = {plan.day_rounds, plan.night_rounds,
                                       plan.closed_rounds};
  for (std::size_t p = 0; p < kPhases; ++p) {
    specs_[p].seed = options.seed;
    specs_[p].first_market = p * kMarkets;
    specs_[p].markets = kMarkets;
    specs_[p].rounds_per_market = 1 + rounds[p];  // round 0 is the warm-up
    specs_[p].clients = kClients;
    specs_[p].bids_per_round = kBidsPerRound;
  }
  schedule_ = poisson_schedule(options.seed, kMarkets, kBidsPerRound, 1,
                               plan.day_rounds, kDayRate);
  rows_a_.assign(kMarkets, {});
  for (std::size_t m = 0; m < kMarkets; ++m) {
    rows_a_[m].resize(specs_[kPhaseA].rounds_per_market);
    for (std::size_t r = 0; r < rows_a_[m].size(); ++r) {
      sfl::service::workload_rows(specs_[kPhaseA], m, r, rows_a_[m][r]);
    }
  }
  markets_.assign(kPhases * kMarkets, {});
  for (std::size_t p = 0; p < kPhases; ++p) {
    for (std::size_t m = 0; m < kMarkets; ++m) {
      track(static_cast<Phase>(p), m).rounds.resize(specs_[p].rounds_per_market);
    }
  }
  submit_.markets.resize(1);
  submit_.rounds.resize(1);
  submit_.values.resize(1);
  submit_.bids.resize(1);
  submit_.energy_costs.resize(1);
  warm_up();
}

ServiceRig::~ServiceRig() {
  if (poll_) poll_->stop();
  for (Connection& conn : conns_) {
    if (conn.fd >= 0) ::close(conn.fd);
  }
}

void ServiceRig::connect_all() {
  conns_.resize(kConnections);
  for (Connection& conn : conns_) {
    conn.fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (conn.fd < 0) gate_failed("serve: socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(service_->port());
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(conn.fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      gate_failed(std::string("serve: connect() failed: ") +
                  std::strerror(errno));
    }
    const int one = 1;
    ::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  // The config echo is the first frame on every connection.
  for (Connection& conn : conns_) {
    const std::int64_t deadline = now_ns() + 5'000'000'000;
    Frame frame;
    std::byte buffer[1024];
    while (!conn.assembler.next_frame(frame)) {
      if (now_ns() > deadline) gate_failed("serve: no ServerHello");
      pollfd pfd{.fd = conn.fd, .events = POLLIN, .revents = 0};
      if (::poll(&pfd, 1, 100) <= 0) continue;
      const ssize_t got = ::recv(conn.fd, buffer, sizeof(buffer), 0);
      if (got <= 0 || !conn.assembler.feed(std::span<const std::byte>(
                          buffer, static_cast<std::size_t>(got)))) {
        gate_failed("serve: connection failed before ServerHello");
      }
    }
    sfl::service::ServerHello hello;
    sfl::service::decode(frame, hello);
    if (hello.bids_per_round != kBidsPerRound ||
        hello.max_winners != config_.engine.max_winners ||
        hello.mechanism != config_.engine.mechanism) {
      gate_failed("serve: ServerHello disagrees with the default config");
    }
  }
}

void ServiceRig::queue_bid(std::size_t market_id, std::size_t round,
                        const BidRow& row) {
  submit_.client = row.client;
  submit_.markets[0] = market_id;
  submit_.rounds[0] = round;
  submit_.values[0] = row.value;
  submit_.bids[0] = row.bid;
  submit_.energy_costs[0] = row.energy_cost;
  if (gen_tracer_ != nullptr) {
    const std::int64_t t0 = now_ns();
    sfl::service::encode(submit_, frame_);
    gen_tracer_->aggregate(encode_name_, now_ns() - t0);
  } else {
    sfl::service::encode(submit_, frame_);
  }
  Connection& conn = conns_[row.client % conns_.size()];
  conn.out.insert(conn.out.end(), frame_.begin(), frame_.end());
  ++markets_[market_id].rounds[round].sent;
}

void ServiceRig::flush_sends() {
  for (Connection& conn : conns_) {
    std::size_t sent = 0;
    while (sent < conn.out.size()) {
      const ssize_t rc = ::send(conn.fd, conn.out.data() + sent,
                                conn.out.size() - sent, MSG_NOSIGNAL);
      if (rc < 0) {
        if (errno == EINTR) continue;
        gate_failed(std::string("serve: send failed: ") + std::strerror(errno));
      }
      sent += static_cast<std::size_t>(rc);
    }
    conn.out.clear();
  }
}

void ServiceRig::pump(std::int64_t deadline_ns) {
  pollfd pfds[kConnections];
  for (std::size_t c = 0; c < conns_.size(); ++c) {
    pfds[c] = pollfd{.fd = conns_[c].fd, .events = POLLIN, .revents = 0};
  }
  // An absolute deadline: ppoll sleeps until it (or until a response
  // arrives), so sends stay on the schedule's clock, not on relative gaps.
  const std::int64_t wait = std::max<std::int64_t>(0, deadline_ns - now_ns());
  const timespec timeout{.tv_sec = wait / 1'000'000'000,
                         .tv_nsec = wait % 1'000'000'000};
  if (::ppoll(pfds, conns_.size(), &timeout, nullptr) <= 0) return;
  static thread_local std::byte buffer[64 * 1024];
  for (std::size_t c = 0; c < conns_.size(); ++c) {
    if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
    Connection& conn = conns_[c];
    for (int chunk = 0; chunk < 8; ++chunk) {
      const ssize_t got = ::recv(conn.fd, buffer, sizeof(buffer), MSG_DONTWAIT);
      if (got == 0) gate_failed("serve: the service closed a connection");
      if (got < 0) {
        if (errno == EAGAIN || errno == EWOULDBLOCK || errno == EINTR) break;
        gate_failed(std::string("serve: recv failed: ") + std::strerror(errno));
      }
      const std::int64_t arrival = now_ns();
      const std::span<const std::byte> bytes(buffer,
                                             static_cast<std::size_t>(got));
      bool fed = false;
      if (gen_tracer_ != nullptr) {
        fed = conn.assembler.feed(bytes);
        gen_tracer_->aggregate(feed_name_, now_ns() - arrival);
        fed_bytes_ += bytes.size();
      } else {
        fed = conn.assembler.feed(bytes);
      }
      if (!fed) {
        gate_failed("serve: response stream condemned: " +
                    conn.assembler.condemned_reason());
      }
      while (conn.assembler.next_frame(rx_frame_)) on_frame(rx_frame_, arrival);
      if (static_cast<std::size_t>(got) < sizeof(buffer)) break;
    }
  }
}

bool same_bits(const std::vector<double>& a, const std::vector<double>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(a[i]) !=
        std::bit_cast<std::uint64_t>(b[i])) {
      return false;
    }
  }
  return true;
}

void ServiceRig::on_frame(const Frame& frame, std::int64_t arrival_ns) {
  try {
    const FrameType type = sfl::dist::checked_frame_type(frame);
    if (type == FrameType::kRoundResult) {
      if (gen_tracer_ != nullptr) {
        const std::int64_t t0 = now_ns();
        sfl::service::decode(frame, result_);
        gen_tracer_->aggregate(decode_name_, now_ns() - t0);
      } else {
        sfl::service::decode(frame, result_);
      }
      if (result_.market >= markets_.size() ||
          result_.round >= markets_[result_.market].rounds.size() ||
          markets_[result_.market].rounds[result_.round].sent != kBidsPerRound) {
        gate_failed("serve: RoundResult for a round that was never sent");
      }
      MarketTrack& market = markets_[result_.market];
      RoundTrack& round = market.rounds[result_.round];
      if (round.copies++ == 0) {
        round.first_result_ns = arrival_ns;
        round.winners = result_.winners;
        round.payments = result_.payments;
        while (market.cleared_through < market.rounds.size() &&
               market.rounds[market.cleared_through].copies != 0) {
          ++market.cleared_through;
        }
        last_result_ns_ = arrival_ns;
      } else if (round.winners != result_.winners ||
                 !same_bits(round.payments, result_.payments)) {
        gate_failed("serve: two copies of one RoundResult differ");
      }
    } else if (type == FrameType::kSettlementAck) {
      sfl::service::decode(frame, ack_);
      if (ack_.market >= markets_.size() ||
          ack_.round >= markets_[ack_.market].rounds.size() ||
          markets_[ack_.market].rounds[ack_.round].copies == 0) {
        gate_failed("serve: SettlementAck before its RoundResult");
      }
      const RoundTrack& round = markets_[ack_.market].rounds[ack_.round];
      double total = 0.0;
      for (const double p : round.payments) total += p;
      if (ack_.winner_count != round.winners.size() ||
          std::bit_cast<std::uint64_t>(ack_.total_payment) !=
              std::bit_cast<std::uint64_t>(total)) {
        gate_failed("serve: SettlementAck disagrees with its RoundResult");
      }
    } else {
      gate_failed("serve: unexpected frame type from the service");
    }
  } catch (const sfl::dist::WireError& error) {
    gate_failed(std::string("serve: malformed frame from the service: ") +
                error.what());
  }
}

void ServiceRig::wait_cleared(Phase phase, std::uint64_t rounds) {
  const std::int64_t wait_start = now_ns();
  for (std::size_t m = 0; m < kMarkets; ++m) {
    while (track(phase, m).cleared_through < rounds) {
      if (now_ns() - std::max(wait_start, last_result_ns_) > kStallNs) return;
      pump(now_ns() + 5'000'000);
    }
  }
}

void ServiceRig::wait_window(std::size_t market_id, std::uint64_t round) {
  if (round < markets_[market_id].cleared_through + kWindow) return;
  flush_sends();
  const std::int64_t wait_start = now_ns();
  while (round >= markets_[market_id].cleared_through + kWindow) {
    if (now_ns() - std::max(wait_start, last_result_ns_) > kStallNs) {
      gate_failed("serve: the service stopped clearing rounds");
    }
    pump(now_ns() + 1'000'000);
  }
}

void ServiceRig::warm_up() {
  std::vector<BidRow> rows;
  for (std::size_t p = 0; p < kPhases; ++p) {
    for (std::size_t m = 0; m < kMarkets; ++m) {
      sfl::service::workload_rows(specs_[p], m, 0, rows);
      for (const BidRow& row : rows) queue_bid(specs_[p].market_id(m), 0, row);
    }
  }
  flush_sends();
  for (std::size_t p = 0; p < kPhases; ++p) {
    wait_cleared(static_cast<Phase>(p), 1);
  }
  for (const MarketTrack& market : markets_) {
    if (market.cleared_through < 1) gate_failed("serve: warm-up did not clear");
  }
}

PhaseStats ServiceRig::begin_phase() const {
  PhaseStats stats;
  const ProcessSample p0 = sample_process();
  stats.cpu_s = p0.cpu_s();
  stats.switches = p0.voluntary_switches + p0.involuntary_switches;
  stats.start_ns = now_ns();
  return stats;
}

void ServiceRig::end_phase(Phase phase, PhaseStats& stats,
                        double generator_cpu0) const {
  const ProcessSample p1 = sample_process();
  stats.end_ns = last_result_ns_;
  stats.cpu_s = p1.cpu_s() - stats.cpu_s;
  stats.switches =
      p1.voluntary_switches + p1.involuntary_switches - stats.switches;
  stats.generator_cpu_s = thread_cpu_s() - generator_cpu0;
  const std::size_t rounds = specs_[phase].rounds_per_market;
  stats.rounds = kMarkets * (rounds - 1);
  for (std::size_t m = 0; m < kMarkets; ++m) {
    const MarketTrack& market = markets_[phase * kMarkets + m];
    for (std::size_t r = 1; r < rounds; ++r) {
      if (market.rounds[r].copies == 0) ++stats.uncleared;
    }
  }
}

PhaseStats ServiceRig::phase_a() {
  const double g0 = thread_cpu_s();
  PhaseStats stats = begin_phase();
  const std::int64_t start = now_ns() + 2'000'000;
  stats.late_ns.reserve(schedule_.size());
  std::int64_t last_send = start;
  std::size_t next = 0;
  while (next < schedule_.size()) {
    const std::int64_t first_due = start + schedule_[next].due_ns;
    while (now_ns() < first_due) pump(first_due);
    // Everything due by now leaves together: a generator that fell behind
    // catches up in one write per connection instead of one per bid.
    const std::size_t begin = next;
    const std::int64_t now = now_ns();
    for (; next < schedule_.size() && start + schedule_[next].due_ns <= now;
         ++next) {
      const ScheduledBid& bid = schedule_[next];
      if (bid.round >= track(kPhaseA, bid.market).cleared_through + kWindow &&
          next != begin) {
        break;  // send what is queued, then wait for the window
      }
      wait_window(bid.market, bid.round);
      queue_bid(bid.market, bid.round,
                rows_a_[bid.market][bid.round][bid.slot]);
    }
    flush_sends();
    last_send = now_ns();
    for (std::size_t i = begin; i < next; ++i) {
      const ScheduledBid& bid = schedule_[i];
      const std::int64_t due = start + bid.due_ns;
      stats.late_ns.push_back(static_cast<double>(last_send - due));
      RoundTrack& round = track(kPhaseA, bid.market).rounds[bid.round];
      round.last_due_ns = std::max(round.last_due_ns, due);
    }
  }
  wait_cleared(kPhaseA, specs_[kPhaseA].rounds_per_market);
  end_phase(kPhaseA, stats, g0);
  // Latencies in the order the rounds were due, so tail windows are
  // stretches of time.
  std::vector<std::pair<std::int64_t, double>> by_due;
  for (std::size_t m = 0; m < kMarkets; ++m) {
    const MarketTrack& market = track(kPhaseA, m);
    for (std::size_t r = 1; r < market.rounds.size(); ++r) {
      const RoundTrack& round = market.rounds[r];
      if (round.copies == 0) continue;
      by_due.emplace_back(round.last_due_ns, static_cast<double>(
                                                 round.first_result_ns -
                                                 round.last_due_ns));
    }
  }
  std::sort(by_due.begin(), by_due.end());
  for (const auto& [due, latency] : by_due) stats.latency_ns.push_back(latency);
  const double offered_s = static_cast<double>(schedule_.back().due_ns);
  const double achieved_s = static_cast<double>(last_send - start);
  stats.achieved_ratio = achieved_s > 0.0 ? offered_s / achieved_s : 0.0;
  return stats;
}

PhaseStats ServiceRig::phase_n() {
  const double g0 = thread_cpu_s();
  PhaseStats stats = begin_phase();
  std::vector<BidRow> rows;
  const WorkloadSpec& spec = specs_[kPhaseN];
  for (std::size_t r = 1; r < spec.rounds_per_market; ++r) {
    for (std::size_t m = 0; m < kMarkets; ++m) {
      sfl::service::workload_rows(spec, m, r, rows);
      for (const BidRow& row : rows) queue_bid(spec.market_id(m), r, row);
      const std::int64_t sent = now_ns();
      flush_sends();
      MarketTrack& market = track(kPhaseN, m);
      while (market.cleared_through <= r) {
        if (now_ns() - std::max(sent, last_result_ns_) > kStallNs) {
          gate_failed("serve: a lone round did not clear");
        }
        pump(now_ns() + 5'000'000);
      }
      market.rounds[r].last_due_ns = sent;
      stats.latency_ns.push_back(
          static_cast<double>(market.rounds[r].first_result_ns - sent));
    }
  }
  end_phase(kPhaseN, stats, g0);
  return stats;
}

PhaseStats ServiceRig::phase_b() {
  const double g0 = thread_cpu_s();
  PhaseStats stats = begin_phase();
  std::uint64_t state = seed_ ^ 0xb10c5b10c5b10c5bULL;
  sfl::util::Rng rng(sfl::util::splitmix64(state));
  std::vector<std::pair<std::uint32_t, std::uint32_t>> events;
  std::vector<std::vector<BidRow>> rows(kMarkets);
  const WorkloadSpec& spec = specs_[kPhaseB];
  for (std::size_t r = 1; r < spec.rounds_per_market; ++r) {
    events.clear();
    for (std::size_t m = 0; m < kMarkets; ++m) {
      sfl::service::workload_rows(spec, m, r, rows[m]);
      for (std::size_t slot = 0; slot < kBidsPerRound; ++slot) {
        events.emplace_back(static_cast<std::uint32_t>(m),
                            static_cast<std::uint32_t>(slot));
      }
    }
    rng.shuffle(events);
    std::size_t queued = 0;
    for (const auto& [m, slot] : events) {
      wait_window(spec.market_id(m), r);
      queue_bid(spec.market_id(m), r, rows[m][slot]);
      // Results are read as they come, as a client would read them.
      if (++queued % kSendBatch == 0) {
        flush_sends();
        pump(0);
      }
    }
    flush_sends();
    pump(0);
  }
  wait_cleared(kPhaseB, spec.rounds_per_market);
  end_phase(kPhaseB, stats, g0);
  // Capacity per window of consecutive completions; the median window is
  // the capacity, so a machine stall in one window does not set it.
  std::vector<std::int64_t> done;
  for (std::size_t m = 0; m < kMarkets; ++m) {
    const MarketTrack& market = track(kPhaseB, m);
    for (std::size_t r = 1; r < market.rounds.size(); ++r) {
      if (market.rounds[r].copies != 0) {
        done.push_back(market.rounds[r].first_result_ns);
      }
    }
  }
  std::sort(done.begin(), done.end());
  constexpr std::size_t kRateWindow = 50 * kMarkets;
  for (std::size_t w = 0; (w + 1) * kRateWindow < done.size(); ++w) {
    const std::int64_t span = done[(w + 1) * kRateWindow] - done[w * kRateWindow];
    stats.window_rates.push_back(static_cast<double>(kRateWindow) /
                                 (static_cast<double>(span) * 1e-9));
  }
  return stats;
}

void ServiceRig::verify() {
  const sfl::service::ServiceStats s = service_->stats();
  if (s.protocol_errors != 0 || s.connections_dropped != 0) {
    gate_failed("serve: the service reports " +
                std::to_string(s.protocol_errors) + " protocol errors and " +
                std::to_string(s.connections_dropped) + " dropped connections");
  }
  for (const WorkloadSpec& spec : specs_) {
    const auto want = sfl::service::reference_results(spec, config_.engine);
    for (std::size_t m = 0; m < spec.markets; ++m) {
      const MarketTrack& market = markets_[spec.market_id(m)];
      for (std::size_t r = 0; r < spec.rounds_per_market; ++r) {
        const RoundTrack& got = market.rounds[r];
        if (got.copies == 0) continue;  // counted as failed, not compared
        const RoundResult& ref = want[m][r];
        if (got.winners != ref.winners ||
            !same_bits(got.payments, ref.payments)) {
          gate_failed("serve: market " + std::to_string(spec.market_id(m)) +
                      " round " + std::to_string(r) +
                      " differs from the in-process reference");
        }
      }
    }
  }
}

void add_round(Digest& digest, std::size_t id, std::size_t r,
               const RoundTrack& round) {
  digest.add(id);
  digest.add(r);
  digest.add(round.copies == 0 ? 0 : 1);
  for (const std::uint64_t w : round.winners) digest.add(w);
  for (const double p : round.payments) digest.add_double(p);
}

std::uint64_t ServiceRig::seed_digest() const {
  Digest digest;
  for (std::size_t id = 0; id < markets_.size(); ++id) {
    const bool night = id / kMarkets == kPhaseN;
    const std::size_t rounds = night ? 1 + kDigestRounds : 1;
    for (std::size_t r = 0; r < rounds; ++r) {
      add_round(digest, id, r, markets_[id].rounds[r]);
    }
  }
  return digest.value();
}

std::uint64_t ServiceRig::full_digest() const {
  Digest digest;
  for (std::size_t id = 0; id < markets_.size(); ++id) {
    for (std::size_t r = 0; r < markets_[id].rounds.size(); ++r) {
      add_round(digest, id, r, markets_[id].rounds[r]);
    }
  }
  return digest.value();
}

struct PassResult {
  PhaseStats a;
  PhaseStats n;
  PhaseStats b;
  std::uint64_t seed_digest = 0;
  std::uint64_t full_digest = 0;
  ProcessSample poll_usage;
  double poll_cpu_s = 0.0;
  std::uint64_t ticks = 0;
  std::uint64_t tick_rounds = 0;
  std::uint64_t tick_frames = 0;
  std::uint64_t fed_bytes = 0;
  std::int64_t window_ns = 0;

  [[nodiscard]] std::size_t rounds() const {
    return a.rounds + n.rounds + b.rounds;
  }
  /// Rounds that missed the stall cut-off; a phase A whose generator missed
  /// the offered rate by more than 5% did not hold the load it claims to
  /// measure, so every round of it counts as failed.
  [[nodiscard]] std::size_t failed() const {
    std::size_t failed = n.uncleared + b.uncleared;
    failed += a.achieved_ratio < kMinAchievedRatio ? a.rounds : a.uncleared;
    return failed;
  }
};

/// Phases A, N and B inside one measured window (spanned on the generator's
/// tracer when given), then the rig's gates.
PassResult measure(ServiceRig& rig, Tracer* gen_tracer) {
  PassResult pass;
  rig.poll().set_measuring(true);
  const std::int64_t t0 = now_ns();
  {
    ScopedSpan window(gen_tracer,
                      gen_tracer != nullptr
                          ? gen_tracer->name_id("bench.serve.generator")
                          : 0,
                      0);
    pass.a = rig.phase_a();
    pass.n = rig.phase_n();
    pass.b = rig.phase_b();
  }
  pass.window_ns = now_ns() - t0;
  rig.poll().set_measuring(false);
  pass.poll_usage = rig.poll().window_usage();
  pass.poll_cpu_s = rig.poll().window_cpu_s();
  pass.ticks = rig.poll().ticks();
  pass.tick_rounds = rig.poll().tick_rounds();
  pass.tick_frames = rig.poll().tick_frames();
  pass.fed_bytes = rig.fed_bytes();
  rig.verify();
  pass.seed_digest = rig.seed_digest();
  pass.full_digest = rig.full_digest();
  return pass;
}

void put_generator_metrics(const PassResult& pass, WorkloadResult& result) {
  std::vector<double> late = pass.a.late_ns;
  const Percentile late_p50 = percentile(late, 0.5);
  double late_max = 0.0;
  for (const double l : pass.a.late_ns) late_max = std::max(late_max, l);
  result.put("bench.gen.late_p50_us", late_p50.value / 1e3, "us",
             late_p50.samples);
  result.put("bench.gen.late_max_us", late_max / 1e3, "us",
             pass.a.late_ns.size());
  result.put("bench.gen.achieved_ratio", pass.a.achieved_ratio, "ratio");
  result.put("bench.gen.cpu_us_per_round",
             pass.a.generator_cpu_s * 1e6 / static_cast<double>(pass.a.rounds),
             "us/round", pass.a.rounds);
}

double per(double total, std::uint64_t count) {
  return total / static_cast<double>(std::max<std::uint64_t>(count, 1));
}

}  // namespace

WorkloadResult run_serve(const RunOptions& options) {
  WorkloadResult result;
  const PhasePlan plan =
      PhasePlan::for_seconds(options.seconds * (options.trace ? 0.5 : 1.0));

  // Only the generator thread waits on short deadlines; a 1 ns timer slack
  // keeps its sends on schedule instead of up to 50 us late.
  ::prctl(PR_SET_TIMERSLACK, 1UL, 0UL, 0UL, 0UL);
  // The generator and the poll loop each get a CPU of their own: left to
  // the scheduler the two threads at times share one, and a whole run then
  // lands in a second, slower mode (lone-round p50 ~46 us against ~33 us,
  // measured on a 4-vCPU host). The shared pool is created first, so its
  // workers keep every CPU.
  (void)sfl::util::shared_pool();
  const int generator_cpu = allowed_cpu(0);
  const int poll_cpu = allowed_cpu(1);
  if (poll_cpu >= 0) pin_to_cpu(generator_cpu);

  std::vector<double> setup_s;
  std::unique_ptr<ServiceRig> rig;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    rig.reset();
    const std::int64_t t0 = now_ns();
    rig = std::make_unique<ServiceRig>(options, plan, poll_cpu, nullptr,
                                       nullptr);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  const PassResult pass = measure(*rig, nullptr);
  rig.reset();
  result.attempted = pass.rounds();
  result.failed = pass.failed();
  Digest digest;
  digest.add(pass.seed_digest);
  result.digest = digest.hex();

  result.put("setup_s", median(setup_s), "s", setup_s.size(),
             "median of repeated set-ups");
  result.put("rounds_per_s",
             pass.b.window_rates.size() >= 3
                 ? median(pass.b.window_rates)
                 : static_cast<double>(pass.b.rounds) /
                       (static_cast<double>(pass.b.end_ns - pass.b.start_ns) *
                        1e-9),
             "rounds/s", pass.b.rounds,
             "phase B, closed loop, median over windows of 3200 rounds");
  result.put("cpu_us_per_round",
             pass.a.cpu_s * 1e6 / static_cast<double>(pass.a.rounds),
             "us/round", pass.a.rounds, "process CPU over phase A");
  // serve has no day/night split of one latency: the bounded p50s are the
  // lone-round latency (phase N), whose run-to-run spread is small; phase
  // A's open-loop latency is the day tail and service.open_loop.p50_us.
  std::vector<double> open_loop = pass.a.latency_ns;
  std::vector<double> lone = pass.n.latency_ns;
  const Percentile lone_p50 = percentile(lone, 0.5);
  for (const char* name :
       {"round_p50_us", "day_round_p50_us", "night_round_p50_us"}) {
    result.put_percentile(name, lone_p50, 1e-3, "us");
  }
  result.put_percentile("round_p99_us", tail_percentile(pass.a.latency_ns, 0.99),
                        1e-3, "us");
  result.put_percentile("day_round_p99_us",
                        tail_percentile(pass.a.latency_ns, 0.99), 1e-3, "us");
  result.put_percentile("night_round_p99_us",
                        tail_percentile(pass.n.latency_ns, 0.99), 1e-3, "us");
  result.put_percentile("service.open_loop.p50_us", percentile(open_loop, 0.5),
                        1e-3, "us");
  result.put("peak_rss_mb", peak_rss_mib(), "MiB");
  if (!options.trace) return result;

  // Traced run: the same rounds on a fresh set-up, with the poll thread and
  // the generator traced; its results must equal the untraced pass's.
  put_generator_metrics(pass, result);
  Tracer poll_tracer("poll");
  Tracer gen_tracer("generator");
  rig = std::make_unique<ServiceRig>(options, plan, poll_cpu, &poll_tracer,
                                     &gen_tracer);
  const PassResult traced = measure(*rig, &gen_tracer);
  rig.reset();
  if (traced.full_digest != pass.full_digest) {
    gate_failed("serve: traced results differ from the untraced run's");
  }
  result.attempted += traced.rounds();
  result.failed += traced.failed();
  if (!options.trace_out.empty()) {
    poll_tracer.write_csv(options.trace_out);
    gen_tracer.write_csv(options.trace_out);
  }

  const double rounds = static_cast<double>(traced.rounds());
  const double window_s = static_cast<double>(traced.window_ns) * 1e-9;
  std::vector<double> ticks = poll_tracer.durations_ns("service.poll_once");
  result.put_percentile("service.poll_once.p99_us", tail_percentile(ticks, 0.99),
                        1e-3, "us");
  result.put_percentile("service.poll_once.p50_us", percentile(ticks, 0.5),
                        1e-3, "us");
  result.put("service.poll_once.busy_share", traced.poll_cpu_s / window_s,
             "share", traced.ticks, "poll-thread CPU / wall");
  result.put("service.rounds_per_tick",
             per(static_cast<double>(traced.tick_rounds), traced.ticks),
             "rounds/tick", traced.ticks);
  result.put("service.frames_per_round",
             per(static_cast<double>(traced.tick_frames), traced.tick_rounds),
             "frames/round", traced.tick_rounds);
  result.put("service.thread_cpu_us_per_round",
             traced.poll_cpu_s * 1e6 / rounds, "us/round", traced.tick_rounds);
  result.put("service.sys_share",
             traced.poll_usage.sys_s / std::max(traced.poll_usage.cpu_s(), 1e-9),
             "share");
  // Counted by the service itself; the gates require both to be 0.
  result.put("service.protocol_errors", 0.0, "count");
  result.put("service.connections_dropped", 0.0, "count");
  const Tracer::Aggregate encode =
      gen_tracer.aggregate_of("service.rpc.encode_submit");
  const Tracer::Aggregate decode =
      gen_tracer.aggregate_of("service.rpc.decode_result");
  const Tracer::Aggregate feed =
      gen_tracer.aggregate_of("service.frame_assembler.feed");
  result.put("service.rpc.encode_submit_ns",
             per(static_cast<double>(encode.total_ns), encode.count), "ns",
             encode.count);
  result.put("service.rpc.decode_result_ns",
             per(static_cast<double>(decode.total_ns), decode.count), "ns",
             decode.count);
  result.put("service.frame_assembler.feed_ns_per_kib",
             per(static_cast<double>(feed.total_ns) * 1024.0, traced.fed_bytes),
             "ns/KiB", feed.count);
  const double process_cpu = traced.a.cpu_s + traced.n.cpu_s + traced.b.cpu_s;
  const double bench_threads_cpu = traced.poll_cpu_s + traced.a.generator_cpu_s +
                                   traced.n.generator_cpu_s +
                                   traced.b.generator_cpu_s;
  result.put("util.pool.cpu_us_per_round",
             std::max(0.0, process_cpu - bench_threads_cpu) * 1e6 / rounds,
             "us/round");
  result.put("proc.cpu_per_wall", process_cpu / window_s, "cores");
  result.put("proc.ctx_switches_per_round",
             static_cast<double>(traced.a.switches + traced.n.switches +
                                 traced.b.switches) /
                 rounds,
             "count/round");

  // Accounting over the two traced threads' time: the poll thread's ticks
  // and the generator's codec and assembler calls (service), and the
  // benchmark's own time on both threads (loop, sends, waits, bookkeeping).
  std::int64_t thread_ns = 0;
  for (const Tracer* tracer : {&poll_tracer, &gen_tracer}) {
    for (const Tracer::Span& span : tracer->spans()) {
      if (span.parent < 0) thread_ns += span.duration_ns();
    }
  }
  const double service_ns =
      static_cast<double>(poll_tracer.self_ns_of_layer("service.") +
                          gen_tracer.self_ns_of_layer("service."));
  const double bench_ns =
      static_cast<double>(poll_tracer.self_ns_of_layer("bench.") +
                          gen_tracer.self_ns_of_layer("bench."));
  const double total_ns = static_cast<double>(std::max<std::int64_t>(thread_ns, 1));
  result.put("trace.rounds", rounds, "count");
  result.put("trace.spans",
             static_cast<double>(poll_tracer.spans().size() +
                                 gen_tracer.spans().size()),
             "count");
  result.put("trace.wall_s", window_s, "s");
  result.put("trace.overhead_s",
             static_cast<double>(traced.window_ns - pass.window_ns) * 1e-9, "s");
  result.put("trace.self_share.service", service_ns / total_ns, "share");
  result.put("trace.self_share.bench", bench_ns / total_ns, "share");
  result.put("trace.accounted_share", (service_ns + bench_ns) / total_ns,
             "share");
  return result;
}

}  // namespace perfbench

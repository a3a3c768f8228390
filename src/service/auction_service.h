// AuctionService: the persistent auction front-end.
//
// A poll-based, single-threaded multi-client TCP server that turns the
// in-process auction library into a long-lived coordinator: clients connect
// to 127.0.0.1:<port>, stream SubmitBids frames, and receive RoundResult /
// SettlementAck frames as market rounds clear. One poll loop owns every
// connection and every market — no locks on the serving path; start() runs
// the loop on a background thread, or drive poll_once() directly.
//
// Round composition is deterministic by construction: each bid names its
// (market, round); a market's round r clears when exactly
// engine.bids_per_round bids for it have arrived AND every earlier round of
// that market has cleared (strict round order — the mechanism's queue state
// makes order part of the result). The cleared slate is sorted canonically
// (market_engine.h), so the allocation and critical payments are a pure
// function of the bid set, bit-identical to driving the same slates through
// the in-process engine — never a function of TCP arrival interleaving.
//
// Hostile-client containment (the PR-4 bounded-read discipline, applied
// per connection):
//   - reads are non-blocking and buffered through a bounded FrameAssembler:
//     a slow-loris client trickling one byte per tick holds only its own
//     tiny buffer and never stalls other clients or the round loop;
//   - a corrupt or implausible frame, an oversized length claim, a protocol
//     violation (stale/far-future round, duplicate bid, bogus message type)
//     or a mid-frame disconnect kills THAT connection only;
//   - a SubmitBids slate is applied transactionally: a frame containing any
//     violating row is rejected whole (no partial rows enter buckets), and
//     a dropped connection's not-yet-cleared bids are purged, so no round
//     ever clears with bids from a connection that is gone;
//   - full buckets and the market cap are races an honest client cannot
//     detect, so bids losing those races are ignored, never punished;
//   - per-connection write queues are capped; a client that stops reading
//     is dropped rather than ballooning server memory;
//   - market and pending-round counts are bounded, so no bid pattern can
//     make server state grow without limit.
//
// Results are routed by monotonic connection id, never by fd: the kernel
// reuses fds immediately, and a number that can be reassigned must never
// name a result recipient.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "auction/mechanism.h"
#include "service/frame_assembler.h"
#include "service/market_engine.h"
#include "service/rpc_messages.h"

namespace sfl::service {

struct AuctionServiceConfig {
  /// 0 binds an ephemeral port (read it back with port()).
  std::uint16_t port = 0;
  /// Auction rule + round geometry, shared with the reference engine.
  MarketEngineConfig engine{};
  /// Per-frame size cap enforced before trusting any length claim.
  std::size_t max_frame_bytes = 1u << 20;
  /// Per-connection outbound queue cap; a client that stops reading is
  /// dropped when its queue would exceed this.
  std::size_t max_out_bytes = 8u << 20;
  /// Bounds on server-side state growth from hostile bid patterns.
  std::size_t max_markets = 4096;
  std::size_t max_pending_rounds = 64;  ///< per market, beyond next_round
  /// poll() timeout of the background run loop.
  int poll_timeout_ms = 20;
};

/// Monotonic serving counters (readable from any thread).
struct ServiceStats {
  std::size_t connections_accepted = 0;
  std::size_t connections_dropped = 0;  ///< closed for ANY reason
  std::size_t protocol_errors = 0;      ///< dropped for misbehavior
  std::size_t frames_received = 0;
  std::size_t bids_received = 0;
  std::size_t rounds_cleared = 0;
};

class AuctionService {
 public:
  /// Binds and listens; throws std::runtime_error when the socket cannot
  /// be created/bound (e.g. sandboxed environments).
  explicit AuctionService(AuctionServiceConfig config);
  ~AuctionService();

  AuctionService(const AuctionService&) = delete;
  AuctionService& operator=(const AuctionService&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }

  /// Starts the background poll loop. Idempotent while running; throws
  /// after stop() (the listening socket is gone — construct a new one).
  void start();
  /// Stops the loop, closes every socket, joins the thread. Idempotent.
  void stop();

  /// One poll cycle (accept, read, clear rounds, write). Only for
  /// single-threaded drivers and tests — never concurrently with start().
  void poll_once(int timeout_ms);

  [[nodiscard]] ServiceStats stats() const noexcept;

 private:
  struct Connection {
    /// Monotonic, never reused — the identity results are routed by.
    std::uint64_t id = 0;
    int fd = -1;
    FrameAssembler assembler;
    /// Outbound bytes not yet accepted by the kernel ([offset, size)).
    std::vector<std::byte> out;
    std::size_t out_offset = 0;
    bool dead = false;
  };

  /// Bids collected for one not-yet-cleared (market, round).
  struct Bucket {
    std::vector<BidRow> rows;
    /// Connection id that submitted rows[i] (parallel to rows) — what lets
    /// a dropped connection's bids be purged before the round clears.
    std::vector<std::uint64_t> row_owners;
    std::vector<std::uint64_t> contributor_ids;
  };

  struct MarketState {
    std::unique_ptr<sfl::auction::Mechanism> mechanism;
    sfl::auction::CandidateBatch batch;       ///< reused round arena
    sfl::auction::MechanismResult result;     ///< reused result buffers
    std::uint64_t next_round = 0;             ///< rounds cleared so far
    std::map<std::uint64_t, Bucket> pending;  ///< round -> bids collected
  };

  /// How one row of a SubmitBids slate is disposed of during validation.
  enum class BidDisposition {
    kAccept,     ///< enters its bucket when the whole slate is accepted
    kIgnore,     ///< benign race lost (full bucket / market cap): skipped
    kViolation,  ///< rejects the whole slate; the connection is dropped
  };

  void run();
  void accept_ready();
  void read_ready(Connection& conn);
  /// Decodes and applies one SubmitBids frame transactionally: every row is
  /// validated against pre-frame state before any row is applied, so false
  /// (= protocol violation; the caller drops the connection) means the
  /// frame mutated nothing.
  bool handle_frame(Connection& conn, const Frame& frame);
  /// Validates one row against current state + the slate rows accepted so
  /// far (frame_slots_ / frame_new_markets_). Mutates nothing.
  [[nodiscard]] BidDisposition validate_bid(std::uint64_t market_id,
                                            std::uint64_t round,
                                            std::uint64_t client) const;
  void apply_bid(const Connection& conn, std::uint64_t market_id,
                 std::uint64_t round, const BidRow& row);
  /// Tick-end clearing: every market the tick's frames touched whose
  /// next_round bucket is full clears that round through clear_market_round
  /// (each market clears one round per iteration, in market id order;
  /// cascades re-queue, preserving strict round order).
  void clear_tick_markets();
  /// Removes a gone connection's bids from every pending bucket.
  void purge_connection_bids(std::uint64_t conn_id);
  void queue_frame(Connection& conn, const Frame& frame);
  void flush_writes(Connection& conn);
  void drop_connection(Connection& conn, bool protocol_error);
  void reap_dead_connections();

  AuctionServiceConfig config_;
  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  /// poll_once ticks left to ignore the listen fd after fd exhaustion
  /// (EMFILE stays POLLIN-ready forever; re-polling it would spin).
  int accept_cooldown_ticks_ = 0;
  std::uint64_t next_connection_id_ = 1;

  std::map<std::uint64_t, Connection> connections_;  ///< keyed by id
  std::map<std::uint64_t, MarketState> markets_;

  /// Reused decode/encode buffers (steady-state serving reuses capacity).
  SubmitBids submit_scratch_;
  RoundResult result_scratch_;
  Frame frame_scratch_;
  Frame encode_scratch_;
  /// Per-frame validation scratch: (market, round) slots accepted so far,
  /// markets the slate would create, markets to run clearing on.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> frame_slots_;
  std::vector<std::uint64_t> frame_new_markets_;
  std::vector<std::uint64_t> frame_touched_markets_;
  std::vector<std::uint8_t> frame_row_accepted_;

  /// The config echo sent first on every accepted connection (encoded once).
  Frame hello_frame_;
  /// Tick-end clearing state: markets touched this tick, and the buckets
  /// taken for one iteration's rounds (kept as members so steady-state
  /// ticks reuse their capacity).
  std::vector<std::uint64_t> tick_ready_markets_;
  std::vector<std::uint64_t> ready_market_ids_;
  std::vector<Bucket> ready_buckets_;

  std::thread thread_;
  std::atomic<bool> stopping_{false};

  std::atomic<std::size_t> connections_accepted_{0};
  std::atomic<std::size_t> connections_dropped_{0};
  std::atomic<std::size_t> protocol_errors_{0};
  std::atomic<std::size_t> frames_received_{0};
  std::atomic<std::size_t> bids_received_{0};
  std::atomic<std::size_t> rounds_cleared_{0};
};

}  // namespace sfl::service

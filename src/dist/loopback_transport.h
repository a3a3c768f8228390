// LoopbackTransport: deterministic in-process transport with scriptable
// fault injection.
//
// Each logical worker is an in-process handler (default: the real codec
// worker, dist::serve_frame). send() computes the worker's reply
// synchronously and appends it to a delivery queue; receive() pops from
// that queue. Because nothing depends on threads or wall clocks, every
// fault scenario — dropped, duplicated, delayed, reordered, or corrupted
// replies, workers dying before or after serving a request — replays
// bit-identically from the same script, which is what the fault-injection
// suite (tests/dist/distributed_wdp_fault_test.cpp) needs to assert exact
// serial equality under failure.
//
// Fault semantics (all applied at send/receive time, in call order):
//  - kill_worker(w): future send(w) throws TransportError; queued replies
//    that came from w are purged (they were "in flight on the dead link").
//  - kill_worker_after_request(w): the NEXT request sent to w is accepted
//    but produces no reply, and w is dead afterwards — the classic
//    "worker died mid-round" failure.
//  - drop_next_replies(k): the next k computed replies are swallowed.
//  - duplicate_next_reply(): the next computed reply is delivered twice.
//  - delay_next_reply(r): the next computed reply becomes deliverable only
//    after r further receive() calls — the "slow shard" that forces the
//    coordinator's timeout + re-dispatch path.
//  - corrupt_next_reply(i, mask): XORs byte i of the next computed reply
//    (i taken modulo the frame size) — exercises the checksum rejection.
//  - deliver_lifo(true): receive() pops the newest deliverable reply first
//    (reordering).
//
// Timeouts are simulated: receive() returns false immediately when nothing
// is deliverable (after aging delayed entries by one receive call), so
// fault tests never sleep.
//
// A second, opt-in clock exists for benchmarks: set_worker_latency(w, d)
// stamps every reply from w as deliverable only d of wall time after the
// send, and receive() then really sleeps until the earliest pending reply
// (or the timeout) — a scripted straggler for the hedged-dispatch
// benchmarks. Latency zero (the default) keeps the
// simulated-time behavior exactly, so fault suites never sleep.
#pragma once

#include <chrono>
#include <cstddef>
#include <deque>
#include <functional>
#include <vector>

#include "dist/shard_transport.h"

namespace sfl::dist {

class LoopbackTransport final : public ShardTransport {
 public:
  /// Maps a request frame to a reply frame (a whole in-process worker).
  using Handler = std::function<Frame(const Frame&)>;

  /// `workers` logical workers, all running `handler` (default: the real
  /// codec worker serve_frame).
  explicit LoopbackTransport(std::size_t workers, Handler handler = {});

  [[nodiscard]] std::size_t worker_count() const noexcept override {
    return workers_;
  }
  void send(std::size_t worker, const Frame& frame) override;
  bool receive(Frame& frame, std::chrono::milliseconds timeout) override;
  [[nodiscard]] std::size_t receive_source() const noexcept override {
    return last_source_;
  }

  // --- elastic membership ---------------------------------------------------
  /// A fresh worker process occupies slot `worker`: the slot is revived
  /// (alive again, pending mid-round death disarmed) and a kWorkerHello
  /// frame is queued for the coordinator to pick up between rounds.
  void announce_worker_join(std::size_t worker);
  /// Slot `worker` begins a planned drain: a kWorkerGoodbye frame is queued,
  /// but the worker keeps serving until the coordinator processes it — the
  /// realistic drain window where requests and the goodbye race.
  void announce_worker_leave(std::size_t worker);

  // --- fault injection ------------------------------------------------------
  void kill_worker(std::size_t worker);
  void kill_worker_after_request(std::size_t worker);
  /// One-way link failure: the worker accepts every request (send keeps
  /// succeeding, so it is never marked dead) but none of its replies ever
  /// arrive — the case that forces re-dispatch to route PAST the home
  /// worker instead of retrying it.
  void mute_worker(std::size_t worker);
  void drop_next_replies(std::size_t count) { drop_next_ += count; }
  void duplicate_next_reply() { duplicate_next_ = true; }
  void delay_next_reply(std::size_t receive_calls) {
    delay_next_ = receive_calls;
  }
  void corrupt_next_reply(std::size_t byte_index, unsigned char xor_mask);
  void deliver_lifo(bool enabled) { lifo_ = enabled; }
  /// Wall-clock reply latency for one worker (0 = instant, the default):
  /// every subsequent reply from `worker` becomes deliverable only after
  /// this much real time, and receive() sleeps toward the earliest pending
  /// deadline instead of returning immediately. Benchmarks script a
  /// straggler with it; deterministic fault tests should keep it at zero.
  void set_worker_latency(std::size_t worker, std::chrono::microseconds latency);
  /// Disarms every pending fault (dead workers stay dead; queued replies
  /// stay queued) — ends a scripted scenario cleanly.
  void clear_faults();

  [[nodiscard]] bool worker_alive(std::size_t worker) const;
  /// Requests actually served by a worker handler (accepted sends).
  [[nodiscard]] std::size_t served_requests() const noexcept {
    return served_requests_;
  }

 private:
  struct Pending {
    Frame frame;
    std::size_t from_worker = 0;
    std::size_t ready_after = 0;  ///< receive() calls until deliverable
    /// Wall-clock deadline (latency mode only); time_point::min() = now.
    std::chrono::steady_clock::time_point ready_at =
        std::chrono::steady_clock::time_point::min();
  };

  std::size_t workers_;
  Handler handler_;
  std::vector<bool> alive_;
  std::vector<bool> die_on_next_request_;
  std::vector<bool> muted_;
  std::vector<std::chrono::microseconds> latency_;
  std::deque<Pending> queue_;

  std::size_t drop_next_ = 0;
  bool duplicate_next_ = false;
  std::size_t delay_next_ = 0;
  bool corrupt_armed_ = false;
  std::size_t corrupt_byte_ = 0;
  unsigned char corrupt_mask_ = 0;
  bool lifo_ = false;
  std::size_t served_requests_ = 0;
  std::size_t last_source_ = static_cast<std::size_t>(-1);
};

}  // namespace sfl::dist

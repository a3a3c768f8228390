// Lyapunov virtual queues for long-term constraints.
//
// A long-term average constraint  lim (1/K) sum_t a(t) <= s  is handled by
// the virtual queue  Q(t+1) = max(Q(t) + a(t) - s, 0).  Queue stability
// (Q(t)/t -> 0) implies the constraint holds; the drift-plus-penalty method
// trades queue growth against per-round objective via the V parameter.
//
// QueueBank holds one such queue per client (the Z_i sustainability
// queues) and drains them lazily. A round has arrivals on only a few queues
// (the auction's winners); every other queue just drains by its service
// rate, Z <- max(Z + 0.0 - r, 0). The bank therefore never sweeps all
// queues: it keeps a round clock and, per queue, the clock value its backlog
// is current to. A queue untouched for k rounds replays its k pending drain
// steps on its next read, evaluating the same expression the eager
// recursion would, in the same order — so every backlog is bit-identical to
// updating all queues every round. The replay stops once Z reaches 0 (0 is
// absorbing: max(0 - r, 0) = 0 for r >= 0) and is skipped when r == 0 (the
// step returns Z unchanged), so it never takes more steps than the eager
// sweep did on that queue. A round costs O(arrivals); a read costs O(1)
// plus the drain steps it replays, which amortise against the arrivals that
// raised the backlog.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "util/require.h"

namespace sfl::lyapunov {

class VirtualQueue {
 public:
  /// `service_rate` is the per-round long-term allowance (s above); >= 0.
  explicit VirtualQueue(double service_rate, double initial_backlog = 0.0);

  /// Q <- max(Q + arrival - service_rate, 0). `arrival` >= 0.
  void update(double arrival);

  /// Q <- max(Q + arrival - service, 0) with a round-specific service
  /// allowance (time-varying constraints, e.g. seasonal budgets).
  void update_with_service(double arrival, double service);

  [[nodiscard]] double backlog() const noexcept { return backlog_; }
  [[nodiscard]] double service_rate() const noexcept { return service_rate_; }
  [[nodiscard]] std::size_t updates() const noexcept { return updates_; }

  /// Time-average backlog over all updates so far (0 before any update);
  /// a bounded value as t grows certifies stability.
  [[nodiscard]] double average_backlog() const noexcept;

  /// Backlog divided by rounds elapsed — the constraint-violation bound
  /// certificate (Q(t)/t >= average violation up to t).
  [[nodiscard]] double normalized_backlog() const noexcept;

  void reset(double initial_backlog = 0.0);

 private:
  double service_rate_;
  double backlog_;
  double backlog_sum_ = 0.0;
  std::size_t updates_ = 0;
};

/// A bank of per-client virtual queues (the Z_i sustainability queues),
/// drained lazily (see the file comment). A round is any number of
/// arrive() calls, at most one per queue, closed by advance().
class QueueBank {
 public:
  /// One queue per client with the given per-round service rates (>= 0).
  explicit QueueBank(const std::vector<double>& service_rates);

  [[nodiscard]] std::size_t size() const noexcept { return rates_.size(); }

  /// This round's update of queue `index`: Z <- max(Z + arrival - r, 0).
  /// `arrival` >= 0; a queue takes at most one arrival per round (sum a
  /// client's arrivals first).
  void arrive(std::size_t index, double arrival);

  /// Closes the round: every queue without an arrival drains by its
  /// service rate (applied lazily, on its next read).
  void advance() noexcept { ++round_; }

  /// Current backlog of queue `index`, computed without catching the
  /// stored value up.
  [[nodiscard]] double backlog(std::size_t index) const;

  /// The gather behind a round's penalty vector: out[i] =
  /// backlog(ids[i]) * scale[i], catching each queue it reads up in place.
  /// `scale` and `out` hold ids.size() entries. Stops at the first id
  /// outside the bank and returns the number of rows written (ids.size()
  /// when every id is in range).
  std::size_t scaled_backlogs(std::span<const std::size_t> ids,
                              std::span<const double> scale,
                              std::span<double> out);

  [[nodiscard]] double max_backlog() const noexcept;
  [[nodiscard]] double total_backlog() const noexcept;

 private:
  /// Backlog of queue `index` (in range) at the round clock.
  [[nodiscard]] double current(std::size_t index) const noexcept;
  /// current(index), also stored back so later reads skip the replay.
  double catch_up(std::size_t index) noexcept;

  std::vector<double> rates_;
  std::vector<double> backlog_;
  /// Per queue: the round clock value its stored backlog is current to
  /// (round_ + 1 after an arrival in the open round).
  std::vector<std::uint64_t> current_to_;
  std::uint64_t round_ = 0;
};

}  // namespace sfl::lyapunov

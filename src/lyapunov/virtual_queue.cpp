#include "lyapunov/virtual_queue.h"

#include <algorithm>

namespace sfl::lyapunov {

using sfl::util::checked_index;
using sfl::util::require;

VirtualQueue::VirtualQueue(double service_rate, double initial_backlog)
    : service_rate_(service_rate), backlog_(initial_backlog) {
  require(service_rate >= 0.0, "service rate must be >= 0");
  require(initial_backlog >= 0.0, "initial backlog must be >= 0");
}

void VirtualQueue::update(double arrival) {
  update_with_service(arrival, service_rate_);
}

void VirtualQueue::update_with_service(double arrival, double service) {
  require(arrival >= 0.0, "queue arrivals must be >= 0");
  require(service >= 0.0, "queue service must be >= 0");
  backlog_ = std::max(backlog_ + arrival - service, 0.0);
  backlog_sum_ += backlog_;
  ++updates_;
}

double VirtualQueue::average_backlog() const noexcept {
  return updates_ > 0 ? backlog_sum_ / static_cast<double>(updates_) : 0.0;
}

double VirtualQueue::normalized_backlog() const noexcept {
  return updates_ > 0 ? backlog_ / static_cast<double>(updates_) : 0.0;
}

void VirtualQueue::reset(double initial_backlog) {
  require(initial_backlog >= 0.0, "initial backlog must be >= 0");
  backlog_ = initial_backlog;
  backlog_sum_ = 0.0;
  updates_ = 0;
}

namespace {

/// `steps` arrival-free rounds of the Lindley recursion on backlog `z`:
/// exactly the eager update's max(z + 0.0 - rate, 0.0), stopping early once
/// z is 0 (absorbing) and skipped when rate == 0 (each step returns z).
double drain(double z, double rate, std::uint64_t steps) noexcept {
  if (rate == 0.0) return z;
  for (; steps > 0 && z != 0.0; --steps) z = std::max(z + 0.0 - rate, 0.0);
  return z;
}

}  // namespace

QueueBank::QueueBank(const std::vector<double>& service_rates)
    : rates_(service_rates),
      backlog_(service_rates.size(), 0.0),
      current_to_(service_rates.size(), 0) {
  require(!service_rates.empty(), "queue bank needs at least one queue");
  for (const double rate : service_rates) {
    require(rate >= 0.0, "service rate must be >= 0");
  }
}

void QueueBank::arrive(std::size_t index, double arrival) {
  checked_index(index, size(), "queue bank");
  require(arrival >= 0.0, "queue arrivals must be >= 0");
  require(current_to_[index] <= round_,
          "a queue takes at most one arrival per round");
  const double z = catch_up(index);
  backlog_[index] = std::max(z + arrival - rates_[index], 0.0);
  current_to_[index] = round_ + 1;
}

double QueueBank::backlog(std::size_t index) const {
  return current(checked_index(index, size(), "queue bank"));
}

double QueueBank::current(std::size_t index) const noexcept {
  const double z = backlog_[index];
  if (z == 0.0 || current_to_[index] >= round_) return z;
  return drain(z, rates_[index], round_ - current_to_[index]);
}

double QueueBank::catch_up(std::size_t index) noexcept {
  if (current_to_[index] < round_) {
    backlog_[index] = current(index);
    current_to_[index] = round_;
  }
  return backlog_[index];
}

std::size_t QueueBank::scaled_backlogs(std::span<const std::size_t> ids,
                                       std::span<const double> scale,
                                       std::span<double> out) {
  const std::size_t n = size();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::size_t id = ids[i];
    if (id >= n) return i;
    // Zero backlogs (most of a large pool) take no stamp check and no write.
    const double z = backlog_[id];
    out[i] = (z == 0.0 ? z : catch_up(id)) * scale[i];
  }
  return ids.size();
}

double QueueBank::max_backlog() const noexcept {
  double best = 0.0;
  for (std::size_t i = 0; i < size(); ++i) best = std::max(best, current(i));
  return best;
}

double QueueBank::total_backlog() const noexcept {
  double sum = 0.0;
  for (std::size_t i = 0; i < size(); ++i) sum += current(i);
  return sum;
}

}  // namespace sfl::lyapunov

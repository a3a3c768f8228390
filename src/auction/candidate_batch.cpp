#include "auction/candidate_batch.h"

#include <cmath>

#include "util/require.h"

namespace sfl::auction {

using sfl::util::require;

namespace {

// Non-finite economics never reach the solvers: +inf values or bids break
// the critical-payment order, and an infinite energy cost turns the Z_i*e_i
// penalty into NaN when Z_i = 0.
void require_value(double value) {
  require(std::isfinite(value) && value >= 0.0,
          "candidate value must be finite and >= 0");
}

void require_bid(double bid) {
  require(std::isfinite(bid) && bid >= 0.0,
          "candidate bid must be finite and >= 0");
}

void require_energy_cost(double energy_cost) {
  require(std::isfinite(energy_cost) && energy_cost > 0.0,
          "candidate energy cost must be finite and > 0");
}

}  // namespace

CandidateBatch CandidateBatch::from_aos(std::span<const Candidate> candidates) {
  CandidateBatch batch;
  batch.reserve(candidates.size());
  for (const Candidate& candidate : candidates) {
    batch.push_back(candidate);
  }
  return batch;
}

void CandidateBatch::reserve(std::size_t capacity) {
  ids_.reserve(capacity);
  values_.reserve(capacity);
  bids_.reserve(capacity);
  energy_costs_.reserve(capacity);
}

void CandidateBatch::clear() noexcept {
  ids_.clear();
  values_.clear();
  bids_.clear();
  energy_costs_.clear();
}

void CandidateBatch::push_back(const Candidate& candidate) {
  emplace(candidate.id, candidate.value, candidate.bid, candidate.energy_cost);
}

void CandidateBatch::emplace(ClientId id, double value, double bid,
                             double energy_cost) {
  // Validate-at-construction: one branch triple per element here buys
  // scan-free solver calls every round the slate is reused.
  require_value(value);
  require_bid(bid);
  require_energy_cost(energy_cost);
  ids_.push_back(id);
  values_.push_back(value);
  bids_.push_back(bid);
  energy_costs_.push_back(energy_cost);
}

void validate_batch(const CandidateBatch& batch) {
  for (const double v : batch.values()) require_value(v);
  for (const double b : batch.bids()) require_bid(b);
  for (const double e : batch.energy_costs()) require_energy_cost(e);
}

}  // namespace sfl::auction

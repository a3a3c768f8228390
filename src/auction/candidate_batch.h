// Structure-of-arrays candidate slate: the one round input of every
// mechanism.
//
// The production hot path (score N candidates, select top-m) is a streaming
// pass over four parallel arrays. CandidateBatch keeps ids, values, bids,
// and energy costs contiguous so scoring vectorizes and stays
// cache-resident at N = 100k+; `std::span` views let solvers and payment
// rules consume the arrays without copying. `from_aos` gathers the AoS
// `std::vector<Candidate>` form that tests and small markets build.
#pragma once

#include <span>
#include <vector>

#include "auction/types.h"

namespace sfl::auction {

class CandidateBatch {
 public:
  CandidateBatch() = default;

  /// Gathers an AoS slate into parallel arrays. Validates every candidate.
  [[nodiscard]] static CandidateBatch from_aos(
      std::span<const Candidate> candidates);

  [[nodiscard]] std::size_t size() const noexcept { return ids_.size(); }
  [[nodiscard]] bool empty() const noexcept { return ids_.empty(); }

  void reserve(std::size_t capacity);
  void clear() noexcept;

  /// Appends one candidate. Validation happens HERE, once per slate
  /// construction (all three fields finite, value >= 0, bid >= 0, energy
  /// cost > 0; throws std::invalid_argument) — the per-round solvers then
  /// trust the batch and skip the per-candidate scans on the hot path
  /// (re-enable them with SFL_VALIDATE=1 or a debug build; see
  /// util::validate_mode_enabled).
  void push_back(const Candidate& candidate);
  void emplace(ClientId id, double value, double bid, double energy_cost);

  /// Materializes candidate `index` (bounds-checked by the caller).
  [[nodiscard]] Candidate at(std::size_t index) const {
    return Candidate{.id = ids_[index],
                     .value = values_[index],
                     .bid = bids_[index],
                     .energy_cost = energy_costs_[index]};
  }

  [[nodiscard]] std::span<const ClientId> ids() const noexcept { return ids_; }
  [[nodiscard]] std::span<const double> values() const noexcept {
    return values_;
  }
  [[nodiscard]] std::span<const double> bids() const noexcept { return bids_; }
  [[nodiscard]] std::span<const double> energy_costs() const noexcept {
    return energy_costs_;
  }

 private:
  std::vector<ClientId> ids_;
  std::vector<double> values_;
  std::vector<double> bids_;
  std::vector<double> energy_costs_;
};

/// Full per-candidate scan of an already-constructed batch (the checks
/// emplace applies element-wise). Construction normally makes this
/// redundant; solvers call it only under util::validate_mode_enabled() to
/// catch post-construction corruption while debugging.
void validate_batch(const CandidateBatch& batch);

}  // namespace sfl::auction

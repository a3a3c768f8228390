#include "auction/mechanism.h"

namespace sfl::auction {

MechanismResult Mechanism::run_round(const std::vector<Candidate>& candidates,
                                     const RoundContext& context) {
  return run_round(CandidateBatch::from_aos(candidates), context);
}

void Mechanism::run_round_into(const CandidateBatch& batch,
                               const RoundContext& context,
                               MechanismResult& out) {
  // Default adapter: mechanisms without a scratch-reusing path still work;
  // they just pay the allocating round's cost.
  out = run_round(batch, context);
}

}  // namespace sfl::auction

// Test helper: a decorator that forwards the round API to a wrapped rule
// and hides the rule's concrete type, the way perfbench's ProbedMechanism
// wraps LTO-VCG. Queue diagnostics must reach the rule via underlying().
#pragma once

#include <memory>
#include <string>
#include <utility>

#include "auction/mechanism.h"

namespace sfl::core {

class ForwardingMechanism final : public sfl::auction::Mechanism {
 public:
  explicit ForwardingMechanism(std::unique_ptr<sfl::auction::Mechanism> inner)
      : inner_(std::move(inner)) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  using Mechanism::run_round;
  [[nodiscard]] sfl::auction::MechanismResult run_round(
      const sfl::auction::CandidateBatch& batch,
      const sfl::auction::RoundContext& context) override {
    return inner_->run_round(batch, context);
  }
  void run_round_into(const sfl::auction::CandidateBatch& batch,
                      const sfl::auction::RoundContext& context,
                      sfl::auction::MechanismResult& out) override {
    inner_->run_round_into(batch, context, out);
  }
  void settle(const sfl::auction::RoundSettlement& settlement) override {
    inner_->settle(settlement);
  }
  [[nodiscard]] sfl::auction::Mechanism* underlying() noexcept override {
    return inner_->underlying();
  }
  [[nodiscard]] bool is_truthful() const noexcept override {
    return inner_->is_truthful();
  }

 private:
  std::unique_ptr<sfl::auction::Mechanism> inner_;
};

}  // namespace sfl::core

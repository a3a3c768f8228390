// MechanismRegistry: string-keyed construction of every auction rule.
//
// Benches, examples, and the experiment runner used to each carry a private
// name -> mechanism if-chain; this registry is the single source of truth
// for mechanism names. A factory receives one MechanismConfig — common
// market facts (client count, budget, seed) plus per-mechanism option
// structs — and returns a ready Mechanism. describe() lists every key with
// a one-line summary, so front-ends can enumerate rules without linking
// against their headers.
//
// Built-in keys (see registry.cpp): lto-vcg, lto-vcg-sharded,
// lto-vcg-unpaced, myopic-vcg, pay-as-bid,
// fixed-price, adaptive-price, random-stipend, proportional-share,
// first-best-oracle, budgeted-oracle, budgeted-oracle-par, greedy-concave,
// greedy-concave-par, myopic-vcg-ext, myopic-vcg-ext-par. New mechanisms
// register under a new key; front-ends address rules by key only.
// Execution variants (same rule, bit-identical results, different thread
// layout) register through add_variant so the property harness covers them
// automatically.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "auction/mechanism.h"
#include "auction/round_scratch.h"

namespace sfl::auction {

/// Options consumed by the "lto-vcg" / "lto-vcg-unpaced" factories.
struct LtoVcgOptions {
  /// Lyapunov penalty weight V > 0.
  double v_weight = 10.0;
  /// Explicit per-client pacing rates r_i; wins over pacing_rate when
  /// non-empty. Ignored by "lto-vcg-unpaced".
  std::vector<double> energy_rates{};
  /// Uniform pacing rate applied to all num_clients clients when
  /// energy_rates is empty and the value is > 0. Ignored by
  /// "lto-vcg-unpaced".
  double pacing_rate = 0.0;
  /// Optional time-varying budget profile (see LtoVcgConfig).
  std::vector<double> budget_schedule{};
  /// E12 ablations: VCG-externality payments instead of critical values,
  /// and the winning-bid queue arrival proxy instead of realized payments.
  bool vcg_externality_payments = false;
  bool bid_proxy_queue_arrival = false;
  /// WDP shard count, consumed by the "lto-vcg-sharded" key: 0 = auto
  /// (ShardedWdpConfig::shards), 1 = serial (bit-identical to "lto-vcg"),
  /// k > 1 = exactly k contiguous batch spans scored on the shared thread
  /// pool. Any shard count produces identical allocations and payments;
  /// only wall time changes. "lto-vcg" itself always clears serially.
  std::size_t shards = 0;
  /// Externally-owned RoundScratch shared across mechanisms (nullptr =
  /// each mechanism owns a private one). Multi-mechanism comparison runs
  /// hand every LTO-family mechanism the same warmed scratch so only the
  /// first one pays the buffer-growth allocations; safe whenever no two
  /// mechanisms run a round concurrently.
  sfl::auction::RoundScratch* shared_scratch = nullptr;
};

/// Options consumed by the "fixed-price" factory.
struct FixedPriceOptions {
  double price = 1.0;
};

/// Options consumed by the "random-stipend" factory.
struct RandomStipendOptions {
  double stipend = 1.0;
};

/// Options consumed by the "adaptive-price" factory (mirrors
/// AdaptivePriceConfig without pulling in the mechanism header).
struct AdaptivePriceOptions {
  double initial_price = 1.0;  ///< > 0
  double step = 0.05;          ///< multiplicative step in (0, 1)
  double min_price = 0.01;     ///< > 0
  double max_price = 100.0;    ///< >= min_price
};

/// Options consumed by the "budgeted-oracle" factory.
struct BudgetedOracleOptions {
  /// Knapsack DP money grid.
  double resolution = 0.05;
};

/// Options consumed by the parallel-oracle keys ("budgeted-oracle-par",
/// "greedy-concave"/"greedy-concave-par", "myopic-vcg-ext"/
/// "myopic-vcg-ext-par"): the shared-pool lane knob for the expensive
/// comparison oracles. Every thread count produces bit-identical
/// allocations and payments (the property harness sweeps this); threads
/// only changes wall time.
struct OracleOptions {
  /// 0 = auto (hardware concurrency, span-capped), 1 = serial, k = exactly
  /// k lanes. The "-par" variant keys consume this; the serial canonical
  /// keys pin threads = 1.
  std::size_t threads = 0;
  /// ConcaveValuation scale for the greedy-concave keys.
  double greedy_scale = 20.0;
};

/// Everything a factory may need. Callers fill the common fields plus the
/// option struct(s) for the mechanisms they intend to build; unused options
/// are ignored.
struct MechanismConfig {
  /// Number of clients in the market (needed by uniform pacing).
  std::size_t num_clients = 0;
  /// Long-term per-round payment budget B-bar.
  double per_round_budget = 5.0;
  /// Seed for randomized rules (random-stipend).
  std::uint64_t seed = 42;

  LtoVcgOptions lto{};
  FixedPriceOptions fixed_price{};
  AdaptivePriceOptions adaptive_price{};
  RandomStipendOptions random_stipend{};
  BudgetedOracleOptions budgeted_oracle{};
  OracleOptions oracle{};
};

/// One registry entry's metadata.
struct MechanismInfo {
  std::string name;
  std::string description;
  /// Non-empty when this key is an execution variant of another key: same
  /// auction rule, same bit-identical results on every input, different
  /// thread layout (shard or lane counts).
  /// The property harness sweeps trajectory equality over every key whose
  /// variant_of names the same canonical rule — registering a new variant
  /// here is ALL it takes to be covered (no hand-maintained test list).
  std::string variant_of;
  /// The tuning fields of MechanismConfig this key's builder reads, by
  /// field path ("lto.shards", "oracle.threads", "oracle.greedy_scale").
  /// Declared next to the builder, so a front end can set a knob only for
  /// the keys that read it and reject it for the rest instead of running
  /// on a setting that does nothing.
  std::vector<std::string> knobs;

  [[nodiscard]] bool reads(std::string_view knob) const;
};

class MechanismRegistry {
 public:
  using Factory =
      std::function<std::unique_ptr<Mechanism>(const MechanismConfig&)>;

  /// The process-wide registry, pre-populated with the built-in rules.
  [[nodiscard]] static MechanismRegistry& global();

  /// Registers a factory under `name`, with the tuning knobs it reads (see
  /// MechanismInfo::knobs). Throws std::invalid_argument on a duplicate key
  /// or an empty factory.
  void add(std::string name, std::string description, Factory factory,
           std::vector<std::string> knobs = {});

  /// Registers an execution variant of `variant_of` (same rule, same
  /// results, different thread layout); the property harness's trajectory
  /// sweep picks it up automatically.
  void add_variant(std::string name, std::string variant_of,
                   std::string description, Factory factory,
                   std::vector<std::string> knobs = {});

  [[nodiscard]] bool contains(const std::string& name) const noexcept;

  /// The named key's metadata, or nullptr for an unknown key. The pointer
  /// is valid until the next add.
  [[nodiscard]] const MechanismInfo* info(
      const std::string& name) const noexcept;

  /// Builds the named mechanism. Throws std::invalid_argument for unknown
  /// names, with the known keys in the message.
  [[nodiscard]] std::unique_ptr<Mechanism> build(
      const std::string& name, const MechanismConfig& config) const;

  /// Every registered key with its one-line description, in registration
  /// order (built-ins first, in their canonical comparison order).
  [[nodiscard]] std::vector<MechanismInfo> describe() const;

  /// Just the keys, in registration order.
  [[nodiscard]] std::vector<std::string> names() const;

  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

 private:
  struct Entry {
    MechanismInfo info;
    Factory factory;
  };
  std::vector<Entry> entries_;

  [[nodiscard]] const Entry* find(const std::string& name) const noexcept;
};

/// Convenience: MechanismRegistry::global().build(name, config).
[[nodiscard]] std::unique_ptr<Mechanism> build_mechanism(
    const std::string& name, const MechanismConfig& config);

}  // namespace sfl::auction

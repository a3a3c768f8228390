#include "auction/registry.h"

#include <sstream>
#include <utility>

#include "auction/adaptive_price.h"
#include "auction/baselines.h"
#include "core/async_settler.h"
#include "core/long_term_online_vcg.h"
#include "util/require.h"

namespace sfl::auction {

using sfl::util::require;

namespace {

/// Applies the lto.async_settle knob: wraps the rule in the streamed
/// settlement pipeline (results stay bit-identical; settle() just moves to
/// the shared pool behind a flush barrier).
std::unique_ptr<Mechanism> maybe_async(std::unique_ptr<Mechanism> mechanism,
                                       const MechanismConfig& config) {
  if (!config.lto.async_settle) return mechanism;
  return std::make_unique<core::AsyncSettlementMechanism>(std::move(mechanism));
}

core::LtoVcgConfig lto_config_from(const MechanismConfig& config, bool paced) {
  core::LtoVcgConfig lto;
  lto.v_weight = config.lto.v_weight;
  lto.per_round_budget = config.per_round_budget;
  lto.budget_schedule = config.lto.budget_schedule;
  lto.shared_scratch = config.lto.shared_scratch;
  if (config.lto.vcg_externality_payments) {
    lto.payment_rule = core::PaymentRule::kVcgExternality;
  }
  if (config.lto.bid_proxy_queue_arrival) {
    lto.queue_arrival = core::QueueArrivalMode::kBidProxy;
  }
  lto.oracle_threads = config.lto.oracle_threads;
  if (paced) {
    if (!config.lto.energy_rates.empty()) {
      lto.energy_rates = config.lto.energy_rates;
    } else if (config.lto.pacing_rate > 0.0) {
      require(config.num_clients > 0,
              "uniform pacing needs config.num_clients > 0");
      lto.energy_rates.assign(config.num_clients, config.lto.pacing_rate);
    }
  }
  return lto;
}

/// The distributed keys: paced LTO-VCG on the DistributedWdp coordinator
/// (lto.dist_workers = 0 picks `workers`). shards = 0 lets the coordinator
/// derive one span per worker — reproducible from the configuration alone,
/// unlike hardware auto.
std::unique_ptr<Mechanism> build_distributed(const MechanismConfig& config,
                                             const char* name,
                                             std::size_t workers, bool hedge) {
  core::LtoVcgConfig lto = lto_config_from(config, /*paced=*/true);
  lto.shards = config.lto.shards;
  lto.dist_workers =
      config.lto.dist_workers == 0 ? workers : config.lto.dist_workers;
  lto.dist_hedge = hedge;
  lto.name = name;
  return maybe_async(std::make_unique<core::LongTermOnlineVcgMechanism>(lto),
                     config);
}

void register_builtins(MechanismRegistry& registry) {
  registry.add(
      "lto-vcg",
      "Long-term online VCG (the paper mechanism): drift-plus-penalty "
      "affine maximizer, truthful critical payments, budget queue Q and "
      "per-client pacing queues Z_i",
      [](const MechanismConfig& config) -> std::unique_ptr<Mechanism> {
        return maybe_async(std::make_unique<core::LongTermOnlineVcgMechanism>(
                               lto_config_from(config, /*paced=*/true)),
                           config);
      });
  registry.add_variant(
      "lto-vcg-sharded", "lto-vcg",
      "LTO-VCG with the multi-threaded sharded WDP engine: identical "
      "allocations and payments to lto-vcg, spans scored/selected in "
      "parallel (lto.shards: 0 = auto, 1 = serial, k = k shards)",
      [](const MechanismConfig& config) -> std::unique_ptr<Mechanism> {
        core::LtoVcgConfig lto = lto_config_from(config, /*paced=*/true);
        lto.shards = config.lto.shards;
        lto.name = "lto-vcg-sharded";
        return maybe_async(
            std::make_unique<core::LongTermOnlineVcgMechanism>(lto), config);
      });
  registry.add_variant(
      "lto-vcg-dist", "lto-vcg",
      "LTO-VCG over the distributed WDP coordinator: batch spans ship to "
      "shard workers through the wire codec and their top-(m+1) survivor "
      "sets merge exactly, so allocations and payments stay bit-identical "
      "to lto-vcg for any worker count, reply order, or recovered fault "
      "(lto.dist_workers: 0 = default 2, k = k loopback workers)",
      [](const MechanismConfig& config) -> std::unique_ptr<Mechanism> {
        return build_distributed(config, "lto-vcg-dist", /*workers=*/2,
                                 config.lto.hedge);
      });
  registry.add_variant(
      "lto-vcg-dist-hedge", "lto-vcg",
      "LTO-VCG on the hedged distributed WDP coordinator: adaptive "
      "per-worker deadlines (observed latency mean + k*stddev) re-dispatch "
      "laggard shards to the next live worker in rendezvous order without "
      "abandoning the original attempt, first valid reply wins, and "
      "workers join/leave between rounds via kWorkerHello/kWorkerGoodbye — "
      "settled trajectories bit-identical to lto-vcg under any straggler "
      "or membership schedule (lto.dist_workers: 0 = default 4; hedging "
      "forced on)",
      [](const MechanismConfig& config) -> std::unique_ptr<Mechanism> {
        return build_distributed(config, "lto-vcg-dist-hedge", /*workers=*/4,
                                 /*hedge=*/true);
      });
  registry.add_variant(
      "lto-vcg-async", "lto-vcg",
      "LTO-VCG behind the streamed settlement pipeline: settle() enqueues "
      "onto the shared pool, run_round drains first (flush barrier), so "
      "trajectories stay bit-identical to lto-vcg while queue updates "
      "overlap the caller's training work (lto.shards still applies)",
      [](const MechanismConfig& config) -> std::unique_ptr<Mechanism> {
        core::LtoVcgConfig lto = lto_config_from(config, /*paced=*/true);
        lto.shards = config.lto.shards;
        lto.name = "lto-vcg-async";
        return std::make_unique<core::AsyncSettlementMechanism>(
            std::make_unique<core::LongTermOnlineVcgMechanism>(lto));
      });
  registry.add(
      "lto-vcg-unpaced",
      "LTO-VCG ablation with the sustainability queues Z_i disabled "
      "(budget queue only)",
      [](const MechanismConfig& config) -> std::unique_ptr<Mechanism> {
        return maybe_async(std::make_unique<core::LongTermOnlineVcgMechanism>(
                               lto_config_from(config, /*paced=*/false)),
                           config);
      });
  registry.add(
      "myopic-vcg",
      "Per-round VCG: top-m by (value - bid) with critical payments; "
      "truthful but budget-blind",
      [](const MechanismConfig&) -> std::unique_ptr<Mechanism> {
        return std::make_unique<MyopicVcgMechanism>();
      });
  registry.add(
      "pay-as-bid",
      "Top-m by (value - bid), winners paid their bids; manipulable",
      [](const MechanismConfig&) -> std::unique_ptr<Mechanism> {
        return std::make_unique<PayAsBidGreedyMechanism>();
      });
  registry.add(
      "fixed-price",
      "Posted price: bids at or under the price win (highest value first), "
      "all paid the price",
      [](const MechanismConfig& config) -> std::unique_ptr<Mechanism> {
        return std::make_unique<FixedPriceMechanism>(config.fixed_price.price);
      });
  registry.add(
      "adaptive-price",
      "Posted price with a multiplicative budget-tracking update after "
      "each round",
      [](const MechanismConfig& config) -> std::unique_ptr<Mechanism> {
        return std::make_unique<AdaptivePostedPriceMechanism>(
            AdaptivePriceConfig{.initial_price = config.adaptive_price.initial_price,
                                .step = config.adaptive_price.step,
                                .min_price = config.adaptive_price.min_price,
                                .max_price = config.adaptive_price.max_price});
      });
  registry.add(
      "random-stipend",
      "Uniform random m winners paid a fixed stipend (FedAvg-style "
      "sampling)",
      [](const MechanismConfig& config) -> std::unique_ptr<Mechanism> {
        return std::make_unique<RandomSelectionMechanism>(
            config.random_stipend.stipend, config.seed);
      });
  registry.add(
      "proportional-share",
      "Singer-style budget-feasible truthful mechanism with proportional "
      "budget shares",
      [](const MechanismConfig&) -> std::unique_ptr<Mechanism> {
        return std::make_unique<ProportionalShareMechanism>();
      });
  registry.add(
      "first-best-oracle",
      "Clairvoyant welfare optimum paying true costs; regret upper bound, "
      "not a real mechanism",
      [](const MechanismConfig&) -> std::unique_ptr<Mechanism> {
        return std::make_unique<FirstBestOracleMechanism>();
      });
  registry.add(
      "budgeted-oracle",
      "Clairvoyant budget-feasible knapsack optimum paying true costs; "
      "information-rent reference",
      [](const MechanismConfig& config) -> std::unique_ptr<Mechanism> {
        return std::make_unique<BudgetedOracleMechanism>(
            config.budgeted_oracle.resolution);
      });
  registry.add_variant(
      "budgeted-oracle-par", "budgeted-oracle",
      "Budgeted oracle with each knapsack DP layer split across the shared "
      "pool under a layer barrier: identical selections and payments to "
      "budgeted-oracle at every lane count (oracle.threads: 0 = auto, 1 = "
      "serial, k = k lanes)",
      [](const MechanismConfig& config) -> std::unique_ptr<Mechanism> {
        return std::make_unique<BudgetedOracleMechanism>(
            config.budgeted_oracle.resolution, config.oracle.threads);
      });
  registry.add(
      "greedy-concave",
      "Concave-valuation greedy (diminishing returns of total selected "
      "mass), winners paid their bids; submodular-WDP approximation "
      "reference (oracle.greedy_scale sets the valuation scale)",
      [](const MechanismConfig& config) -> std::unique_ptr<Mechanism> {
        return std::make_unique<GreedyConcaveMechanism>(
            config.oracle.greedy_scale);
      });
  registry.add_variant(
      "greedy-concave-par", "greedy-concave",
      "Greedy-concave with each marginal scan run as per-chunk argmax on "
      "the shared pool, reduced under the serial total order: identical "
      "selections and payments to greedy-concave at every lane count "
      "(oracle.threads: 0 = auto, 1 = serial, k = k lanes)",
      [](const MechanismConfig& config) -> std::unique_ptr<Mechanism> {
        return std::make_unique<GreedyConcaveMechanism>(
            config.oracle.greedy_scale, config.oracle.threads);
      });
  registry.add(
      "myopic-vcg-ext",
      "Per-round VCG paying explicit leave-one-out externalities (equal to "
      "myopic-vcg's critical values for the modular objective, computed "
      "the O(m x WDP) way); payment-equality reference",
      [](const MechanismConfig&) -> std::unique_ptr<Mechanism> {
        return std::make_unique<MyopicVcgExtMechanism>();
      });
  registry.add_variant(
      "myopic-vcg-ext-par", "myopic-vcg-ext",
      "Myopic VCG-externality with the m independent leave-one-out solves "
      "partitioned across the shared pool: identical payments to "
      "myopic-vcg-ext at every lane count (oracle.threads: 0 = auto, 1 = "
      "serial, k = k lanes)",
      [](const MechanismConfig& config) -> std::unique_ptr<Mechanism> {
        return std::make_unique<MyopicVcgExtMechanism>(config.oracle.threads);
      });
}

}  // namespace

MechanismRegistry& MechanismRegistry::global() {
  static MechanismRegistry registry = [] {
    MechanismRegistry built;
    register_builtins(built);
    return built;
  }();
  return registry;
}

void MechanismRegistry::add(std::string name, std::string description,
                            Factory factory) {
  add_variant(std::move(name), /*variant_of=*/"", std::move(description),
              std::move(factory));
}

void MechanismRegistry::add_variant(std::string name, std::string variant_of,
                                    std::string description, Factory factory) {
  require(!name.empty(), "mechanism key must be non-empty");
  require(static_cast<bool>(factory), "mechanism factory must be callable");
  require(find(name) == nullptr,
          "mechanism key already registered: " + name);
  require(name != variant_of, "a mechanism cannot be its own variant");
  entries_.push_back(Entry{
      .info = MechanismInfo{.name = std::move(name),
                            .description = std::move(description),
                            .variant_of = std::move(variant_of)},
      .factory = std::move(factory)});
}

bool MechanismRegistry::contains(const std::string& name) const noexcept {
  return find(name) != nullptr;
}

const MechanismRegistry::Entry* MechanismRegistry::find(
    const std::string& name) const noexcept {
  for (const Entry& entry : entries_) {
    if (entry.info.name == name) return &entry;
  }
  return nullptr;
}

std::unique_ptr<Mechanism> MechanismRegistry::build(
    const std::string& name, const MechanismConfig& config) const {
  const Entry* entry = find(name);
  if (entry == nullptr) {
    std::ostringstream message;
    message << "unknown mechanism: " << name << " (known:";
    for (const Entry& known : entries_) message << ' ' << known.info.name;
    message << ')';
    throw std::invalid_argument(message.str());
  }
  return entry->factory(config);
}

std::vector<MechanismInfo> MechanismRegistry::describe() const {
  std::vector<MechanismInfo> infos;
  infos.reserve(entries_.size());
  for (const Entry& entry : entries_) infos.push_back(entry.info);
  return infos;
}

std::vector<std::string> MechanismRegistry::names() const {
  std::vector<std::string> keys;
  keys.reserve(entries_.size());
  for (const Entry& entry : entries_) keys.push_back(entry.info.name);
  return keys;
}

std::unique_ptr<Mechanism> build_mechanism(const std::string& name,
                                           const MechanismConfig& config) {
  return MechanismRegistry::global().build(name, config);
}

}  // namespace sfl::auction

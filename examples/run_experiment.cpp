// Configurable experiment runner: the library's capabilities behind one
// key=value command line, with CSV output for downstream plotting.
//
// Usage:
//   run_experiment [scenario=static|wireless|online|multi]
//                  [mechanism=lto-vcg] [rounds=200] [clients=40]
//                  [partition=dirichlet|iid|quantity] [alpha=0.3]
//                  [noisy_fraction=0.3] [flip_prob=0.8]
//                  [budget=6] [winners=8] [v=10] [pacing=0.5] [shards=0]
//                  [async_settle=0] [dist_workers=0] [hedge=1]
//                  [oracle_threads=0] [greedy_scale=20]
//                  [model=logreg|mlp] [hidden=32] [lr=0.05] [local_steps=5]
//                  [proximal_mu=0]
//                  [use_reputation=1] [energy=0] [seed=42]
//                  [csv=/path/to/rounds.csv]
//
// Every key must be one the chosen scenario reads: a misspelled key, or one
// that only applies to another scenario, model or partition, is named on
// stderr and the run exits 2 before any round runs.
//
// Scenarios (PR-10 extensions; see README "Scenario extensions"):
//   scenario=static    the default FL training run.
//   scenario=wireless  same FL run, but per-client energy costs are DERIVED
//                      from the wireless cellular uplink model
//                      (sim::WirelessSpec: annulus drop + path loss +
//                      Rayleigh fading -> Shannon-rate transmit energy).
//                      Knobs: cell_radius, pathloss, tx_power, payload_bits,
//                      reference_snr, normalize_energy.
//   scenario=online    auction-only streaming market (no FL loop): clients
//                      arrive/depart mid-horizon with per-client win budgets
//                      (core::OnlineArrivalSpec). Knobs: arrival_window,
//                      min_sojourn, max_sojourn, min_win_budget,
//                      max_win_budget; csv= writes the per-round trajectory.
//   scenario=multi     auction-only multi-requester market: `requesters`
//                      LTO mechanisms compete for one client population each
//                      round under cross-market exclusivity (one fused
//                      exclusive MarketBatch clear per round). Knobs:
//                      requesters, requester_spread, shards; csv= writes the
//                      per-round trajectory. Exits non-zero if any client
//                      ever wins two markets in one round.
//
// Mechanisms: any key in the MechanismRegistry — run with mechanism=list
// to print them all with descriptions. mechanism=lto-vcg-sharded runs the
// multi-threaded WDP: `shards` selects the span count (0 = one shard per
// hardware thread, 1 = serial, k = exactly k shards) and produces the same
// winners and payments as lto-vcg at any setting.
//
// async_settle=1 (or mechanism=lto-vcg-async) streams settlements through
// the async pipeline: mechanism queue updates run on the shared pool while
// the round does local training, behind a flush barrier that keeps
// fixed-seed trajectories bit-identical to synchronous settlement.
//
// mechanism=lto-vcg-dist runs winner determination on the distributed WDP
// coordinator: `dist_workers` in-process loopback shard workers receive
// batch spans and return top-(m+1) survivor sets through the wire codec
// (dist_workers=0 uses the key's default of 2). Winners and payments are
// bit-identical to lto-vcg for any worker count.
//
// mechanism=lto-vcg-dist hedges laggard shards by default (adaptive
// per-worker deadlines; hedge=0 disables), and mechanism=lto-vcg-dist-hedge
// forces hedging on over a 4-worker default fleet.
//
// The parallel comparison-oracle keys (mechanism=budgeted-oracle-par,
// greedy-concave-par, myopic-vcg-ext-par) run the expensive baseline
// oracles on the shared thread pool: `oracle_threads` picks the lane
// count (0 = auto, 1 = serial, k = exactly k lanes) and every setting
// produces bit-identical allocations and payments to the serial keys.
#include <fstream>
#include <iostream>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "auction/registry.h"
#include "core/market_simulation.h"
#include "core/orchestrator.h"
#include "fl/logistic_regression.h"
#include "fl/mlp.h"
#include "util/config.h"
#include "util/table.h"

namespace {

using sfl::util::Config;

/// Maps the command line onto the registry's config; the registry is the
/// single source of truth for mechanism names.
sfl::auction::MechanismConfig mechanism_config_from(const Config& args,
                                                    double budget,
                                                    std::size_t num_clients) {
  sfl::auction::MechanismConfig config;
  config.num_clients = num_clients;
  config.per_round_budget = budget;
  config.seed = args.get_size("seed", 42);
  config.lto.v_weight = args.get_double("v", 10.0);
  config.lto.pacing_rate = args.get_double("pacing", 0.5);
  config.lto.shards = args.get_size("shards", 0);
  config.lto.dist_workers = args.get_size("dist_workers", 0);
  config.lto.hedge = args.get_bool("hedge", true);
  config.lto.async_settle = args.get_bool("async_settle", false);
  // One knob feeds both parallel-oracle surfaces: the "-par" comparison
  // oracle keys (0 = auto) and the lto externality-payment ablation
  // (default 1 = serial). Bit-identical results at every count.
  config.lto.oracle_threads = args.get_size("oracle_threads", 1);
  config.oracle.threads = args.get_size("oracle_threads", 0);
  config.oracle.greedy_scale = args.get_double("greedy_scale", 20.0);
  config.fixed_price.price = args.get_double("price", 1.0);
  config.random_stipend.stipend = args.get_double("stipend", 1.0);
  return config;
}

/// Rejects a run whose command line sets keys this scenario never read: a
/// typo or a removed option would otherwise run silently on defaults.
/// Returns false after naming them on stderr.
bool all_keys_read(const Config& args) {
  const std::vector<std::string> unread = args.unread_keys();
  if (unread.empty()) return true;
  std::cerr << "run_experiment: unknown or unused key(s):";
  for (const std::string& key : unread) std::cerr << ' ' << key;
  std::cerr << "\n";
  return false;
}

/// Auction-only streaming market (scenario=online): no FL loop, the
/// mechanism runs against the stochastic cost process with clients arriving
/// and departing mid-horizon. Returns the process exit code.
int run_online_scenario(const Config& args) {
  sfl::core::MarketSpec mspec;
  mspec.num_clients = args.get_size("clients", 40);
  mspec.rounds = args.get_size("rounds", 200);
  mspec.max_winners = args.get_size("winners", 8);
  mspec.per_round_budget = args.get_double("budget", 6.0);
  mspec.valuation_scale = args.get_double("valuation_scale", 2.0);
  mspec.cost.base_sigma = args.get_double("cost_sigma", 0.5);
  mspec.async_settle = args.get_bool("async_settle", false);
  mspec.seed = args.get_size("seed", 42);
  mspec.online.enabled = true;
  mspec.online.arrival_window = args.get_double("arrival_window", 0.5);
  mspec.online.min_sojourn_fraction = args.get_double("min_sojourn", 0.25);
  mspec.online.max_sojourn_fraction = args.get_double("max_sojourn", 1.0);
  mspec.online.min_win_budget = args.get_size("min_win_budget", 0);
  mspec.online.max_win_budget = args.get_size("max_win_budget", 0);

  const std::string mechanism_name = args.get_string("mechanism", "lto-vcg");
  const std::unique_ptr<sfl::auction::Mechanism> mechanism =
      sfl::auction::build_mechanism(
          mechanism_name, mechanism_config_from(args, mspec.per_round_budget,
                                                mspec.num_clients));
  const std::string csv_path = args.get_string("csv", "");
  if (!all_keys_read(args)) return 2;
  const sfl::core::MarketResult result =
      sfl::core::run_market(*mechanism, mspec);

  const double mean_active =
      result.active_clients_series.empty()
          ? 0.0
          : std::accumulate(result.active_clients_series.begin(),
                            result.active_clients_series.end(), 0.0) /
                static_cast<double>(result.active_clients_series.size());
  std::cout << "run_experiment: scenario=online mechanism="
            << result.mechanism_name << " rounds=" << mspec.rounds << "\n\n";
  sfl::util::TablePrinter summary({"metric", "value"});
  summary.row("cumulative welfare", result.cumulative_welfare);
  summary.row("avg payment/round", result.average_payment);
  summary.row("budget violation (peak)", result.peak_budget_violation);
  summary.row("IR fraction", result.ir_fraction);
  summary.row("mean active bidders", mean_active);
  summary.row("budget-exhausted clients",
              static_cast<double>(result.budget_exhausted_clients));
  summary.row("final budget backlog", result.final_budget_backlog);
  summary.print(std::cout);

  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    if (!out.is_open()) {
      std::cerr << "cannot write " << csv_path << "\n";
      return 1;
    }
    out << "round,welfare,payment,active_bidders\n";
    for (std::size_t t = 0; t < result.welfare_series.size(); ++t) {
      out << t << ',' << result.welfare_series[t] << ','
          << result.payment_series[t] << ',' << result.active_clients_series[t]
          << '\n';
    }
    std::cout << "\nwrote " << result.welfare_series.size()
              << " round rows to " << csv_path << "\n";
  }
  return 0;
}

/// Auction-only multi-requester market (scenario=multi): R LTO requesters
/// compete for one client population under cross-market exclusivity.
int run_multi_scenario(const Config& args) {
  sfl::core::MultiRequesterSpec qspec;
  qspec.requesters = args.get_size("requesters", 3);
  qspec.num_clients = args.get_size("clients", 40);
  qspec.rounds = args.get_size("rounds", 200);
  qspec.max_winners = args.get_size("winners", 8);
  qspec.per_round_budget = args.get_double("budget", 6.0);
  qspec.valuation_scale = args.get_double("valuation_scale", 2.0);
  qspec.requester_value_spread = args.get_double("requester_spread", 0.25);
  qspec.cost.base_sigma = args.get_double("cost_sigma", 0.5);
  qspec.shards = args.get_size("shards", 1);
  qspec.seed = args.get_size("seed", 42);

  const std::string mechanism_name = args.get_string("mechanism", "lto-vcg");
  const std::string csv_path = args.get_string("csv", "");
  if (!all_keys_read(args)) return 2;
  const sfl::core::MultiRequesterResult result =
      sfl::core::run_multi_requester_market(qspec, mechanism_name);

  std::cout << "run_experiment: scenario=multi mechanism=" << mechanism_name
            << " requesters=" << qspec.requesters
            << " rounds=" << qspec.rounds << "\n\n";
  sfl::util::TablePrinter summary(
      {"requester", "welfare", "payments", "wins", "final Q"});
  for (std::size_t r = 0; r < qspec.requesters; ++r) {
    summary.row(r, result.requester_welfare[r], result.requester_payment[r],
                result.requester_wins[r], result.requester_backlog[r]);
  }
  summary.print(std::cout);

  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    if (!out.is_open()) {
      std::cerr << "cannot write " << csv_path << "\n";
      return 1;
    }
    out << "round,welfare,payment,queue_backlog\n";
    for (std::size_t t = 0; t < result.welfare_series.size(); ++t) {
      out << t << ',' << result.welfare_series[t] << ','
          << result.payment_series[t] << ',' << result.queue_series[t] << '\n';
    }
    std::cout << "\nwrote " << result.welfare_series.size()
              << " round rows to " << csv_path << "\n";
  }
  if (result.duplicate_wins != 0) {
    std::cerr << "EXCLUSIVITY VIOLATION: " << result.duplicate_wins
              << " duplicate wins\n";
    return 1;
  }
  std::cout << "\nexclusivity: no client won two markets in any round\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Config args = Config::from_args(argc, argv);

  if (args.get_string("mechanism", "lto-vcg") == "list") {
    sfl::util::TablePrinter listing({"mechanism", "variant_of", "description"});
    for (const auto& info :
         sfl::auction::MechanismRegistry::global().describe()) {
      listing.row(info.name, info.variant_of.empty() ? "-" : info.variant_of,
                  info.description);
    }
    listing.print(std::cout);
    return 0;
  }

  // Auction-only scenario extensions short-circuit before the FL stack.
  const std::string scenario_kind = args.get_string("scenario", "static");
  if (scenario_kind == "online") return run_online_scenario(args);
  if (scenario_kind == "multi") return run_multi_scenario(args);
  if (scenario_kind != "static" && scenario_kind != "wireless") {
    std::cerr << "unknown scenario: " << scenario_kind
              << " (expected static|wireless|online|multi)\n";
    return 1;
  }

  // --- scenario ---
  sfl::sim::ScenarioSpec sspec;
  sspec.num_clients = args.get_size("clients", 40);
  sspec.train_examples = args.get_size("train", 4000);
  sspec.test_examples = args.get_size("test", 800);
  sspec.num_classes = args.get_size("classes", 10);
  sspec.feature_dim = args.get_size("dim", 32);
  sspec.class_separation = args.get_double("separation", 0.9);
  const std::string partition = args.get_string("partition", "dirichlet");
  if (partition == "dirichlet") {
    sspec.partition = sfl::sim::PartitionKind::kDirichletLabelSkew;
    sspec.dirichlet_alpha = args.get_double("alpha", 0.3);
  } else if (partition == "quantity") {
    sspec.partition = sfl::sim::PartitionKind::kQuantitySkew;
    sspec.quantity_sigma = args.get_double("quantity_sigma", 0.8);
  } else if (partition == "iid") {
    sspec.partition = sfl::sim::PartitionKind::kIid;
  } else {
    std::cerr << "unknown partition: " << partition << "\n";
    return 1;
  }
  sspec.noisy_client_fraction = args.get_double("noisy_fraction", 0.3);
  sspec.noisy_flip_probability = args.get_double("flip_prob", 0.8);
  sspec.seed = args.get_size("seed", 42);
  if (scenario_kind == "wireless") {
    sspec.wireless.enabled = true;
    sspec.wireless.cell_radius_m = args.get_double("cell_radius", 500.0);
    sspec.wireless.pathloss_exponent = args.get_double("pathloss", 3.0);
    sspec.wireless.tx_power_watts = args.get_double("tx_power", 0.2);
    sspec.wireless.payload_bits = args.get_double("payload_bits", 5e6);
    sspec.wireless.reference_snr = args.get_double("reference_snr", 1000.0);
    sspec.wireless.normalize_mean = args.get_double("normalize_energy", 1.0);
  }
  const sfl::sim::Scenario scenario = sfl::sim::build_scenario(sspec);

  // --- orchestrator ---
  sfl::core::OrchestratorConfig config;
  config.rounds = args.get_size("rounds", 200);
  config.max_winners = args.get_size("winners", 8);
  config.per_round_budget = args.get_double("budget", 6.0);
  config.valuation_scale = args.get_double("valuation_scale", 2.0);
  config.use_reputation = args.get_bool("use_reputation", true);
  config.eval_every = args.get_size("eval_every", 10);
  config.cost.base_sigma = args.get_double("cost_sigma", 0.5);
  // Streams ANY mechanism: lto-vcg* keys are wrapped by the registry (via
  // lto.async_settle below) and the orchestrator skips already-async
  // mechanisms, so this never double-wraps.
  config.async_settle = args.get_bool("async_settle", false);
  config.seed = sspec.seed;
  if (args.get_bool("energy", false)) {
    config.enable_energy = true;
    config.energy.harvest_probabilities.assign(
        sspec.num_clients, args.get_double("harvest_p", 0.5));
  }

  // --- training ---
  sfl::fl::LocalTrainingSpec training;
  training.local_steps = args.get_size("local_steps", 5);
  training.batch_size = args.get_size("batch", 32);
  training.optimizer.learning_rate = args.get_double("lr", 0.05);
  training.proximal_mu = args.get_double("proximal_mu", 0.0);
  training.gradient_clip_norm = args.get_double("clip", 0.0);

  std::unique_ptr<sfl::fl::Model> model;
  const std::string model_kind = args.get_string("model", "logreg");
  sfl::util::Rng init_rng(sspec.seed ^ 0xabcdef);
  if (model_kind == "logreg") {
    model = std::make_unique<sfl::fl::LogisticRegression>(
        sspec.feature_dim, sspec.num_classes, 1e-4);
  } else if (model_kind == "mlp") {
    model = std::make_unique<sfl::fl::Mlp>(sspec.feature_dim,
                                           args.get_size("hidden", 32),
                                           sspec.num_classes, init_rng, 1e-4);
  } else {
    std::cerr << "unknown model: " << model_kind << "\n";
    return 1;
  }

  const std::string mechanism_name = args.get_string("mechanism", "lto-vcg");
  sfl::core::SustainableFlOrchestrator orchestrator(
      scenario, std::move(model), training,
      sfl::auction::build_mechanism(
          mechanism_name,
          mechanism_config_from(args, config.per_round_budget,
                                sspec.num_clients)),
      config);
  const std::string csv_path = args.get_string("csv", "");
  if (!all_keys_read(args)) return 2;
  const sfl::core::RunResult result = orchestrator.run();

  // --- report ---
  std::cout << "run_experiment: mechanism=" << result.mechanism_name
            << " model=" << model_kind << " partition=" << partition
            << " rounds=" << config.rounds << "\n\n";
  sfl::util::TablePrinter summary({"metric", "value"});
  summary.row("final accuracy", result.final_accuracy);
  summary.row("final loss", result.final_loss);
  summary.row("cumulative welfare", result.cumulative_welfare);
  summary.row("avg payment/round", result.average_payment);
  summary.row("budget/round", config.per_round_budget);
  summary.row("budget violation (end)", result.budget_violation);
  summary.row("IR fraction", result.ir_fraction);
  summary.print(std::cout);

  if (!csv_path.empty()) {
    std::ofstream out(csv_path);
    if (!out.is_open()) {
      std::cerr << "cannot write " << csv_path << "\n";
      return 1;
    }
    sfl::util::CsvWriter csv(out, sfl::core::RunResult::csv_header());
    result.write_rounds_csv(csv);
    std::cout << "\nwrote " << csv.rows_written() << " round rows to "
              << csv_path << "\n";
  }
  return 0;
}

// E14 (Figures): scenario extensions — multi-requester exclusivity, online
// arrival, wireless cellular costs.
//
// Three bench families, each emitting per-round welfare / budget / queue
// trajectories into BENCH_e14.json (`--json=<path>` / `json=<path>`):
//
//   multi     R LTO requesters compete for one client population per round
//             under cross-market exclusivity (one exclusive MarketBatch
//             clear per round). The family hard-checks zero duplicate wins —
//             an exclusivity regression exits non-zero and fails the ctest
//             smoke target, not just the bench numbers.
//   online    streaming market: clients arrive/depart mid-horizon with
//             per-client win budgets; the trajectory adds the active-bidder
//             count per round. Re-run under the same seed and checked for
//             exact determinism.
//   wireless  per-client energy costs derived from the cellular uplink
//             model (annulus drop + path loss + Rayleigh fading ->
//             Shannon-rate transmit energy), driven through a short FL run;
//             the entry also records the cost-population quantiles.
//
// REPRO_FAST=1 shrinks rounds/clients so the ctest smoke run finishes in
// seconds; the JSON notes the mode.
#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench_common.h"
#include "core/market_simulation.h"
#include "core/orchestrator.h"
#include "fl/logistic_regression.h"
#include "sim/scenario.h"
#include "util/config.h"

namespace {

bool fast() { return sfl::util::fast_mode_enabled(); }

/// One named trajectory family in the output JSON.
struct Family {
  std::string scenario;
  std::string detail;
  std::vector<std::string> series_names;
  std::vector<std::vector<double>> series;  // aligned with series_names
};

void append_json(std::ostream& out, const Family& f, bool first) {
  out << (first ? "\n" : ",\n") << "    {\"scenario\": \"" << f.scenario
      << "\", \"detail\": \"" << f.detail << "\", \"rounds\": "
      << (f.series.empty() ? 0 : f.series.front().size()) << ", \"series\": {";
  for (std::size_t s = 0; s < f.series.size(); ++s) {
    out << (s == 0 ? "" : ", ") << "\"" << f.series_names[s] << "\": [";
    for (std::size_t t = 0; t < f.series[s].size(); ++t) {
      out << (t == 0 ? "" : ",") << f.series[s][t];
    }
    out << "]";
  }
  out << "}}";
}

bool bitwise_equal(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         std::equal(a.begin(), a.end(), b.begin(),
                    [](double x, double y) {
                      return std::bit_cast<std::uint64_t>(x) ==
                             std::bit_cast<std::uint64_t>(y);
                    });
}

int run_multi_family(std::vector<Family>& families) {
  sfl::core::MultiRequesterSpec spec;
  spec.requesters = 3;
  spec.num_clients = fast() ? 24 : 120;
  spec.rounds = fast() ? 60 : 600;
  spec.max_winners = 4;
  spec.seed = 20260808;

  const sfl::core::MultiRequesterResult result =
      sfl::core::run_multi_requester_market(spec);
  if (result.duplicate_wins != 0) {
    std::cerr << "E14 multi: EXCLUSIVITY VIOLATION (" << result.duplicate_wins
              << " duplicate wins)\n";
    return 1;
  }

  families.push_back(Family{
      .scenario = "multi",
      .detail = "3 requesters, exclusive clear",
      .series_names = {"welfare", "payment", "queue_backlog"},
      .series = {result.welfare_series, result.payment_series,
                 result.queue_series}});
  std::cout << "E14 multi: " << spec.rounds << " rounds, duplicate_wins=0\n";
  return 0;
}

int run_online_family(std::vector<Family>& families) {
  sfl::core::MarketSpec spec;
  spec.num_clients = fast() ? 24 : 120;
  spec.rounds = fast() ? 80 : 800;
  spec.max_winners = 4;
  spec.seed = 20260808;
  spec.online.enabled = true;
  spec.online.arrival_window = 0.6;
  spec.online.min_sojourn_fraction = 0.2;
  spec.online.max_sojourn_fraction = 0.8;
  spec.online.min_win_budget = 3;
  spec.online.max_win_budget = 12;

  sfl::auction::MechanismConfig config;
  config.num_clients = spec.num_clients;
  config.per_round_budget = spec.per_round_budget;
  const auto mech_a = sfl::auction::build_mechanism("lto-vcg", config);
  const auto mech_b = sfl::auction::build_mechanism("lto-vcg", config);
  const sfl::core::MarketResult run_a = sfl::core::run_market(*mech_a, spec);
  const sfl::core::MarketResult run_b = sfl::core::run_market(*mech_b, spec);
  if (!bitwise_equal(run_a.welfare_series, run_b.welfare_series) ||
      !bitwise_equal(run_a.payment_series, run_b.payment_series) ||
      !bitwise_equal(run_a.active_clients_series,
                     run_b.active_clients_series)) {
    std::cerr << "E14 online: same-seed replay diverged\n";
    return 1;
  }

  families.push_back(Family{
      .scenario = "online",
      .detail = "streaming arrival/departure with per-client win budgets",
      .series_names = {"welfare", "payment", "active_bidders"},
      .series = {run_a.welfare_series, run_a.payment_series,
                 run_a.active_clients_series}});
  std::cout << "E14 online: " << spec.rounds << " rounds, "
            << run_a.budget_exhausted_clients
            << " clients exhausted their win budget, deterministic replay\n";
  return 0;
}

int run_wireless_family(std::vector<Family>& families) {
  sfl::sim::ScenarioSpec sspec;
  sspec.num_clients = fast() ? 16 : 40;
  sspec.train_examples = fast() ? 600 : 3000;
  sspec.test_examples = 200;
  sspec.validation_examples = 100;
  sspec.seed = 20260808;
  sspec.wireless.enabled = true;
  const sfl::sim::Scenario scenario = sfl::sim::build_scenario(sspec);

  std::vector<double> sorted_costs = scenario.energy_costs;
  std::sort(sorted_costs.begin(), sorted_costs.end());
  const auto quantile = [&](double q) {
    return sorted_costs[static_cast<std::size_t>(
        q * static_cast<double>(sorted_costs.size() - 1))];
  };

  sfl::core::OrchestratorConfig config;
  config.rounds = fast() ? 12 : 60;
  config.max_winners = 6;
  config.eval_every = config.rounds;  // trajectories, not accuracy curves
  config.seed = sspec.seed;
  sfl::auction::MechanismConfig mech_config;
  mech_config.num_clients = sspec.num_clients;
  mech_config.per_round_budget = config.per_round_budget;
  sfl::core::SustainableFlOrchestrator orchestrator(
      scenario,
      std::make_unique<sfl::fl::LogisticRegression>(sspec.feature_dim,
                                                    sspec.num_classes, 1e-4),
      sfl::fl::LocalTrainingSpec{},
      sfl::auction::build_mechanism("lto-vcg", mech_config), config);
  const sfl::core::RunResult run = orchestrator.run();

  Family family{
      .scenario = "wireless",
      .detail = "cellular uplink cost model (cost quantiles p10/p50/p90: " +
                std::to_string(quantile(0.1)) + "/" +
                std::to_string(quantile(0.5)) + "/" +
                std::to_string(quantile(0.9)) + ")",
      .series_names = {"welfare", "payment", "queue_backlog"},
      .series = {{}, {}, {}}};
  for (const sfl::core::RoundRecord& record : run.rounds) {
    family.series[0].push_back(record.welfare);
    family.series[1].push_back(record.payment);
    family.series[2].push_back(record.budget_backlog);
  }
  families.push_back(std::move(family));
  std::cout << "E14 wireless: cost spread p10=" << quantile(0.1)
            << " p90=" << quantile(0.9) << ", " << run.rounds.size()
            << " FL rounds\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const std::optional<std::string> json_path =
      sfl::bench::BenchJsonWriter::extract_json_path(argc, argv);

  std::vector<Family> families;
  int rc = run_multi_family(families);
  if (rc == 0) rc = run_online_family(families);
  if (rc == 0) rc = run_wireless_family(families);
  if (rc != 0) return rc;  // invariant violations fail the smoke test

  if (json_path.has_value()) {
    std::ofstream out(*json_path);
    if (!out.is_open()) {
      std::cerr << "bench json: cannot write " << *json_path << "\n";
      return 1;
    }
    out << "{\n  \"bench\": \"e14_scenarios\",\n  \"repro_fast\": "
        << (fast() ? "true" : "false") << ",\n  \"families\": [";
    for (std::size_t i = 0; i < families.size(); ++i) {
      append_json(out, families[i], i == 0);
    }
    out << "\n  ]\n}\n";
    if (!out.good()) return 1;
    std::cout << "wrote " << *json_path << "\n";
  }
  return 0;
}

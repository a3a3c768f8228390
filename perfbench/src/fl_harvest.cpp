// fl-harvest: the paper's loop.
//
// The canonical FL market of the experiment benches — 40 clients, Dirichlet
// alpha = 0.3 label skew, a 30% cohort of cheap noisy-label clients — with
// energy harvesting on, so Bernoulli harvests and batteries decide who may
// bid, cleared by the paced "lto-vcg" over 200 rounds of logistic
// regression through SustainableFlOrchestrator::run. The values are pinned
// here, not read from bench/bench_common.h, so an edit there cannot change
// the workload. Local SGD, the reputation probes on the validation set and
// evaluation do almost all of the work (the auction has 40 rows), so this
// workload shows FL-layer changes and must not move under auction or
// service changes.
#include <algorithm>
#include <cmath>
#include <memory>
#include <string>

#include "auction/registry.h"
#include "core/orchestrator.h"
#include "fl/logistic_regression.h"
#include "sim/scenario.h"
#include "util/rng.h"
#include "workloads.h"

namespace perfbench {

namespace {

using sfl::auction::CandidateBatch;
using sfl::auction::Mechanism;
using sfl::auction::MechanismResult;
using sfl::auction::RoundContext;
using sfl::auction::RoundSettlement;

constexpr std::size_t kRounds = 200;
constexpr std::size_t kWinners = 8;
constexpr double kBudget = 6.0;
constexpr double kPacingRate = 0.5;
constexpr std::size_t kSetupRepeats = 9;
/// Runs per measured second. Run k of a pass uses the k-th seed derived
/// from --seed, so one pass averages over several markets instead of
/// reporting one market's participation level.
constexpr double kRunsPerSecond = 0.3;
constexpr std::int64_t kRoundDeadlineNs = 2'000'000'000;
/// A round is a "day" round when at least this share of the pool had the
/// energy to bid (37 of 40 clients), else a "night" round. With harvests at
/// p = 0.5 a third to a fifth of the rounds fall below it, depending on the
/// seed.
constexpr double kDayAvailability = 0.925;

sfl::sim::ScenarioSpec scenario_spec(std::uint64_t seed) {
  sfl::sim::ScenarioSpec spec;
  spec.num_clients = 40;
  spec.train_examples = 4000;
  spec.test_examples = 800;
  spec.validation_examples = 200;
  spec.num_classes = 10;
  spec.feature_dim = 32;
  spec.class_separation = 0.9;
  spec.partition = sfl::sim::PartitionKind::kDirichletLabelSkew;
  spec.dirichlet_alpha = 0.3;
  spec.noisy_client_fraction = 0.3;
  spec.noisy_flip_probability = 0.8;
  spec.seed = seed;
  return spec;
}

sfl::core::OrchestratorConfig orchestrator_config(
    const sfl::sim::ScenarioSpec& spec) {
  sfl::core::OrchestratorConfig config;
  config.rounds = kRounds;
  config.max_winners = kWinners;
  config.per_round_budget = kBudget;
  config.valuation_scale = 2.0;
  config.eval_every = 10;
  config.cost.base_sigma = 0.5;
  config.enable_energy = true;
  config.seed = spec.seed;
  // The noisy cohort (the last 30% of ids) is also cheap: 0.4x costs.
  const auto noisy = static_cast<std::size_t>(std::ceil(
      spec.noisy_client_fraction * static_cast<double>(spec.num_clients)));
  config.cost_multipliers.assign(spec.num_clients, 1.0);
  for (std::size_t k = 0; k < noisy; ++k) {
    config.cost_multipliers[spec.num_clients - 1 - k] = 0.4;
  }
  return config;
}

sfl::fl::LocalTrainingSpec training_spec() {
  sfl::fl::LocalTrainingSpec spec;
  spec.local_steps = 5;
  spec.batch_size = 32;
  spec.optimizer.learning_rate = 0.05;
  return spec;
}

/// State shared by the wrappers of one run: the tracer (null = untraced),
/// the round the loop is in, and the clock stamps of each round's settle.
struct RunProbe {
  Tracer* tracer = nullptr;
  std::uint64_t round = 0;
  std::vector<std::int64_t> settle_ns;
  std::size_t ir_violations = 0;
  std::uint32_t run_round_name = 0;
  std::uint32_t settle_name = 0;
  std::uint32_t loss_and_gradient_name = 0;
  std::uint32_t loss_name = 0;
  std::uint32_t predict_name = 0;
  std::uint32_t clone_name = 0;
};

/// Mechanism wrapper: stamps the clock at every settle (the round clock of
/// the untraced run), checks IR on every settled winner, and under tracing
/// spans run_round_into and settle. underlying() and flush() forward, so
/// the orchestrator still sees the LTO-VCG rule behind it.
class ProbedMechanism final : public Mechanism {
 public:
  ProbedMechanism(std::unique_ptr<Mechanism> inner, RunProbe& probe)
      : inner_(std::move(inner)), probe_(&probe) {}

  [[nodiscard]] std::string name() const override { return inner_->name(); }
  [[nodiscard]] MechanismResult run_round(
      const std::vector<sfl::auction::Candidate>& candidates,
      const RoundContext& context) override {
    return inner_->run_round(candidates, context);
  }
  [[nodiscard]] MechanismResult run_round(const CandidateBatch& batch,
                                          const RoundContext& context) override {
    return inner_->run_round(batch, context);
  }
  void run_round_into(const CandidateBatch& batch, const RoundContext& context,
                      MechanismResult& out) override {
    probe_->round = context.round;
    ScopedSpan span(probe_->tracer, probe_->run_round_name, context.round);
    inner_->run_round_into(batch, context, out);
  }
  void settle(const RoundSettlement& settlement) override {
    {
      ScopedSpan span(probe_->tracer, probe_->settle_name, settlement.round);
      inner_->settle(settlement);
    }
    probe_->settle_ns.push_back(now_ns());
    for (const auto& w : settlement.winners) {
      if (!w.dropped && !(w.payment >= w.bid)) ++probe_->ir_violations;
    }
  }
  void observe(const sfl::auction::RoundObservation& observation) override {
    inner_->observe(observation);
  }
  [[nodiscard]] sfl::auction::SettlementOrdering settlement_ordering()
      const noexcept override {
    return inner_->settlement_ordering();
  }
  void flush() override { inner_->flush(); }
  [[nodiscard]] Mechanism* underlying() noexcept override {
    return inner_->underlying();
  }
  [[nodiscard]] bool is_truthful() const noexcept override {
    return inner_->is_truthful();
  }

 private:
  std::unique_ptr<Mechanism> inner_;
  RunProbe* probe_;
};

/// Model wrapper for the traced run: spans loss_and_gradient and loss,
/// aggregates predict_class (called ~375k times per run) and clone, and
/// returns wrapped clones so local training is traced too.
class TracedModel final : public sfl::fl::Model {
 public:
  TracedModel(std::unique_ptr<sfl::fl::Model> inner, RunProbe& probe)
      : inner_(std::move(inner)), probe_(&probe) {}

  [[nodiscard]] std::unique_ptr<sfl::fl::Model> clone() const override {
    const std::int64_t t0 = now_ns();
    auto copy = std::make_unique<TracedModel>(inner_->clone(), *probe_);
    probe_->tracer->aggregate(probe_->clone_name, now_ns() - t0);
    return copy;
  }
  [[nodiscard]] std::size_t parameter_count() const noexcept override {
    return inner_->parameter_count();
  }
  [[nodiscard]] std::vector<double> parameters() const override {
    return inner_->parameters();
  }
  void set_parameters(std::span<const double> params) override {
    inner_->set_parameters(params);
  }
  double loss_and_gradient(const sfl::data::Dataset& dataset,
                           std::span<const std::size_t> batch,
                           std::span<double> grad_out) const override {
    ScopedSpan span(probe_->tracer, probe_->loss_and_gradient_name,
                    probe_->round);
    return inner_->loss_and_gradient(dataset, batch, grad_out);
  }
  [[nodiscard]] double loss(const sfl::data::Dataset& dataset,
                            std::span<const std::size_t> batch) const override {
    ScopedSpan span(probe_->tracer, probe_->loss_name, probe_->round);
    return inner_->loss(dataset, batch);
  }
  [[nodiscard]] int predict_class(
      std::span<const double> features) const override {
    const std::int64_t t0 = now_ns();
    const int label = inner_->predict_class(features);
    probe_->tracer->aggregate(probe_->predict_name, now_ns() - t0);
    return label;
  }
  [[nodiscard]] double predict_value(
      std::span<const double> features) const override {
    return inner_->predict_value(features);
  }

 private:
  std::unique_ptr<sfl::fl::Model> inner_;
  RunProbe* probe_;
};

std::unique_ptr<sfl::core::SustainableFlOrchestrator> build_orchestrator(
    const sfl::sim::Scenario& scenario, const sfl::sim::ScenarioSpec& spec,
    RunProbe& probe) {
  const sfl::core::OrchestratorConfig config = orchestrator_config(spec);
  sfl::auction::MechanismConfig mc;
  mc.num_clients = scenario.num_clients();
  mc.per_round_budget = config.per_round_budget;
  mc.seed = config.seed;
  mc.lto.v_weight = 10.0;
  mc.lto.pacing_rate = kPacingRate;
  auto mechanism = std::make_unique<ProbedMechanism>(
      sfl::auction::build_mechanism("lto-vcg", mc), probe);
  std::unique_ptr<sfl::fl::Model> model =
      std::make_unique<sfl::fl::LogisticRegression>(spec.feature_dim,
                                                    spec.num_classes, 1e-4);
  if (probe.tracer != nullptr) {
    model = std::make_unique<TracedModel>(std::move(model), probe);
  }
  return std::make_unique<sfl::core::SustainableFlOrchestrator>(
      scenario, std::move(model), training_spec(), std::move(mechanism),
      config);
}

std::uint64_t digest_of(const sfl::core::RunResult& run) {
  Digest digest;
  digest.add(run.rounds.size());
  for (const sfl::core::RoundRecord& r : run.rounds) {
    digest.add(r.available);
    digest.add(r.participants);
    digest.add(r.dropped);
    digest.add_double(r.payment);
    digest.add_double(r.budget_backlog);
    digest.add_double(r.welfare);
    digest.add_double(r.test_accuracy);
    digest.add_double(r.test_loss);
  }
  digest.add_double(run.final_accuracy);
  digest.add_double(run.final_loss);
  for (const double u : run.client_utilities) digest.add_double(u);
  for (const double q : run.final_reputation) digest.add_double(q);
  for (const double b : run.final_battery) digest.add_double(b);
  return digest.value();
}

/// Gates on one finished run: 200 rounds, at most m participants each, and
/// every winner paid at least its bid.
void check_run(const sfl::core::RunResult& run, const RunProbe& probe) {
  if (run.rounds.size() != kRounds) {
    gate_failed("fl-harvest: run recorded " + std::to_string(run.rounds.size()) +
                " rounds");
  }
  for (const sfl::core::RoundRecord& r : run.rounds) {
    if (r.participants > kWinners) {
      gate_failed("fl-harvest: round " + std::to_string(r.round) +
                  " has more participants than m");
    }
  }
  if (probe.ir_violations != 0 || run.ir_fraction != 1.0) {
    gate_failed("fl-harvest: a winner was paid below its bid (IR)");
  }
}

/// The seed of run `k` of a pass.
std::uint64_t run_seed(std::uint64_t seed, std::size_t k) {
  std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL + k;
  return sfl::util::splitmix64(state);
}

struct PassStats {
  std::size_t runs = 0;
  std::size_t rounds = 0;
  std::size_t late = 0;
  std::int64_t wall_ns = 0;  ///< sum over runs of run() wall time
  double cpu_s = 0.0;
  double main_thread_cpu_s = 0.0;
  long switches = 0;
  std::vector<double> all_ns;  ///< every round period, in order
  std::vector<double> day_ns;
  std::vector<double> night_ns;
  double available = 0.0;     ///< sum over rounds
  double participants = 0.0;  ///< sum over rounds
  std::vector<std::uint64_t> digests;  ///< one per run
};

/// `runs` whole 200-round runs, run k on the scenario of run_seed(seed, k)
/// with a freshly built orchestrator (scenario and orchestrator are built
/// outside the timed run() call).
PassStats run_pass(std::uint64_t seed, Tracer* tracer, std::size_t runs) {
  PassStats stats;
  RunProbe probe;
  probe.tracer = tracer;
  std::uint32_t run_name = 0;
  if (tracer != nullptr) {
    run_name = tracer->name_id("core.orchestrator.run");
    probe.run_round_name = tracer->name_id("core.mechanism.run_round_into");
    probe.settle_name = tracer->name_id("core.mechanism.settle");
    probe.loss_and_gradient_name = tracer->name_id("fl.loss_and_gradient");
    probe.loss_name = tracer->name_id("fl.loss");
    probe.predict_name = tracer->name_id("fl.predict_class");
    probe.clone_name = tracer->name_id("fl.clone");
  }
  while (stats.runs < runs) {
    const sfl::sim::ScenarioSpec spec =
        scenario_spec(run_seed(seed, stats.runs));
    const sfl::sim::Scenario scenario = sfl::sim::build_scenario(spec);
    probe.settle_ns.clear();
    probe.ir_violations = 0;
    auto orchestrator = build_orchestrator(scenario, spec, probe);
    const ProcessSample p0 = sample_process();
    const double t0_cpu = thread_cpu_s();
    const std::int64_t start = now_ns();
    sfl::core::RunResult run;
    {
      ScopedSpan span(tracer, run_name, 0);
      run = orchestrator->run();
    }
    const std::int64_t end = now_ns();
    const ProcessSample p1 = sample_process();
    stats.main_thread_cpu_s += thread_cpu_s() - t0_cpu;
    stats.cpu_s += p1.cpu_s() - p0.cpu_s();
    stats.switches += (p1.voluntary_switches + p1.involuntary_switches) -
                      (p0.voluntary_switches + p0.involuntary_switches);
    stats.wall_ns += end - start;
    stats.digests.push_back(digest_of(run));
    check_run(run, probe);
    if (probe.settle_ns.size() != kRounds) {
      gate_failed("fl-harvest: mechanism settled " +
                  std::to_string(probe.settle_ns.size()) + " rounds");
    }
    // Round r's period runs from its settle to the next round's settle (to
    // the end of run() for the last round): its own training, reputation
    // probes and evaluation, then the next round's auction.
    for (std::size_t r = 0; r < kRounds; ++r) {
      const std::int64_t next = r + 1 < kRounds ? probe.settle_ns[r + 1] : end;
      const auto period = static_cast<double>(next - probe.settle_ns[r]);
      const sfl::core::RoundRecord& record = run.rounds[r];
      const bool day =
          static_cast<double>(record.available) >=
          kDayAvailability * static_cast<double>(scenario.num_clients());
      stats.all_ns.push_back(period);
      (day ? stats.day_ns : stats.night_ns).push_back(period);
      if (period > kRoundDeadlineNs) ++stats.late;
      stats.available += static_cast<double>(record.available);
      stats.participants += static_cast<double>(record.participants);
    }
    stats.rounds += kRounds;
    ++stats.runs;
  }
  return stats;
}

}  // namespace

WorkloadResult run_fl_harvest(const RunOptions& options) {
  WorkloadResult result;
  const std::size_t runs = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::lround(
             kRunsPerSecond * options.seconds * (options.trace ? 0.5 : 1.0))));

  std::vector<double> setup_s;
  for (std::size_t i = 0; i < kSetupRepeats; ++i) {
    const std::int64_t t0 = now_ns();
    const sfl::sim::ScenarioSpec spec = scenario_spec(run_seed(options.seed, 0));
    const sfl::sim::Scenario scenario = sfl::sim::build_scenario(spec);
    RunProbe probe;
    const auto orchestrator = build_orchestrator(scenario, spec, probe);
    setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }

  const PassStats pass = run_pass(options.seed, nullptr, runs);
  result.attempted = pass.rounds;
  result.failed = pass.late;
  // Run 0 is in every pass whatever its length: the seed-determined digest.
  Digest digest;
  digest.add(pass.digests.front());
  result.digest = digest.hex();

  result.put("setup_s", median(setup_s), "s", setup_s.size(),
             "median of repeated set-ups");
  result.put("rounds_per_s",
             static_cast<double>(pass.rounds) /
                 (static_cast<double>(pass.wall_ns) * 1e-9),
             "rounds/s", pass.rounds);
  result.put("cpu_us_per_round",
             pass.cpu_s * 1e6 / static_cast<double>(pass.rounds), "us/round",
             pass.rounds);
  put_round_percentiles(pass.all_ns, pass.day_ns, pass.night_ns, result);
  result.put("peak_rss_mb", peak_rss_mib(), "MiB");
  if (!options.trace) return result;

  Tracer tracer("main");
  const PassStats traced = run_pass(options.seed, &tracer, pass.runs);
  if (traced.digests != pass.digests) {
    gate_failed("fl-harvest: traced RunResult digest differs from untraced");
  }
  result.attempted += traced.rounds;
  result.failed += traced.late;
  if (!options.trace_out.empty()) tracer.write_csv(options.trace_out);

  const double rounds = static_cast<double>(traced.rounds);
  const double wall_s = static_cast<double>(traced.wall_ns) * 1e-9;
  const auto ms_per_round = [&](const char* name) {
    return static_cast<double>(tracer.total_ns_of(name)) * 1e-6 / rounds;
  };
  result.put("fl.loss_and_gradient.ms_per_round",
             ms_per_round("fl.loss_and_gradient"), "ms/round", traced.rounds);
  result.put("fl.loss.ms_per_round", ms_per_round("fl.loss"), "ms/round",
             traced.rounds);
  result.put("fl.predict_class.ms_per_round", ms_per_round("fl.predict_class"),
             "ms/round", traced.rounds);
  result.put("fl.clone.calls_per_round",
             static_cast<double>(tracer.aggregate_of("fl.clone").count) / rounds,
             "calls/round", traced.rounds);
  result.put("core.mechanism.run_round_us",
             median(tracer.durations_ns("core.mechanism.run_round_into")) / 1e3,
             "us", tracer.durations_ns("core.mechanism.run_round_into").size());
  result.put("core.mechanism.settle_us",
             median(tracer.durations_ns("core.mechanism.settle")) / 1e3, "us",
             traced.rounds);
  std::int64_t orchestrator_self = 0;
  for (const Tracer::Span& span : tracer.spans()) {
    if (tracer.name(span.name) == "core.orchestrator.run") {
      orchestrator_self += span.self_ns();
    }
  }
  result.put("core.orchestrator.self_ms_per_round",
             static_cast<double>(orchestrator_self) * 1e-6 / rounds, "ms/round",
             traced.rounds);
  result.put("sim.available_per_round", traced.available / rounds,
             "clients/round", traced.rounds);
  result.put("fl.participants_per_round", traced.participants / rounds,
             "clients/round", traced.rounds);
  result.put("util.pool.cpu_us_per_round",
             std::max(0.0, traced.cpu_s - traced.main_thread_cpu_s) * 1e6 / rounds,
             "us/round", traced.rounds);
  result.put("proc.cpu_per_wall", traced.cpu_s / wall_s, "cores");
  result.put("proc.ctx_switches_per_round",
             static_cast<double>(traced.switches) / rounds, "count/round");

  // Every traced call is a child of core.orchestrator.run, so the run spans
  // cover the pass; the benchmark's own time is what lies outside them.
  const std::int64_t fl_self = tracer.self_ns_of_layer("fl.");
  const std::int64_t core_self = tracer.self_ns_of_layer("core.");
  const double wall_ns = static_cast<double>(traced.wall_ns);
  std::int64_t covered = 0;
  for (const Tracer::Span& span : tracer.spans()) {
    if (span.parent < 0) covered += span.duration_ns();
  }
  const double bench_ns = wall_ns - static_cast<double>(covered);
  result.put("trace.rounds", rounds, "count");
  result.put("trace.spans", static_cast<double>(tracer.spans().size()), "count");
  result.put("trace.wall_s", wall_s, "s");
  result.put("trace.overhead_s",
             static_cast<double>(traced.wall_ns - pass.wall_ns) * 1e-9, "s");
  result.put("trace.self_share.fl", fl_self / wall_ns, "share");
  result.put("trace.self_share.core", core_self / wall_ns, "share");
  result.put("trace.self_share.bench", bench_ns / wall_ns, "share");
  result.put("trace.accounted_share",
             (static_cast<double>(fl_self + core_self) + bench_ns) / wall_ns,
             "share");
  return result;
}

}  // namespace perfbench

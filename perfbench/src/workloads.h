// The benchmark's three workloads. Each runs one measured configuration of
// the program, checks its outputs, and returns its metrics; see
// BENCHMARK.json for why each workload exists and which layers it stresses.
#pragma once

#include <cstddef>
#include <cstdint>

#include "auction/candidate_batch.h"
#include "harness.h"

namespace perfbench {

/// `serve`: AuctionService::poll_once behind loopback TCP, open-loop
/// latency and closed-loop capacity.
[[nodiscard]] WorkloadResult run_serve(const RunOptions& options);

/// `clear-diurnal`: the auto-sharded paced LTO-VCG on one 100k-client
/// market whose bidder pool swells by day and shrinks by night.
[[nodiscard]] WorkloadResult run_clear_diurnal(const RunOptions& options);

/// `fl-harvest`: SustainableFlOrchestrator::run on the canonical
/// energy-harvesting FL scenario.
[[nodiscard]] WorkloadResult run_fl_harvest(const RunOptions& options);

/// clear-diurnal's bidder pool and the share of it bidding by day / night.
inline constexpr std::size_t kDiurnalPool = 100000;
inline constexpr double kDayShare = 0.95;
inline constexpr double kNightShare = 0.12;

/// One round's slate: every client of the pool bids independently with
/// probability `share`, in ascending id order, with seeded economics.
/// `variant` picks one of several distinct slates for the same share.
void make_diurnal_slate(std::uint64_t seed, std::size_t pool, double share,
                        std::size_t variant,
                        sfl::auction::CandidateBatch& out);

}  // namespace perfbench

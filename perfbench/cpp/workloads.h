// The four workloads. Each runs one round: a fresh world, its set-up, and a
// fixed, seeded share of the run's work, filling a RoundResult. A traced
// round installs `tracer` around its timed phase and fills the tally.

#pragma once

#include <algorithm>
#include <cmath>

#include "perfbench/cpp/common.h"
#include "perfbench/cpp/tracer.h"

namespace perfbench {

struct RoundContext {
  const RunConfig* cfg = nullptr;
  int round = 0;               // selects this round's inputs
  int rounds = 1;              // rounds the run's work is split over
  int64_t setup_origin_ns = 0; // setup_s counts from here
  Tracer* tracer = nullptr;    // non-null: traced round

  // This round's share of `per_second` units of work per run second (at
  // least one unit).
  int64_t Share(double per_second) const {
    return std::max<int64_t>(
        1, std::llround(per_second * cfg->seconds / rounds));
  }
  uint64_t Seed(uint64_t purpose) const {
    return MixSeed(cfg->seed, static_cast<uint64_t>(round), purpose);
  }
};

Status PaperRound(const RoundContext& ctx, RoundResult* out);
Status HotRound(const RoundContext& ctx, RoundResult* out);
Status ChurnRound(const RoundContext& ctx, RoundResult* out);
Status FleetRound(const RoundContext& ctx, RoundResult* out);

// Fleet only: the offered-rate ladder, the rung end-to-end latency comes
// from, and the sim p99 limit capacity is judged against. The ladder is
// geometric and reaches about 6x the capacity of the single shared SimClock
// (about 5 ops/s), so a design that serves the stubs concurrently has room to
// show its gain.
struct FleetLadder {
  static constexpr double kRates[] = {1.0, 2.0,  3.0,  4.0,  5.0, 6.0,
                                      8.0, 12.0, 16.0, 24.0, 32.0};
  static constexpr int kReferenceRung = 0;
  static constexpr double kP99LimitUs = 5e6;
};

}  // namespace perfbench

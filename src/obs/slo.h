// Declared latency objectives per operation class, evaluated from the
// op.latency_us histograms the entry points feed.
//
// An SloTarget names an op class (the histogram label: p_read, p_write,
// query, ...) and caps its p50/p99/p999 in microseconds; a 0 cap means that
// percentile is unconstrained. EvaluateSlos snapshots the histograms and
// reports observed-vs-target per class, with an overall pass flag — the same
// rows surface in `invfs_stats --slo` and the `invfs_slo` relation, so bench
// and torture runs can assert latency budgets with a SELECT.
//
// Targets live in DatabaseOptions (defaults from DefaultSloTargets), so a
// deployment declares its budgets where it declares its buffer count. The
// defaults are generous on purpose: sanitizer builds run 10-20x slower than
// release and must not fail correctness suites on latency.
//
// Attribution: entry points tagged with a tenant (src/obs/tenant.h) feed the
// same op.latency_us family under the label "<op>@<tenant>", and EvaluateSlos
// expands each target into per-tenant rows for every such label it finds —
// so one noisy tenant's verdict cannot hide behind a healthy aggregate.
// Each row also reports error-budget burn: the objective grants every op
// class a budget of kSloErrorBudget (1%) of requests above the p99 target,
// and burn is the observed above-target fraction divided by that budget —
// burn 1.0 spends the budget exactly, 30.0 is a page, 0.0 is untouched. Burn
// and the verdict share one rounding rule (an observation is above target
// when its bucket's upper bound exceeds the cap), so the p99 clause is
// violated exactly when burn > 1.0; below that, burn still shows how much of
// the budget is spent, which is why on-call dashboards watch it.

#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "src/obs/metrics.h"

namespace invfs {

struct SloTarget {
  std::string op;        // op-class label of the op.latency_us histogram
  uint64_t p50_us = 0;   // 0 = unconstrained
  uint64_t p99_us = 0;
  uint64_t p999_us = 0;
};

// Fraction of requests an op class may serve above its p99 target before its
// error budget is spent (burn == 1.0). By construction a distribution exactly
// meeting its p99 cap leaves 1% above it, so the natural budget is 1%.
inline constexpr double kSloErrorBudget = 0.01;

// Baseline targets for the op classes every workload exercises.
std::vector<SloTarget> DefaultSloTargets();

struct SloReport {
  std::string op;
  std::string tenant;    // empty = the all-tenants aggregate row
  uint64_t count = 0;    // observations so far
  uint64_t p50_us = 0;   // observed percentiles
  uint64_t p99_us = 0;
  uint64_t p999_us = 0;
  SloTarget target;
  bool ok = true;        // every constrained percentile within target
  // Error-budget burn rate against the p99 target: observed above-target
  // fraction / kSloErrorBudget. 0 when the target has no p99 cap or no data.
  double burn = 0.0;
};

// One aggregate report row per target, in target order, followed by that
// target's per-tenant rows (tenants sorted by name) for every
// op.latency_us{<op>@<tenant>} histogram present in the registry. Classes
// with no observations yet report count=0 and ok=true (no evidence of a
// violation); present them via SloVerdict, which distinguishes that case
// from a genuinely passing class — Percentile() returns 0 on an empty
// histogram, so a count-0 row's zeros are absence of data, not
// sub-microsecond latency.
std::vector<SloReport> EvaluateSlos(MetricsRegistry* metrics,
                                    const std::vector<SloTarget>& targets);

// Three-state verdict for one report row: "ok", "VIOLATED", or "no data"
// (count == 0: the op class was never exercised, so the objective is neither
// met nor violated). Static strings — safe to hold without the report.
const char* SloVerdict(const SloReport& report);

// Grade one histogram snapshot (bucket counts + observation count) against
// `target`: fills count/percentiles/ok/burn, leaving op/tenant to the
// caller. Shared by EvaluateSlos and the load driver, whose
// coordinated-omission-correct load.latency_us histograms are judged by the
// same rules as the entry-point wall-clock ones.
SloReport GradeSlo(const std::array<uint64_t, Histogram::kBuckets>& buckets,
                   uint64_t count, const SloTarget& target);

}  // namespace invfs

#include "src/obs/slo.h"

#include <algorithm>

#include "src/obs/metrics.h"
#include "src/obs/tenant.h"

namespace invfs {

namespace {

// Fraction of `buckets` observations above `target`, scaled by the error
// budget. A bucket counts as above when its inclusive upper bound exceeds the
// target — the same rounding the verdict applies through PercentileOf, which
// reports the upper bound of the bucket holding the p99 rank. So the bucket
// straddling the target counts as above, and the p99 clause of the verdict
// is violated exactly when burn > 1.0.
double BurnRate(const std::array<uint64_t, Histogram::kBuckets>& buckets,
                uint64_t count, uint64_t target_p99) {
  if (count == 0 || target_p99 == 0) {
    return 0.0;
  }
  uint64_t above = 0;
  for (size_t i = 0; i < Histogram::kBuckets; ++i) {
    if (Histogram::BucketUpper(i) > target_p99) {
      above += buckets[i];
    }
  }
  const double bad = static_cast<double>(above) / static_cast<double>(count);
  return bad / kSloErrorBudget;
}

}  // namespace

SloReport GradeSlo(const std::array<uint64_t, Histogram::kBuckets>& buckets,
                   uint64_t count, const SloTarget& target) {
  SloReport r;
  r.target = target;
  r.count = count;
  if (count == 0) {
    return r;
  }
  r.p50_us = Histogram::PercentileOf(buckets, 0.5);
  r.p99_us = Histogram::PercentileOf(buckets, 0.99);
  r.p999_us = Histogram::PercentileOf(buckets, 0.999);
  const SloTarget& t = target;
  r.ok = (t.p50_us == 0 || r.p50_us <= t.p50_us) &&
         (t.p99_us == 0 || r.p99_us <= t.p99_us) &&
         (t.p999_us == 0 || r.p999_us <= t.p999_us);
  r.burn = BurnRate(buckets, count, t.p99_us);
  return r;
}

std::vector<SloTarget> DefaultSloTargets() {
  // Wall-clock micros against the simulated device stack. Headroom is
  // deliberate (~10x a warm release run): these are fired-alarm thresholds,
  // not regression detectors, and sanitizer builds dilate real time.
  return {
      {"p_open", 20000, 100000, 500000},
      {"p_creat", 20000, 100000, 500000},
      {"p_read", 500, 5000, 20000},
      {"p_write", 2000, 20000, 100000},
      {"p_commit", 20000, 100000, 500000},
      {"query", 20000, 100000, 500000},
  };
}

std::vector<SloReport> EvaluateSlos(MetricsRegistry* metrics,
                                    const std::vector<SloTarget>& targets) {
  // One registry pass covers both the aggregate rows and the tenant
  // expansion; Snapshot() is already sorted by (name, label), so each op's
  // tenant labels come out in tenant order for free.
  std::vector<MetricSample> latency;
  for (MetricSample& s : metrics->Snapshot()) {
    if (s.name == "op.latency_us") {
      latency.push_back(std::move(s));
    }
  }
  std::vector<SloReport> out;
  out.reserve(targets.size());
  for (const SloTarget& t : targets) {
    SloReport r;
    r.target = t;
    for (const MetricSample& s : latency) {
      if (s.label == t.op) {
        r = GradeSlo(s.buckets, s.count, t);
        break;
      }
    }
    r.op = t.op;
    out.push_back(std::move(r));
    for (const MetricSample& s : latency) {
      // Per-tenant labels are "<op>@<tenant>"; split on the *last* separator
      // so a tenant name may not smuggle in extra columns but an op label
      // containing '@' cannot arise (ops come from the fixed TenantOp set).
      const size_t sep = s.label.rfind(kTenantLabelSep);
      if (sep == std::string::npos || s.label.compare(0, sep, t.op) != 0 ||
          sep != t.op.size()) {
        continue;
      }
      SloReport tr = GradeSlo(s.buckets, s.count, t);
      tr.op = t.op;
      tr.tenant = s.label.substr(sep + 1);
      out.push_back(std::move(tr));
    }
  }
  return out;
}

const char* SloVerdict(const SloReport& report) {
  if (report.count == 0) {
    return "no data";
  }
  return report.ok ? "ok" : "VIOLATED";
}

}  // namespace invfs

#include "src/query/virtual_tables.h"

#include <set>
#include <utility>

#include "src/obs/metrics.h"
#include "src/obs/slo.h"
#include "src/obs/span.h"
#include "src/obs/timeseries.h"

namespace invfs {

namespace {

// Reserved oids well below the catalog's first allocated oid; never stored
// in pg_class, only used so EvalContext bindings have distinct identities.
constexpr Oid kInvfsStatsOid = 90;
constexpr Oid kInvfsSpansOid = 92;
constexpr Oid kInvfsSloOid = 93;
constexpr Oid kInvfsTimeseriesOid = 94;

TableInfo* StatsTableInfo() {
  static TableInfo* info = [] {
    auto* t = new TableInfo();
    t->oid = kInvfsStatsOid;
    t->name = "invfs_stats";
    t->schema = Schema{{"name", TypeId::kText},
                       {"label", TypeId::kText},
                       {"kind", TypeId::kText},
                       {"value", TypeId::kInt8},
                       {"count", TypeId::kInt8},
                       {"sum", TypeId::kInt8}};
    return t;
  }();
  return info;
}

TableInfo* SpansTableInfo() {
  static TableInfo* info = [] {
    auto* t = new TableInfo();
    t->oid = kInvfsSpansOid;
    t->name = "invfs_spans";
    t->schema = Schema{{"trace", TypeId::kInt8},
                       {"span", TypeId::kInt8},
                       {"parent", TypeId::kInt8},
                       {"name", TypeId::kText},
                       // Tenant tag active when the span opened ("" =
                       // untagged): the join key between a request tree and
                       // the per-tenant invfs_slo rows.
                       {"tenant", TypeId::kText},
                       {"thread", TypeId::kInt8},
                       {"start", TypeId::kInt8},
                       {"duration", TypeId::kInt8},
                       {"a", TypeId::kInt8},
                       {"b", TypeId::kInt8}};
    return t;
  }();
  return info;
}

TableInfo* SloTableInfo() {
  static TableInfo* info = [] {
    auto* t = new TableInfo();
    t->oid = kInvfsSloOid;
    t->name = "invfs_slo";
    t->schema = Schema{{"op", TypeId::kText},
                       // "" = the all-tenants aggregate row; otherwise one
                       // row per tenant observed for this op class.
                       {"tenant", TypeId::kText},
                       {"count", TypeId::kInt8},
                       {"p50", TypeId::kInt8},
                       {"p99", TypeId::kInt8},
                       {"p999", TypeId::kInt8},
                       {"target_p50", TypeId::kInt8},
                       {"target_p99", TypeId::kInt8},
                       {"target_p999", TypeId::kInt8},
                       {"ok", TypeId::kBool},
                       // "ok" / "VIOLATED" / "no data" — distinguishes a
                       // never-exercised op class (count 0, zeros above are
                       // absence of data) from a passing one.
                       {"verdict", TypeId::kText},
                       // Error-budget burn against the p99 target (1.0 =
                       // budget spent exactly; see kSloErrorBudget).
                       {"burn", TypeId::kFloat8}};
    return t;
  }();
  return info;
}

TableInfo* TimeseriesTableInfo() {
  static TableInfo* info = [] {
    auto* t = new TableInfo();
    t->oid = kInvfsTimeseriesOid;
    t->name = "invfs_timeseries";
    t->schema = Schema{{"sample", TypeId::kInt8},
                       {"micros", TypeId::kInt8},
                       {"name", TypeId::kText},
                       {"label", TypeId::kText},
                       {"kind", TypeId::kText},
                       // Counter delta over the window / gauge point value /
                       // histogram observations in the window.
                       {"value", TypeId::kInt8},
                       {"count", TypeId::kInt8},
                       // Windowed percentiles (histograms; 0 otherwise).
                       {"p50", TypeId::kInt8},
                       {"p99", TypeId::kInt8},
                       {"p999", TypeId::kInt8}};
    return t;
  }();
  return info;
}

void AppendStatsRows(const std::vector<MetricSample>& samples,
                     std::set<std::pair<std::string, std::string>>* seen,
                     std::vector<Row>* out) {
  for (const MetricSample& s : samples) {
    if (!seen->insert({s.name, s.label}).second) {
      continue;
    }
    out->push_back(Row{Value::Text(s.name), Value::Text(s.label),
                       Value::Text(MetricKindName(s.kind)), Value::Int8(s.value),
                       Value::Int8(static_cast<int64_t>(s.count)),
                       Value::Int8(static_cast<int64_t>(s.sum))});
  }
}

}  // namespace

bool IsVirtualTable(std::string_view name) {
  return name == "invfs_stats" || name == "invfs_spans" ||
         name == "invfs_slo" || name == "invfs_timeseries";
}

TableInfo* VirtualTableInfo(std::string_view name) {
  if (name == "invfs_spans") {
    return SpansTableInfo();
  }
  if (name == "invfs_slo") {
    return SloTableInfo();
  }
  if (name == "invfs_timeseries") {
    return TimeseriesTableInfo();
  }
  return StatsTableInfo();
}

std::vector<Row> MaterializeVirtualTable(Database* db, std::string_view name) {
  std::vector<Row> rows;
  if (name == "invfs_spans") {
    for (const SpanRecord& r : db->metrics().spans().Snapshot()) {
      rows.push_back(Row{Value::Int8(static_cast<int64_t>(r.trace_id)),
                         Value::Int8(static_cast<int64_t>(r.span_id)),
                         Value::Int8(static_cast<int64_t>(r.parent_id)),
                         Value::Text(r.name == nullptr ? "" : r.name),
                         Value::Text(r.tenant == nullptr ? "" : r.tenant),
                         Value::Int8(static_cast<int64_t>(r.thread)),
                         Value::Int8(static_cast<int64_t>(r.start_micros)),
                         Value::Int8(static_cast<int64_t>(r.dur_micros)),
                         Value::Int8(static_cast<int64_t>(r.a)),
                         Value::Int8(static_cast<int64_t>(r.b))});
    }
    return rows;
  }
  if (name == "invfs_slo") {
    for (const SloReport& r :
         EvaluateSlos(&db->metrics(), db->options().slo_targets)) {
      rows.push_back(Row{Value::Text(r.op), Value::Text(r.tenant),
                         Value::Int8(static_cast<int64_t>(r.count)),
                         Value::Int8(static_cast<int64_t>(r.p50_us)),
                         Value::Int8(static_cast<int64_t>(r.p99_us)),
                         Value::Int8(static_cast<int64_t>(r.p999_us)),
                         Value::Int8(static_cast<int64_t>(r.target.p50_us)),
                         Value::Int8(static_cast<int64_t>(r.target.p99_us)),
                         Value::Int8(static_cast<int64_t>(r.target.p999_us)),
                         Value::Bool(r.ok), Value::Text(SloVerdict(r)),
                         Value::Float8(r.burn)});
    }
    return rows;
  }
  if (name == "invfs_timeseries") {
    for (const TimeSeriesPoint& pt : db->metrics().timeseries().Snapshot()) {
      rows.push_back(Row{Value::Int8(static_cast<int64_t>(pt.sample)),
                         Value::Int8(static_cast<int64_t>(pt.at_micros)),
                         Value::Text(pt.name), Value::Text(pt.label),
                         Value::Text(MetricKindName(pt.kind)),
                         Value::Int8(pt.value),
                         Value::Int8(static_cast<int64_t>(pt.count)),
                         Value::Int8(static_cast<int64_t>(pt.p50)),
                         Value::Int8(static_cast<int64_t>(pt.p99)),
                         Value::Int8(static_cast<int64_t>(pt.p999))});
    }
    return rows;
  }
  // invfs_stats: this database's registry first, then process-wide metrics
  // (logging) that the database does not shadow.
  std::set<std::pair<std::string, std::string>> seen;
  AppendStatsRows(db->metrics().Snapshot(), &seen, &rows);
  AppendStatsRows(MetricsRegistry::Default().Snapshot(), &seen, &rows);
  return rows;
}

}  // namespace invfs

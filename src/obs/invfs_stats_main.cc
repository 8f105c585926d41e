// invfs_stats: run a scripted workload on a fresh in-memory Inversion world
// and dump (or POSTQUEL-query) the resulting metrics registry.
//
//   invfs_stats                  text table of every metric
//   invfs_stats --json           JSON snapshot of the whole registry
//   invfs_stats --spans          recent span records (newest last)
//   invfs_stats --slowest N      top-N slowest request trees, children indented
//   invfs_stats --breakdown OP   latency attribution for every span named OP:
//                                an aggregated child tree with self-time, plus
//                                the fraction of OP wall time attributed to
//                                named child spans
//   invfs_stats --slo            per-op-class SLO report (p50/p99/p999 vs the
//                                targets declared in DatabaseOptions), one
//                                aggregate row per op class plus per-tenant
//                                rows with error-budget burn
//   invfs_stats --timeseries     sampled time-series windows (counter deltas,
//                                gauge points, histogram window percentiles);
//                                with --json, a JSON array
//   invfs_stats --query "retrieve (s.name, s.value) from s in invfs_stats
//                        where s.name = \"buffer.hits\""
//
// The world is simulated and self-contained, so the tool doubles as a live
// demo of the observability layer: every number it prints was produced by
// the workload it just ran, and --query goes through the real POSTQUEL
// executor against the invfs_stats / invfs_spans / invfs_slo /
// invfs_timeseries virtual relations.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

#include "src/harness/worlds.h"
#include "src/obs/metrics.h"
#include "src/obs/slo.h"
#include "src/obs/span.h"
#include "src/obs/tenant.h"
#include "src/obs/timeseries.h"

namespace invfs {
namespace {

// A small mixed workload: files created, written, read back, queried —
// enough to light up buffer, log, txn, device and query metrics. Caches are
// dropped between the write and read phases so the read side is cold: every
// p_read tree then contains real buffer-miss and device-I/O child spans,
// which is what --breakdown is for. The write phase runs tagged as tenant
// "writer" and the read phase as "reader", so --slo shows per-tenant rows
// and --query sees tenant labels; the sampler is ticked on the sim clock
// throughout, so invfs_timeseries and --timeseries have real windows.
Status RunWorkload(InversionWorld* world) {
  InvSession& s = world->session();
  MetricsRegistry& metrics = world->db().metrics();
  TimeSeriesSampler& sampler = metrics.timeseries();
  SimClock& clock = world->db().clock();
  INV_RETURN_IF_ERROR(s.mkdir("/demo"));
  std::vector<std::byte> block(8192, std::byte{0x5a});
  TenantBinding writer(&metrics, "writer");
  TenantBinding reader(&metrics, "reader");
  for (int i = 0; i < 8; ++i) {
    ScopedTenantTag tag(&writer);
    const std::string path = "/demo/file" + std::to_string(i);
    INV_RETURN_IF_ERROR(s.p_begin());
    INV_ASSIGN_OR_RETURN(int fd, s.p_creat(path));
    for (int j = 0; j < 4; ++j) {
      INV_RETURN_IF_ERROR(s.p_write(fd, block).status());
    }
    INV_RETURN_IF_ERROR(s.p_close(fd));
    INV_RETURN_IF_ERROR(s.p_commit());
    clock.Advance(sampler.interval_micros());
    sampler.Tick(clock.Peek());
  }
  INV_RETURN_IF_ERROR(world->db().FlushCaches());
  for (int i = 0; i < 8; ++i) {
    ScopedTenantTag tag(&reader);
    const std::string path = "/demo/file" + std::to_string(i);
    INV_ASSIGN_OR_RETURN(int fd, s.p_open(path, OpenMode::kRead));
    std::vector<std::byte> buf(4096);
    while (true) {
      INV_ASSIGN_OR_RETURN(int64_t n, s.p_read(fd, buf));
      if (n <= 0) {
        break;
      }
    }
    INV_RETURN_IF_ERROR(s.p_close(fd));
    clock.Advance(sampler.interval_micros());
    sampler.Tick(clock.Peek());
  }
  // An ad-hoc metadata query, the paper's headline feature.
  INV_RETURN_IF_ERROR(
      s.Query("retrieve (f.filename) from f in naming").status());
  sampler.Sample(clock.Peek());  // final partial window
  return Status::Ok();
}

using ChildMap = std::unordered_map<uint64_t, std::vector<const SpanRecord*>>;

// Index a snapshot by parent span id; children sorted by start time.
ChildMap BuildChildMap(const std::vector<SpanRecord>& snap) {
  ChildMap children;
  for (const SpanRecord& r : snap) {
    if (r.parent_id != 0) {
      children[r.parent_id].push_back(&r);
    }
  }
  for (auto& [parent, kids] : children) {
    std::sort(kids.begin(), kids.end(),
              [](const SpanRecord* a, const SpanRecord* b) {
                return a->start_micros < b->start_micros;
              });
  }
  return children;
}

void PrintSpanTree(const SpanRecord& r, const ChildMap& children, int depth) {
  std::printf("%10llu us  %*s%s  (trace=%llu span=%llu a=%llu b=%llu)\n",
              static_cast<unsigned long long>(r.dur_micros), depth * 2, "",
              r.name == nullptr ? "?" : r.name,
              static_cast<unsigned long long>(r.trace_id),
              static_cast<unsigned long long>(r.span_id),
              static_cast<unsigned long long>(r.a),
              static_cast<unsigned long long>(r.b));
  auto it = children.find(r.span_id);
  if (it == children.end()) {
    return;
  }
  for (const SpanRecord* child : it->second) {
    PrintSpanTree(*child, children, depth + 1);
  }
}

int DumpSpans(const std::vector<SpanRecord>& snap) {
  for (const SpanRecord& r : snap) {
    std::printf(
        "%8llu  trace=%-6llu span=%-6llu parent=%-6llu t%-3llu "
        "%10llu us  %-24s a=%llu b=%llu\n",
        static_cast<unsigned long long>(r.seq),
        static_cast<unsigned long long>(r.trace_id),
        static_cast<unsigned long long>(r.span_id),
        static_cast<unsigned long long>(r.parent_id),
        static_cast<unsigned long long>(r.thread),
        static_cast<unsigned long long>(r.dur_micros),
        r.name == nullptr ? "?" : r.name, static_cast<unsigned long long>(r.a),
        static_cast<unsigned long long>(r.b));
  }
  return 0;
}

int DumpSlowest(const std::vector<SpanRecord>& snap, int n) {
  const ChildMap children = BuildChildMap(snap);
  std::vector<const SpanRecord*> roots;
  for (const SpanRecord& r : snap) {
    if (r.parent_id == 0) {
      roots.push_back(&r);
    }
  }
  std::sort(roots.begin(), roots.end(),
            [](const SpanRecord* a, const SpanRecord* b) {
              return a->dur_micros > b->dur_micros;
            });
  if (static_cast<size_t>(n) < roots.size()) {
    roots.resize(static_cast<size_t>(n));
  }
  for (const SpanRecord* root : roots) {
    PrintSpanTree(*root, children, 0);
    std::printf("\n");
  }
  return 0;
}

// One node of the aggregated --breakdown tree: all spans that share the same
// name-path under the chosen op, merged.
struct BreakdownNode {
  uint64_t count = 0;
  uint64_t total_us = 0;
  uint64_t child_us = 0;  // Σ direct children's durations (for self-time)
  std::map<std::string, BreakdownNode> children;
};

void Accumulate(BreakdownNode* node, const SpanRecord& r,
                const ChildMap& children) {
  node->count += 1;
  node->total_us += r.dur_micros;
  auto it = children.find(r.span_id);
  if (it == children.end()) {
    return;
  }
  for (const SpanRecord* child : it->second) {
    node->child_us += child->dur_micros;
    Accumulate(&node->children[child->name == nullptr ? "?" : child->name],
               *child, children);
  }
}

void PrintBreakdown(const std::string& name, const BreakdownNode& node,
                    uint64_t op_total_us, int depth) {
  const uint64_t self =
      node.total_us > node.child_us ? node.total_us - node.child_us : 0;
  const double pct =
      op_total_us == 0
          ? 0.0
          : 100.0 * static_cast<double>(node.total_us) / op_total_us;
  std::printf("%*s%-*s %6llu calls  %10llu us total  %10llu us self  %5.1f%%\n",
              depth * 2, "", 32 - depth * 2, name.c_str(),
              static_cast<unsigned long long>(node.count),
              static_cast<unsigned long long>(node.total_us),
              static_cast<unsigned long long>(self), pct);
  for (const auto& [child_name, child] : node.children) {
    PrintBreakdown(child_name, child, op_total_us, depth + 1);
  }
}

int Breakdown(const std::vector<SpanRecord>& snap, const std::string& op) {
  const ChildMap children = BuildChildMap(snap);
  BreakdownNode root;
  uint64_t attributed_us = 0;  // Σ min(dur, direct-child dur) per op span
  for (const SpanRecord& r : snap) {
    if (r.name == nullptr || op != r.name) {
      continue;
    }
    Accumulate(&root, r, children);
    uint64_t direct = 0;
    auto it = children.find(r.span_id);
    if (it != children.end()) {
      for (const SpanRecord* child : it->second) {
        direct += child->dur_micros;
      }
    }
    attributed_us += std::min(r.dur_micros, direct);
  }
  if (root.count == 0) {
    std::fprintf(stderr, "no spans named \"%s\" in the ring\n", op.c_str());
    return 1;
  }
  PrintBreakdown(op, root, root.total_us, 0);
  const double pct = root.total_us == 0
                         ? 100.0
                         : 100.0 * static_cast<double>(attributed_us) /
                               static_cast<double>(root.total_us);
  std::printf(
      "\nattributed %.1f%% of %llu us across %llu %s spans to named child "
      "spans\n",
      pct, static_cast<unsigned long long>(root.total_us),
      static_cast<unsigned long long>(root.count), op.c_str());
  return 0;
}

int DumpSlo(Database* db) {
  std::printf("%-10s %-10s %8s  %10s %10s %10s  %10s %10s %10s  %6s  %s\n",
              "op", "tenant", "count", "p50", "p99", "p999", "slo_p50",
              "slo_p99", "slo_p999", "burn", "verdict");
  for (const SloReport& r :
       EvaluateSlos(&db->metrics(), db->options().slo_targets)) {
    std::printf(
        "%-10s %-10s %8llu  %10llu %10llu %10llu  %10llu %10llu %10llu  "
        "%6.2f  %s\n",
        r.op.c_str(), r.tenant.empty() ? "*" : r.tenant.c_str(),
        static_cast<unsigned long long>(r.count),
        static_cast<unsigned long long>(r.p50_us),
        static_cast<unsigned long long>(r.p99_us),
        static_cast<unsigned long long>(r.p999_us),
        static_cast<unsigned long long>(r.target.p50_us),
        static_cast<unsigned long long>(r.target.p99_us),
        static_cast<unsigned long long>(r.target.p999_us), r.burn,
        SloVerdict(r));
  }
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: invfs_stats [--json] [--spans | --slowest N |"
               " --breakdown <op> | --slo | --timeseries |"
               " --query <postquel>]\n");
  return 2;
}

int Run(int argc, char** argv) {
  bool json = false;
  bool spans = false;
  bool slo = false;
  bool timeseries = false;
  int slowest = 0;
  std::string breakdown;
  std::string query;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") == 0) {
      json = true;
    } else if (std::strcmp(argv[i], "--spans") == 0) {
      spans = true;
    } else if (std::strcmp(argv[i], "--slo") == 0) {
      slo = true;
    } else if (std::strcmp(argv[i], "--timeseries") == 0) {
      timeseries = true;
    } else if (std::strcmp(argv[i], "--slowest") == 0 && i + 1 < argc) {
      slowest = std::atoi(argv[++i]);
      if (slowest <= 0) {
        return Usage();
      }
    } else if (std::strcmp(argv[i], "--breakdown") == 0 && i + 1 < argc) {
      breakdown = argv[++i];
    } else if (std::strcmp(argv[i], "--query") == 0 && i + 1 < argc) {
      query = argv[++i];
    } else {
      return Usage();
    }
  }

  auto world_or = InversionWorld::Create();
  if (!world_or.ok()) {
    std::fprintf(stderr, "create world: %s\n",
                 world_or.status().ToString().c_str());
    return 1;
  }
  InversionWorld& world = **world_or;
  if (Status s = RunWorkload(&world); !s.ok()) {
    std::fprintf(stderr, "workload: %s\n", s.ToString().c_str());
    return 1;
  }

  if (!query.empty()) {
    auto rs = world.session().Query(query);
    if (!rs.ok()) {
      std::fprintf(stderr, "query: %s\n", rs.status().ToString().c_str());
      return 1;
    }
    std::fputs(rs->ToString().c_str(), stdout);
    return 0;
  }
  if (spans) {
    return DumpSpans(world.db().metrics().spans().Snapshot());
  }
  if (slowest > 0) {
    return DumpSlowest(world.db().metrics().spans().Snapshot(), slowest);
  }
  if (!breakdown.empty()) {
    return Breakdown(world.db().metrics().spans().Snapshot(), breakdown);
  }
  if (slo) {
    return DumpSlo(&world.db());
  }
  if (timeseries) {
    TimeSeriesSampler& sampler = world.db().metrics().timeseries();
    std::fputs(json ? sampler.DumpJson().c_str() : sampler.DumpText().c_str(),
               stdout);
    return 0;
  }
  std::fputs(json ? world.db().metrics().DumpJson().c_str()
                  : world.db().metrics().DumpText().c_str(),
             stdout);
  return 0;
}

}  // namespace
}  // namespace invfs

int main(int argc, char** argv) { return invfs::Run(argc, argv); }

// Unit tests for the observability layer: counter/gauge/histogram semantics
// (including percentiles), registry snapshots and dumps, the span ring
// (including wrap-around), ScopedSpan context propagation, and the
// end-to-end span shape of an RPC write.

#include <gtest/gtest.h>

#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "src/harness/worlds.h"
#include "src/net/rpc.h"
#include "src/obs/metrics.h"
#include "src/obs/slo.h"
#include "src/obs/span.h"

namespace invfs {
namespace {

TEST(CounterTest, StartsAtZeroAndAccumulates) {
  Counter c;
  EXPECT_EQ(c.Value(), 0u);
  c.Add();
  c.Add(41);
  EXPECT_EQ(c.Value(), 42u);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  EXPECT_EQ(g.Value(), 0);
  g.Set(7);
  EXPECT_EQ(g.Value(), 7);
  g.Add(-10);
  EXPECT_EQ(g.Value(), -3);
}

TEST(HistogramTest, BucketBoundaries) {
  // Bucket 0 holds zeros; bucket i >= 1 holds [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::BucketOf(0), 0u);
  EXPECT_EQ(Histogram::BucketOf(1), 1u);
  EXPECT_EQ(Histogram::BucketOf(2), 2u);
  EXPECT_EQ(Histogram::BucketOf(3), 2u);
  EXPECT_EQ(Histogram::BucketOf(4), 3u);
  EXPECT_EQ(Histogram::BucketOf(1023), 10u);
  EXPECT_EQ(Histogram::BucketOf(1024), 11u);
  // Everything huge lands in the final bucket rather than overflowing.
  EXPECT_EQ(Histogram::BucketOf(UINT64_MAX), Histogram::kBuckets - 1);
}

TEST(HistogramTest, CountSumMeanAndBuckets) {
  Histogram h;
  EXPECT_EQ(h.Count(), 0u);
  EXPECT_DOUBLE_EQ(h.Mean(), 0.0);
  h.Observe(0);
  h.Observe(1);
  h.Observe(5);
  EXPECT_EQ(h.Count(), 3u);
  EXPECT_EQ(h.Sum(), 6u);
  EXPECT_DOUBLE_EQ(h.Mean(), 2.0);
  auto buckets = h.Buckets();
  EXPECT_EQ(buckets[0], 1u);  // the 0
  EXPECT_EQ(buckets[1], 1u);  // the 1
  EXPECT_EQ(buckets[3], 1u);  // the 5 (in [4,8))
}

TEST(HistogramTest, PercentileOnEmptyIsZero) {
  Histogram h;
  EXPECT_EQ(h.Percentile(0.5), 0u);
  EXPECT_EQ(h.Percentile(0.999), 0u);
}

TEST(HistogramTest, PercentileReturnsBucketUpperBounds) {
  Histogram h;
  // 90 fast observations and 10 slow ones. The percentile is a conservative
  // upper bound: the top edge of the first bucket covering the target rank.
  for (int i = 0; i < 90; ++i) {
    h.Observe(3);  // bucket [2,4) -> upper bound 3
  }
  for (int i = 0; i < 10; ++i) {
    h.Observe(1000);  // bucket [512,1024) -> upper bound 1023
  }
  EXPECT_EQ(h.Percentile(0.5), 3u);
  EXPECT_EQ(h.Percentile(0.90), 3u);
  EXPECT_EQ(h.Percentile(0.99), 1023u);
  EXPECT_EQ(h.Percentile(0.999), 1023u);
  // Degenerate p values clamp to the first / last observation's bucket.
  EXPECT_EQ(h.Percentile(0.0), 3u);
  EXPECT_EQ(h.Percentile(1.0), 1023u);
}

TEST(SloTest, EmptyHistogramYieldsNoDataVerdict) {
  // An op class with zero observations must not fabricate a passing (or
  // failing) latency report out of Percentile's empty-histogram 0: the
  // verdict is "no data", distinct from "ok".
  MetricsRegistry reg;
  auto reports = EvaluateSlos(&reg, {{"p_read", 500, 5000, 20000}});
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].count, 0u);
  EXPECT_EQ(reports[0].p50_us, 0u);
  EXPECT_EQ(reports[0].p999_us, 0u);
  EXPECT_TRUE(reports[0].ok) << "no observations is not evidence of violation";
  EXPECT_STREQ(SloVerdict(reports[0]), "no data");
}

TEST(SloTest, ExercisedClassYieldsOkOrViolated) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("op.latency_us", "p_read");
  for (int i = 0; i < 100; ++i) {
    h->Observe(100);
  }
  auto within = EvaluateSlos(&reg, {{"p_read", 500, 5000, 20000}});
  ASSERT_EQ(within.size(), 1u);
  EXPECT_GT(within[0].count, 0u);
  EXPECT_STREQ(SloVerdict(within[0]), "ok");

  auto beyond = EvaluateSlos(&reg, {{"p_read", 10, 10, 10}});
  ASSERT_EQ(beyond.size(), 1u);
  EXPECT_FALSE(beyond[0].ok);
  EXPECT_STREQ(SloVerdict(beyond[0]), "VIOLATED");
}

TEST(SloTest, StraddlingBucketGradesVerdictAndBurnAlike) {
  // Observations in [4096, 8192) share one bucket whose upper bound (8191)
  // exceeds a 5000us p99 target: the verdict rounds that bucket up, so the
  // burn rate must count it as above target too, never VIOLATED at burn 0.
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("op.latency_us", "p_read");
  for (int i = 0; i < 100; ++i) {
    h->Observe(4500);
  }
  auto reports = EvaluateSlos(&reg, {{"p_read", 0, 5000, 0}});
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_STREQ(SloVerdict(reports[0]), "VIOLATED");
  EXPECT_DOUBLE_EQ(reports[0].burn, 100.0);

  // And for any mix around the target, the p99 clause is violated exactly
  // when the error budget is overspent.
  for (uint64_t above = 0; above <= 5; ++above) {
    std::array<uint64_t, Histogram::kBuckets> buckets{};
    buckets[Histogram::BucketOf(3000)] = 100 - above;
    buckets[Histogram::BucketOf(4500)] = above;
    const SloReport r = GradeSlo(buckets, 100, {"p_read", 0, 5000, 0});
    EXPECT_EQ(!r.ok, r.burn > 1.0) << above << " above, burn " << r.burn;
  }
}

TEST(HistogramTest, PercentileOfSingleObservation) {
  Histogram h;
  h.Observe(0);
  // Bucket 0 holds exact zeros, so its upper bound is 0.
  EXPECT_EQ(h.Percentile(0.5), 0u);
  EXPECT_EQ(h.Percentile(0.999), 0u);
}

TEST(MetricsRegistryTest, FindOrCreateReturnsStablePointers) {
  MetricsRegistry reg;
  Counter* a = reg.GetCounter("x");
  Counter* b = reg.GetCounter("x");
  EXPECT_EQ(a, b);
  // Distinct labels are distinct metrics.
  Counter* l1 = reg.GetCounter("x", "one");
  Counter* l2 = reg.GetCounter("x", "two");
  EXPECT_NE(l1, l2);
  EXPECT_NE(a, l1);
  // Kinds live in separate namespaces keyed by (name, label).
  Gauge* g = reg.GetGauge("x");
  Histogram* h = reg.GetHistogram("x");
  EXPECT_NE(static_cast<void*>(g), static_cast<void*>(a));
  EXPECT_NE(static_cast<void*>(h), static_cast<void*>(a));
}

TEST(MetricsRegistryTest, SnapshotIsSortedAndComplete) {
  MetricsRegistry reg;
  reg.GetCounter("b.counter")->Add(2);
  reg.GetGauge("a.gauge")->Set(-5);
  reg.GetHistogram("c.hist")->Observe(16);
  auto snap = reg.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap[0].name, "a.gauge");
  EXPECT_EQ(snap[0].kind, MetricKind::kGauge);
  EXPECT_EQ(snap[0].value, -5);
  EXPECT_EQ(snap[1].name, "b.counter");
  EXPECT_EQ(snap[1].value, 2);
  EXPECT_EQ(snap[2].name, "c.hist");
  EXPECT_EQ(snap[2].count, 1u);
  EXPECT_EQ(snap[2].sum, 16u);
}

TEST(MetricsRegistryTest, DumpTextAndJsonContainMetrics) {
  MetricsRegistry reg;
  reg.GetCounter("buffer.hits")->Add(7);
  reg.GetHistogram("log.flush_us", "disk")->Observe(100);
  const std::string text = reg.DumpText();
  EXPECT_NE(text.find("buffer.hits"), std::string::npos);
  EXPECT_NE(text.find("7"), std::string::npos);
  EXPECT_NE(text.find("log.flush_us{disk}"), std::string::npos);
  const std::string json = reg.DumpJson();
  EXPECT_NE(json.find("\"name\": \"buffer.hits\""), std::string::npos);
  EXPECT_NE(json.find("\"value\": 7"), std::string::npos);
  EXPECT_NE(json.find("\"kind\": \"histogram\""), std::string::npos);
  EXPECT_NE(json.find("\"count\": 1"), std::string::npos);
}

TEST(MetricsRegistryTest, DumpsRenderHistogramPercentiles) {
  MetricsRegistry reg;
  Histogram* h = reg.GetHistogram("op.latency_us", "p_read");
  for (int i = 0; i < 95; ++i) {
    h->Observe(3);
  }
  for (int i = 0; i < 5; ++i) {
    h->Observe(1000);
  }
  const std::string text = reg.DumpText();
  EXPECT_NE(text.find("p50=3"), std::string::npos);
  EXPECT_NE(text.find("p99=1023"), std::string::npos);
  const std::string json = reg.DumpJson();
  EXPECT_NE(json.find("\"p50\": 3"), std::string::npos);
  EXPECT_NE(json.find("\"p99\": 1023"), std::string::npos);
  EXPECT_NE(json.find("\"p999\": 1023"), std::string::npos);
  EXPECT_NE(json.find("\"count\": 100"), std::string::npos);
  EXPECT_NE(json.find("\"sum\": "), std::string::npos);
  EXPECT_NE(json.find("\"mean\": "), std::string::npos);
}

TEST(SpanRingTest, RecordsAndWraps) {
  // A requested capacity is rounded up to a power of two: 100 holds 128.
  for (size_t requested : {128, 100}) {
    SCOPED_TRACE(requested);
    SpanRing ring(requested);
    EXPECT_EQ(ring.capacity(), 128u);
    for (uint64_t i = 0; i < 200; ++i) {
      SpanRecord r;
      r.trace_id = 1;
      r.span_id = i + 1;
      r.parent_id = 0;
      r.name = "test.span";
      r.start_micros = i;
      r.dur_micros = 5;
      r.a = i;
      ring.RecordSpan(r);
    }
    EXPECT_EQ(ring.TotalRecorded(), 200u);
    auto snap = ring.Snapshot();
    ASSERT_EQ(snap.size(), 128u);
    // Survivors are the newest records, in publication order.
    EXPECT_EQ(snap.front().a, 200u - 128u);
    EXPECT_EQ(snap.back().a, 199u);
    for (size_t i = 1; i < snap.size(); ++i) {
      EXPECT_LT(snap[i - 1].seq, snap[i].seq);
    }
  }
}

TEST(SpanRingTest, WrapCountsDrops) {
  SpanRing ring(64);
  SpanRecord r;
  r.trace_id = 1;
  r.name = "test.span";
  for (uint64_t i = 0; i < 64; ++i) {
    r.span_id = i + 1;
    ring.RecordSpan(r);
  }
  EXPECT_EQ(ring.TotalDropped(), 0u);
  for (uint64_t i = 0; i < 10; ++i) {
    r.span_id = 100 + i;
    ring.RecordSpan(r);
  }
  EXPECT_EQ(ring.TotalDropped(), 10u);
  EXPECT_EQ(ring.TotalRecorded(), 74u);
}

TEST(ScopedSpanTest, NestingLinksParentAndRestoresContext) {
  SpanRing ring;
  uint64_t outer_trace = 0;
  uint64_t outer_span = 0;
  uint64_t inner_span = 0;
  {
    ScopedSpan outer(&ring, "outer");
    outer_trace = outer.trace_id();
    outer_span = outer.span_id();
    {
      ScopedSpan inner(&ring, "inner", 7, 8);
      inner_span = inner.span_id();
      // Child joins the parent's trace with a fresh span id.
      EXPECT_EQ(inner.trace_id(), outer_trace);
      EXPECT_NE(inner_span, outer_span);
    }
    // After the child ends, a new span sees `outer` as its parent again.
    ScopedSpan sibling(&ring, "sibling");
    EXPECT_EQ(sibling.trace_id(), outer_trace);
  }
  auto snap = ring.Snapshot();
  ASSERT_EQ(snap.size(), 3u);
  // Spans publish at End(), so children land before their parents.
  EXPECT_STREQ(snap[0].name, "inner");
  EXPECT_EQ(snap[0].trace_id, outer_trace);
  EXPECT_EQ(snap[0].parent_id, outer_span);
  EXPECT_EQ(snap[0].a, 7u);
  EXPECT_EQ(snap[0].b, 8u);
  EXPECT_STREQ(snap[1].name, "sibling");
  EXPECT_EQ(snap[1].parent_id, outer_span);
  EXPECT_STREQ(snap[2].name, "outer");
  EXPECT_EQ(snap[2].span_id, outer_span);
  EXPECT_EQ(snap[2].parent_id, 0u);
}

TEST(ScopedSpanTest, SeparateRootsGetSeparateTraces) {
  SpanRing ring;
  uint64_t first_trace = 0;
  {
    ScopedSpan root(&ring, "first");
    first_trace = root.trace_id();
  }
  {
    ScopedSpan root(&ring, "second");
    EXPECT_NE(root.trace_id(), first_trace);
    EXPECT_NE(root.trace_id(), 0u);
  }
}

TEST(ScopedSpanTest, NullRingIsInertAndKeepsContextClean) {
  ScopedSpan outer(nullptr, "noop");
  EXPECT_EQ(outer.trace_id(), 0u);
  EXPECT_EQ(outer.span_id(), 0u);
  // A real span opened next still starts a fresh trace: the no-op span did
  // not leak itself into the thread-local context.
  SpanRing ring;
  {
    ScopedSpan real(&ring, "real");
    EXPECT_NE(real.trace_id(), 0u);
  }
  auto snap = ring.Snapshot();
  ASSERT_EQ(snap.size(), 1u);
  EXPECT_EQ(snap[0].parent_id, 0u);
}

TEST(SpanNameInternTest, ReturnsStablePointerPerName) {
  const char* a = InternSpanName("device.read.disk0");
  const char* b = InternSpanName("device.read.disk0");
  const char* c = InternSpanName("device.read.disk1");
  EXPECT_EQ(a, b);
  EXPECT_NE(a, c);
  EXPECT_STREQ(a, "device.read.disk0");
}

// End-to-end span shape: an RPC write against a cold cache must produce one
// causally linked tree — the rpc.write root, a p_write child, and (deeper in
// the same trace) a buffer-pool miss and a group-commit flush wait. This is
// the contract --breakdown and the invfs_spans relation rely on.
TEST(SpanShapeTest, RpcWriteTreeLinksBufferMissAndCommitFlush) {
  auto world_or = InversionWorld::Create();
  ASSERT_TRUE(world_or.ok());
  InversionWorld& world = **world_or;

  // Seed a file locally (local p_* spans are roots of other traces and do
  // not collide with the single rpc.write root asserted below).
  InvSession& local = world.session();
  ASSERT_TRUE(local.p_begin().ok());
  auto fd = local.p_creat("/spanned.txt");
  ASSERT_TRUE(fd.ok());
  std::vector<std::byte> block(8192, std::byte{0x42});
  ASSERT_TRUE(local.p_write(*fd, block).ok());
  ASSERT_TRUE(local.p_close(*fd).ok());
  ASSERT_TRUE(local.p_commit().ok());

  // Drop every cached page so the remote write's read-modify-write of the
  // existing chunk has to miss the buffer pool and touch the device.
  ASSERT_TRUE(world.db().FlushCaches().ok());

  InversionServer server(&world.fs());
  NetModel net(&world.clock(), NetParams{});
  LoopbackTransport transport(&server, &net);
  RemoteFileClient client(&transport);

  auto rfd = client.p_open("/spanned.txt", OpenMode::kWrite);
  ASSERT_TRUE(rfd.ok()) << rfd.status().ToString();
  std::vector<std::byte> patch(16, std::byte{0x7});
  auto n = client.p_write(*rfd, patch);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  ASSERT_TRUE(client.p_close(*rfd).ok());

  const auto snap = world.db().metrics().spans().Snapshot();
  std::unordered_map<uint64_t, const SpanRecord*> by_id;
  const SpanRecord* rpc_write = nullptr;
  for (const SpanRecord& r : snap) {
    by_id[r.span_id] = &r;
    if (r.name != nullptr && std::string_view(r.name) == "rpc.write") {
      ASSERT_EQ(rpc_write, nullptr) << "expected exactly one rpc.write span";
      rpc_write = &r;
    }
  }
  ASSERT_NE(rpc_write, nullptr);
  EXPECT_EQ(rpc_write->parent_id, 0u) << "rpc.write must be a trace root";

  // p_write is a direct child of the RPC root, in the same trace.
  const SpanRecord* p_write = nullptr;
  for (const SpanRecord& r : snap) {
    if (r.name != nullptr && std::string_view(r.name) == "p_write" &&
        r.trace_id == rpc_write->trace_id) {
      p_write = &r;
    }
  }
  ASSERT_NE(p_write, nullptr);
  EXPECT_EQ(p_write->parent_id, rpc_write->span_id);

  // The buffer miss and the group-commit flush wait are descendants of the
  // RPC root: walk parent links back up to it.
  auto is_descendant_of_root = [&](const SpanRecord& r) {
    const SpanRecord* cur = &r;
    for (int hops = 0; hops < 16 && cur != nullptr; ++hops) {
      if (cur->span_id == rpc_write->span_id) {
        return true;
      }
      auto it = by_id.find(cur->parent_id);
      cur = it == by_id.end() ? nullptr : it->second;
    }
    return false;
  };
  bool saw_miss = false;
  bool saw_flush_wait = false;
  for (const SpanRecord& r : snap) {
    if (r.trace_id != rpc_write->trace_id || r.name == nullptr) {
      continue;
    }
    const std::string_view name(r.name);
    if (name == "buffer.miss" && is_descendant_of_root(r)) {
      saw_miss = true;
    }
    if (name == "log.flush.wait" && is_descendant_of_root(r)) {
      saw_flush_wait = true;
    }
  }
  EXPECT_TRUE(saw_miss) << "cold-cache RPC write recorded no buffer.miss span";
  EXPECT_TRUE(saw_flush_wait)
      << "auto-committed RPC write recorded no log.flush.wait span";

  // The shape assertions above only hold if nothing was overwritten: a
  // wrapped ring would silently detach children from evicted parents.
  EXPECT_EQ(world.db().metrics().spans().TotalDropped(), 0u)
      << "span ring wrapped mid-test; the tree walked above is incomplete";
}

}  // namespace
}  // namespace invfs

// google-benchmark microbenchmarks of the engine itself: real CPU throughput
// of the hot paths (everything else in bench/ reports simulated 1993 time).

#include <benchmark/benchmark.h>

#include "src/access/btree.h"
#include "src/buffer/buffer_pool.h"
#include "src/device/error_policy.h"
#include "src/fault/crash_points.h"
#include "src/fault/fault_device.h"
#include "src/harness/worlds.h"
#include "src/obs/span.h"
#include "src/util/lzss.h"
#include "src/util/random.h"

namespace invfs {
namespace {

void BM_TupleEncodeDecode(benchmark::State& state) {
  Schema schema{{"chunkno", TypeId::kInt4},
                {"data", TypeId::kBytea},
                {"selfid", TypeId::kInt8},
                {"rawlen", TypeId::kInt4}};
  Row row{Value::Int4(7), Value::Bytes(Blob(kInvChunkSize, std::byte{0x3C})),
          Value::Int8(123456789), Value::Null()};
  for (auto s : state) {
    auto encoded = EncodeTuple(schema, row, TupleMeta{0, 2, 0});
    benchmark::DoNotOptimize(encoded);
    auto decoded = DecodeTuple(schema, *encoded);
    benchmark::DoNotOptimize(decoded);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kInvChunkSize);
}
BENCHMARK(BM_TupleEncodeDecode);

void BM_BtreeInsertLookup(benchmark::State& state) {
  StorageEnv env;
  auto db = Database::Open(&env);
  auto txn = (*db)->Begin();
  auto table = (*db)->catalog().CreateTable(
      *txn, "t", Schema{{"k", TypeId::kInt4}}, kDeviceMagneticDisk);
  auto index = (*db)->catalog().CreateIndex(*txn, *table, {0});
  int32_t key = 0;
  for (auto s : state) {
    (void)(*index)->btree->Insert(EncodeInt4Key(key), Tid{0, static_cast<uint16_t>(0)});
    auto hits = (*index)->btree->Lookup(EncodeInt4Key(key / 2));
    benchmark::DoNotOptimize(hits);
    ++key;
  }
}
BENCHMARK(BM_BtreeInsertLookup);

void BM_LzssRoundtrip(benchmark::State& state) {
  std::string text;
  while (text.size() < kInvChunkSize) {
    text += "the quick brown fox jumps over the lazy dog ";
  }
  std::span<const std::byte> input =
      std::as_bytes(std::span(text.data(), kInvChunkSize));
  for (auto s : state) {
    auto packed = LzssCompress(input);
    benchmark::DoNotOptimize(packed);
    auto raw = LzssDecompress(packed, kInvChunkSize);
    benchmark::DoNotOptimize(raw);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kInvChunkSize);
}
BENCHMARK(BM_LzssRoundtrip);

void BM_FileWriteRead(benchmark::State& state) {
  WorldOptions options;
  auto world = InversionWorld::Create(options);
  FileApi& api = (*world)->local_api();
  (void)api.Begin();
  auto fd = api.Creat("/micro.dat");
  std::vector<std::byte> buf(kInvChunkSize, std::byte{0x21});
  for (auto s : state) {
    (void)api.Seek(*fd, 0, Whence::kSet);
    (void)api.Write(*fd, buf);
    (void)api.Seek(*fd, 0, Whence::kSet);
    (void)api.Read(*fd, buf);
  }
  (void)api.Close(*fd);
  (void)api.Commit();
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 2 *
                          kInvChunkSize);
}
BENCHMARK(BM_FileWriteRead);

// Tight buffer-pool hit loop: the hottest instrumented path in the engine.
// scripts/check.sh's metrics leg diffs this against an INVFS_NO_METRICS build
// to bound the counter/trace overhead on the hit path (~5% budget).
void BM_BufferHit(benchmark::State& state) {
  SimClock clock;
  MemBlockStore store;
  DeviceSwitch sw;
  sw.Register(kDeviceMagneticDisk, std::make_unique<MagneticDiskDevice>(
                                       &store, &clock, DiskParams{}));
  (void)sw.Get(kDeviceMagneticDisk)->CreateRelation(1);
  sw.BindRelation(1, kDeviceMagneticDisk);
  BufferPool pool(&sw, 8, &clock);
  uint32_t block = 0;
  {
    auto ref = pool.Extend(1, &block);
    if (!ref.ok()) {
      state.SkipWithError("extend failed");
      return;
    }
  }
  for (auto s : state) {
    auto ref = pool.Pin(1, 0);
    benchmark::DoNotOptimize(ref);
  }
  state.counters["hits"] = static_cast<double>(pool.hits());
}
BENCHMARK(BM_BufferHit);

// Raw cost of one span begin/end pair (two TLS reads/writes, a clock read,
// ten relaxed stores). Not gated — the gated numbers are BM_BufferHit and
// BM_FileWriteRead — but useful for sizing new instrumentation points.
void BM_ScopedSpan(benchmark::State& state) {
  SpanRing ring;
  for (auto s : state) {
    ScopedSpan span(&ring, "bench.span", 1, 2);
    benchmark::DoNotOptimize(span);
  }
  state.counters["recorded"] = static_cast<double>(ring.TotalRecorded());
}
BENCHMARK(BM_ScopedSpan);

// One 8 KB WriteBlock through the device stack with nothing armed: arg 0 is
// the bare NVRAM device, 1 the same under the ErrorPolicyDevice every
// Database stacks, 2 that policy over an unarmed FaultDevice (the stacking
// when DatabaseOptions::fault_injector is set). The spread between the three
// is what the always-on robustness decorators cost.
void BM_DeviceWrite(benchmark::State& state) {
  constexpr Oid kRel = 7000;
  MemBlockStore store;
  SimClock clock;
  MetricsRegistry metrics;
  FaultInjector injector;
  std::unique_ptr<DeviceManager> dev = std::make_unique<NvramDevice>(&store);
  if (state.range(0) == 2) {
    dev = std::make_unique<FaultDevice>(std::move(dev), &injector);
  }
  if (state.range(0) >= 1) {
    dev = std::make_unique<ErrorPolicyDevice>(std::move(dev), &clock,
                                              DeviceErrorPolicy{}, &metrics);
  }
  constexpr const char* kStacks[] = {"bare", "policy", "policy+unarmed-fault"};
  state.SetLabel(kStacks[state.range(0)]);
  std::vector<std::byte> page(kPageSize, std::byte{0x5a});
  if (!dev->CreateRelation(kRel).ok()) {
    state.SkipWithError("create relation failed");
    return;
  }
  for (auto s : state) {
    Status st = dev->WriteBlock(kRel, 0, page);
    benchmark::DoNotOptimize(st);
    benchmark::ClobberMemory();
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * kPageSize);
}
BENCHMARK(BM_DeviceWrite)->Arg(0)->Arg(1)->Arg(2);

// One unarmed CrashPointRegistry::Hit: the cost every instrumented point
// pays outside a torture run.
void BM_CrashPointHit(benchmark::State& state) {
  for (auto s : state) {
    CrashPointRegistry::Hit("bench.point");
  }
}
BENCHMARK(BM_CrashPointHit);

void BM_PostquelParseExecute(benchmark::State& state) {
  WorldOptions options;
  auto world = InversionWorld::Create(options);
  auto session = (*world)->fs().NewSession();
  for (auto s : state) {
    auto rs = (*session)->Query(
        "retrieve (n.filename, n.file) from n in naming where n.parentid = 0");
    benchmark::DoNotOptimize(rs);
  }
}
BENCHMARK(BM_PostquelParseExecute);

}  // namespace
}  // namespace invfs

BENCHMARK_MAIN();

// Multi-threaded stress tests for the sharded buffer pool and the
// group-commit path. These are the TSan targets for PR 3's concurrency work:
// scripts/check.sh runs the whole ctest suite under -fsanitize=thread, so any
// data race in pin/evict/flush interleavings or in the commit-log flush
// protocol fails the tier-2 gate here.
//
// Workload-shape note: writers mutate only pages they hold pinned, and each
// writer owns its relation — mirroring the 2PL discipline (X lock per written
// relation) the engine runs under. Eviction write-back and hole-filling of
// *released* pages race freely with everything else, which is the schedule
// being tested.

#include <gtest/gtest.h>

#include <atomic>
#include <condition_variable>
#include <mutex>
#include <string_view>
#include <thread>
#include <vector>

#include "src/buffer/buffer_pool.h"
#include "src/catalog/database.h"
#include "src/harness/worlds.h"
#include "src/load/loadgen.h"
#include "src/obs/metrics.h"
#include "src/txn/commit_log.h"
#include "src/util/random.h"

namespace invfs {
namespace {

class MtStressTest : public ::testing::Test {
 protected:
  MtStressTest() {
    sw_.Register(kDeviceMagneticDisk,
                 std::make_unique<MagneticDiskDevice>(&store_, &clock_, DiskParams{}));
  }

  void CreateRel(Oid rel) {
    ASSERT_TRUE(sw_.Get(kDeviceMagneticDisk)->CreateRelation(rel).ok());
    sw_.BindRelation(rel, kDeviceMagneticDisk);
  }

  SimClock clock_;
  MemBlockStore store_;
  DeviceSwitch sw_;
};

TEST_F(MtStressTest, ConcurrentPinEvictFlush) {
  constexpr Oid kSharedRel = 1;
  constexpr uint32_t kSharedBlocks = 64;
  constexpr int kReaders = 4;
  constexpr int kWriters = 2;
  constexpr int kItersPerThread = 2000;

  CreateRel(kSharedRel);
  // Pool far smaller than the working set: every reader iteration has a real
  // chance of forcing an eviction, and writer extensions contend for frames.
  BufferPool pool(&sw_, 16, &clock_, CpuParams{}, /*partitions=*/8);

  // Seed the shared relation and force it to the device so readers always
  // find valid self-identifying pages.
  for (uint32_t b = 0; b < kSharedBlocks; ++b) {
    auto ref = pool.Extend(kSharedRel, nullptr);
    ASSERT_TRUE(ref.ok());
    ref->data()[kPageHeaderSize] = std::byte{static_cast<uint8_t>(b)};
    ref->MarkDirty();
  }
  ASSERT_TRUE(pool.FlushAndInvalidate().ok());

  std::atomic<int> failures{0};
  auto note_failure = [&](const Status& s) {
    // All-buffers-pinned is a legal transient under extreme contention, but
    // with 16 frames and 6 threads it should never actually happen.
    (void)s;
    failures.fetch_add(1);
  };

  std::vector<std::thread> threads;
  threads.reserve(kReaders + kWriters);
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0x9e3779b9u * (t + 1));
      for (int i = 0; i < kItersPerThread; ++i) {
        const uint32_t b = static_cast<uint32_t>(rng.Next() % kSharedBlocks);
        auto ref = pool.Pin(kSharedRel, b);
        if (!ref.ok()) {
          note_failure(ref.status());
          continue;
        }
        if (ref->data()[kPageHeaderSize] != std::byte{static_cast<uint8_t>(b)}) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (int t = 0; t < kWriters; ++t) {
    const Oid rel = 100 + t;  // each writer owns its relation (2PL analogue)
    CreateRel(rel);
    threads.emplace_back([&, rel] {
      uint32_t extended = 0;
      for (int i = 0; i < kItersPerThread / 10; ++i) {
        auto ref = pool.Extend(rel, nullptr);
        if (!ref.ok()) {
          note_failure(ref.status());
          continue;
        }
        ref->data()[kPageHeaderSize] = std::byte{0x5A};
        ref->MarkDirty();
        ref->Release();
        ++extended;
        if (extended % 8 == 0) {
          Status s = pool.FlushRelation(rel);
          if (!s.ok()) {
            note_failure(s);
          }
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0);

  // Post-condition: flushing everything must leave hole-free relations whose
  // pages read back clean (checksums verified on the Pin path).
  ASSERT_TRUE(pool.FlushAndInvalidate().ok());
  for (int t = 0; t < kWriters; ++t) {
    const Oid rel = 100 + t;
    auto n = store_.NumBlocks(rel);
    ASSERT_TRUE(n.ok());
    EXPECT_EQ(*n, static_cast<uint32_t>(kItersPerThread / 10));
    for (uint32_t b = 0; b < *n; ++b) {
      auto ref = pool.Pin(rel, b);
      ASSERT_TRUE(ref.ok()) << "rel " << rel << " block " << b;
      EXPECT_EQ(ref->data()[kPageHeaderSize], std::byte{0x5A});
    }
  }
}

TEST_F(MtStressTest, CrossThreadPinHandoffUnderLoad) {
  constexpr Oid kRel = 1;
  CreateRel(kRel);
  BufferPool pool(&sw_, 8, &clock_, CpuParams{}, /*partitions=*/4);
  for (int b = 0; b < 4; ++b) {
    auto ref = pool.Extend(kRel, nullptr);
    ASSERT_TRUE(ref.ok());
    ref->MarkDirty();
  }
  ASSERT_TRUE(pool.FlushAndInvalidate().ok());

  // Producer pins pages, consumer releases them — the PageRef migration that
  // used to drive the per-thread pin counter negative.
  constexpr int kHandoffs = 1000;
  std::mutex mu;
  std::condition_variable cv;
  std::vector<PageRef> queue;
  bool done = false;

  std::thread consumer([&] {
    int consumed = 0;
    std::unique_lock lock(mu);
    while (consumed < kHandoffs) {
      cv.wait(lock, [&] { return !queue.empty() || done; });
      while (!queue.empty()) {
        PageRef ref = std::move(queue.back());
        queue.pop_back();
        lock.unlock();
        ref.Release();  // release on a thread that never pinned
        ++consumed;
        lock.lock();
      }
      EXPECT_GE(BufferPool::ThreadPinCount(), 0)
          << "cross-thread release corrupted the consumer's pin count";
    }
  });

  for (int i = 0; i < kHandoffs; ++i) {
    auto ref = pool.Pin(kRel, static_cast<uint32_t>(i % 4));
    ASSERT_TRUE(ref.ok());
    std::lock_guard lock(mu);
    queue.push_back(std::move(*ref));
    cv.notify_one();
  }
  {
    std::lock_guard lock(mu);
    done = true;
    cv.notify_one();
  }
  consumer.join();

  EXPECT_EQ(BufferPool::ThreadPinCount(), 0)
      << "producer's pins must be debited when the consumer releases them";
  // Every pin must be returned to the frames: invalidation requires pins==0.
  EXPECT_TRUE(pool.FlushAndInvalidate().ok());
}

// FlushAndInvalidate's pin check must be atomic against the hit path: a Pin
// racing with the invalidation either completes first (and the invalidation
// refuses) or misses afterwards — it can never be handed a frame that is
// being invalidated or remapped under it.
TEST_F(MtStressTest, FlushAndInvalidateRacingPins) {
  constexpr Oid kRel = 1;
  constexpr uint32_t kBlocks = 8;
  CreateRel(kRel);
  BufferPool pool(&sw_, 8, &clock_, CpuParams{}, /*partitions=*/4);
  for (uint32_t b = 0; b < kBlocks; ++b) {
    auto ref = pool.Extend(kRel, nullptr);
    ASSERT_TRUE(ref.ok());
    ref->data()[kPageHeaderSize] = std::byte{static_cast<uint8_t>(b)};
    ref->MarkDirty();
  }
  ASSERT_TRUE(pool.FlushAndInvalidate().ok());

  std::atomic<bool> stop{false};
  std::atomic<int> corrupt{0};
  std::thread reader([&] {
    Rng rng(0xfeedface);
    while (!stop.load()) {
      const uint32_t b = static_cast<uint32_t>(rng.Next() % kBlocks);
      auto ref = pool.Pin(kRel, b);
      if (ref.ok() &&
          ref->data()[kPageHeaderSize] != std::byte{static_cast<uint8_t>(b)}) {
        corrupt.fetch_add(1);
      }
    }
  });
  for (int i = 0; i < 200; ++i) {
    const Status s = pool.FlushAndInvalidate();
    if (!s.ok()) {
      // Legal refusal: the reader held a pin at that instant.
      EXPECT_EQ(s.code(), ErrorCode::kInternal);
    }
  }
  stop.store(true);
  reader.join();
  EXPECT_EQ(corrupt.load(), 0);
  EXPECT_TRUE(pool.FlushAndInvalidate().ok());
}

TEST_F(MtStressTest, GroupCommitConcurrentBeginCommit) {
  NvramDevice dev(&store_);
  auto log_or = CommitLog::Open(&dev);
  ASSERT_TRUE(log_or.ok());
  CommitLog& log = **log_or;

  constexpr int kThreads = 8;
  constexpr int kTxnsPerThread = 200;
  std::atomic<TxnId> next_xid{kBootstrapTxn + 1};
  std::atomic<int> failures{0};

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kTxnsPerThread; ++i) {
        const TxnId xid = next_xid.fetch_add(1);
        if (!log.BeginTxn(xid).ok()) {
          failures.fetch_add(1);
          continue;
        }
        if (xid % 7 == 0) {
          if (!log.AbortTxn(xid).ok()) {
            failures.fetch_add(1);
          }
        } else if (!log.CommitTxn(xid, xid * 10).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  ASSERT_EQ(failures.load(), 0);

  const TxnId last = next_xid.load() - 1;
  for (TxnId x = kBootstrapTxn + 1; x <= last; ++x) {
    const TxnStatus st = log.StatusOf(x);
    if (x % 7 == 0) {
      EXPECT_EQ(st, TxnStatus::kAborted) << "xid " << x;
    } else {
      EXPECT_EQ(st, TxnStatus::kCommitted) << "xid " << x;
      EXPECT_EQ(log.CommitTimeOf(x), x * 10) << "xid " << x;
    }
  }
  // Batching sanity: the leader/follower protocol can only merge requests,
  // never lose them — and begins batching under the xid horizon plus abort
  // piggybacking must keep device writes strictly below one per transition
  // (2 * txns here: every txn begins, then commits or aborts).
  EXPECT_LE(log.persist_batches(), log.persist_requests());
  EXPECT_GE(log.persist_requests(), 1u);
  EXPECT_LT(log.device_page_writes(),
            2 * static_cast<uint64_t>(kThreads) * kTxnsPerThread);

  // Reopen: every commit decision must have reached the device.
  auto reopened = CommitLog::Open(&dev);
  ASSERT_TRUE(reopened.ok());
  for (TxnId x = kBootstrapTxn + 1; x <= last; x += 13) {
    if (x % 7 != 0) {
      EXPECT_EQ((*reopened)->StatusOf(x), TxnStatus::kCommitted) << "xid " << x;
    }
  }
}

TEST_F(MtStressTest, ConcurrentTransactionsThroughDatabase) {
  StorageEnv env;
  DatabaseOptions opts;
  opts.buffers = 64;
  auto db_or = Database::Open(&env, opts);
  ASSERT_TRUE(db_or.ok());
  Database& db = **db_or;

  auto setup = db.Begin();
  ASSERT_TRUE(setup.ok());
  auto table = db.catalog().CreateTable(*setup, "t", Schema{{"k", TypeId::kInt4}},
                                        kDeviceMagneticDisk);
  ASSERT_TRUE(table.ok());
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(db.InsertRow(*setup, *table, {Value::Int4(i)}).ok());
  }
  ASSERT_TRUE(db.Commit(*setup).ok());

  constexpr int kReaders = 4;
  constexpr int kScansEach = 25;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kScansEach; ++i) {
        auto txn = db.Begin();
        if (!txn.ok()) {
          failures.fetch_add(1);
          continue;
        }
        if (!db.LockTable(*txn, *table, LockMode::kShared).ok()) {
          failures.fetch_add(1);
          continue;
        }
        int count = 0;
        auto it = (*table)->heap->Scan(db.SnapshotFor(*txn));
        while (it.Next()) {
          ++count;
        }
        if (!it.status().ok() || count != 200) {
          failures.fetch_add(1);
        }
        if (!db.Commit(*txn).ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0);
}

// 8 threads hammer one registry — striped counters, a shared histogram, and
// the span ring — while a snapshotter concurrently reads everything. Totals
// must be exact (no lost updates) and every concurrent snapshot internally
// consistent. This is the TSan target for the observability layer.
TEST(MetricsStressTest, ConcurrentIncrementAndSnapshot) {
  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 20000;

  MetricsRegistry reg;
  Counter* counter = reg.GetCounter("stress.counter");
  Histogram* hist = reg.GetHistogram("stress.hist");

  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    const uint64_t expected =
        static_cast<uint64_t>(kThreads) * kItersPerThread;
    while (!stop.load(std::memory_order_acquire)) {
      // Mid-run reads must never see torn or overshooting values, and span
      // snapshots must be well-formed mid-write (seqlock re-check).
      EXPECT_LE(counter->Value(), expected);
      EXPECT_LE(hist->Count(), expected);
      for (const SpanRecord& r : reg.spans().Snapshot()) {
        ASSERT_NE(r.name, nullptr);
        EXPECT_EQ(std::string_view(r.name), "stress.span");
        EXPECT_LT(r.a, static_cast<uint64_t>(kThreads));
      }
      (void)reg.DumpText();
    }
  });

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        counter->Add();
        hist->Observe(static_cast<uint64_t>(i));
        if (i % 16 == 0) {
          ScopedSpan span(&reg.spans(), "stress.span", t, i);
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  stop.store(true, std::memory_order_release);
  snapshotter.join();

  const uint64_t expected = static_cast<uint64_t>(kThreads) * kItersPerThread;
  EXPECT_EQ(counter->Value(), expected);
  EXPECT_EQ(hist->Count(), expected);
  EXPECT_EQ(reg.spans().TotalRecorded(),
            static_cast<uint64_t>(kThreads) * (kItersPerThread / 16));
  auto snap = reg.spans().Snapshot();
  EXPECT_EQ(snap.size(), SpanRing::kDefaultCapacity);
}

// 8 threads run nested ScopedSpans (each thread its own trace) while a reader
// concurrently snapshots the span ring. Every published record must be
// internally consistent: a known name, a duration, and for child spans a
// parent from the same trace. This is the TSan target for the span layer.
TEST(MetricsStressTest, SpanStorm) {
  constexpr int kThreads = 8;
  constexpr int kItersPerThread = 4000;

  MetricsRegistry reg;
  SpanRing* spans = &reg.spans();

  std::atomic<bool> stop{false};
  std::thread snapshotter([&] {
    while (!stop.load(std::memory_order_acquire)) {
      for (const SpanRecord& r : spans->Snapshot()) {
        // Names are static literals; a torn read would show garbage here.
        ASSERT_NE(r.name, nullptr);
        const std::string_view name(r.name);
        EXPECT_TRUE(name == "storm.root" || name == "storm.child");
        EXPECT_NE(r.trace_id, 0u);
        EXPECT_NE(r.span_id, 0u);
        if (name == "storm.root") {
          EXPECT_EQ(r.parent_id, 0u);
        } else {
          EXPECT_NE(r.parent_id, 0u);
        }
      }
    }
  });

  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kItersPerThread; ++i) {
        ScopedSpan root(spans, "storm.root", static_cast<uint64_t>(t));
        {
          ScopedSpan child(spans, "storm.child", static_cast<uint64_t>(i));
          child.set_b(root.span_id());
        }
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  stop.store(true, std::memory_order_release);
  snapshotter.join();

  // Two spans per iteration, none lost from the total count.
  EXPECT_EQ(spans->TotalRecorded(),
            static_cast<uint64_t>(kThreads) * kItersPerThread * 2);
  // Cross-check parent links in the final quiescent snapshot: every child's
  // parent is the root span recorded in its b attribute.
  for (const SpanRecord& r : spans->Snapshot()) {
    if (std::string_view(r.name) == "storm.child") {
      EXPECT_EQ(r.parent_id, r.b);
    }
  }
}

// 8 open-loop load drivers, one per thread, hammer a single shared engine:
// every driver pumps the builtin tenant mix under its own namespace while
// all of them race on the lock manager, buffer pool, commit log, sim clock,
// sampler, and the shared per-tenant histograms. Deadlock victims abort and
// count as errors — what must hold under TSan is that no update is lost:
// the shared load.latency_us{tenant} histograms see exactly one observation
// per arrival executed by any driver.
TEST(LoadStormTest, EightConcurrentDriversShareOneEngine) {
  constexpr int kThreads = 8;

  auto world_or = InversionWorld::Create();
  ASSERT_TRUE(world_or.ok());
  InversionWorld& world = **world_or;

  std::vector<std::unique_ptr<LoadGen>> drivers;
  drivers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    LoadGenOptions opt;
    opt.seed = 1000 + static_cast<uint64_t>(t);
    // Long enough that every driver schedules arrivals: builtin mean
    // inter-arrivals run 5-10s, and first arrivals get a stationary phase
    // offset in [0, mean) — a short horizon can miss a whole fleet.
    opt.seconds = 2.0;
    opt.root = "/storm" + std::to_string(t);
    drivers.push_back(std::make_unique<LoadGen>(&world.fs(), opt));
    // Setup serially: it runs DDL (pool files, the shared migration rule),
    // and concurrent redefinition of one rule would just deadlock-abort.
    // The storm under test is the op pumps, not setup.
    const Status setup = drivers.back()->Setup();
    ASSERT_TRUE(setup.ok()) << "driver " << t << ": " << setup.ToString();
  }

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      if (!drivers[t]->Run().ok()) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }
  EXPECT_EQ(failures.load(), 0);

  uint64_t total_ops = 0;
  for (const auto& d : drivers) {
    const LoadGenReport report = d->Report();
    EXPECT_GT(report.ops, 0u);
    total_ops += report.ops;
  }
  // The registry histograms are shared across drivers; their per-tenant
  // counts must sum to exactly the arrivals executed — no lost updates.
  uint64_t observed = 0;
  for (const TenantLoadStats& t : drivers[0]->Report().tenants) {
    observed +=
        world.db().metrics().GetHistogram("load.latency_us", t.tenant)->Count();
  }
  EXPECT_EQ(observed, total_ops);
}

// NetModel is shared by every client stub of an RPC fleet: its counters are
// relaxed atomics and SimClock::Advance is atomic, so concurrent charges must
// lose neither messages nor bytes nor simulated time.
TEST(LoadStormTest, ConcurrentNetModelChargesAreExact) {
  constexpr int kThreads = 8;
  constexpr int kChargesPerThread = 5000;
  constexpr uint64_t kBytes = 1024;

  SimClock clock;
  NetModel net(&clock, NetParams{});
  const SimMicros per_charge =
      NetParams{}.per_message_us + (kBytes * NetParams{}.per_kilobyte_us) / 1024;

  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kChargesPerThread; ++i) {
        net.ChargeMessage(kBytes);
      }
    });
  }
  for (auto& th : threads) {
    th.join();
  }

  const uint64_t total = static_cast<uint64_t>(kThreads) * kChargesPerThread;
  EXPECT_EQ(net.total_messages(), total);
  EXPECT_EQ(net.total_bytes(), total * kBytes);
  EXPECT_EQ(clock.Peek(), per_charge * total) << "no lost clock advances";
}

}  // namespace
}  // namespace invfs

// Shared multi-threaded benchmark workloads for the sharded buffer pool and
// the group-commit log (PR 3). Unlike the paper-table benches these measure
// *wall-clock* throughput with std::chrono, because the quantity under test is
// lock contention between real OS threads — simulated time cannot see it.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "src/buffer/buffer_pool.h"
#include "src/catalog/database.h"
#include "src/txn/commit_log.h"
#include "src/util/random.h"

namespace invfs {

struct MtScanResult {
  int threads = 0;
  size_t partitions = 0;
  uint64_t total_pins = 0;
  double seconds = 0;
  double mpins_per_s = 0;  // millions of page pins per wall second
};

// Cached-read scan: every thread random-pins pages of a relation that fits
// entirely in the pool, so each operation is a pure hit — the workload is
// nothing but the pool's hit-path synchronization. partitions=1 reproduces the
// seed's single-lock pool; the default sharded pool spreads hits over
// independent mutexes.
inline MtScanResult RunMtScan(int nthreads, size_t partitions,
                              uint64_t pins_per_thread) {
  constexpr Oid kRel = 1;
  constexpr uint32_t kBlocks = 64;

  SimClock clock;
  MemBlockStore store;
  DeviceSwitch sw;
  sw.Register(kDeviceMagneticDisk,
              std::make_unique<MagneticDiskDevice>(&store, &clock, DiskParams{}));
  (void)sw.Get(kDeviceMagneticDisk)->CreateRelation(kRel);
  sw.BindRelation(kRel, kDeviceMagneticDisk);

  BufferPool pool(&sw, /*num_buffers=*/128, &clock, CpuParams{}, partitions);
  for (uint32_t b = 0; b < kBlocks; ++b) {
    auto ref = pool.Extend(kRel, nullptr);
    if (!ref.ok()) {
      std::fprintf(stderr, "mt_scan setup: %s\n", ref.status().ToString().c_str());
      return {};
    }
  }

  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(nthreads);
  for (int t = 0; t < nthreads; ++t) {
    threads.emplace_back([&, t] {
      Rng rng(0x1234 + t);
      while (!go.load(std::memory_order_acquire)) {
      }
      for (uint64_t i = 0; i < pins_per_thread; ++i) {
        auto ref = pool.Pin(kRel, static_cast<uint32_t>(rng.Uniform(kBlocks)));
        if (!ref.ok()) {
          std::fprintf(stderr, "mt_scan pin: %s\n", ref.status().ToString().c_str());
          return;
        }
      }
    });
  }

  const auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& th : threads) {
    th.join();
  }
  const auto t1 = std::chrono::steady_clock::now();

  MtScanResult r;
  r.threads = nthreads;
  r.partitions = partitions;
  r.total_pins = pins_per_thread * nthreads;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.mpins_per_s = r.seconds > 0 ? r.total_pins / r.seconds / 1e6 : 0;
  return r;
}

struct ReaderWriterResult {
  int readers = 0;
  bool with_writer = false;
  uint64_t read_txns = 0;        // read-only transactions completed
  uint64_t reads_under_lock = 0; // ...that finished while the writer held X
  uint64_t writer_commits = 0;
  double seconds = 0;
  double kreads_per_s = 0;       // thousand read txns per wall second
};

// Reader-vs-writer scaling (PR 8 tentpole evidence): N reader threads run
// read-only transactions (pinned snapshot, zero lock-manager traffic)
// scanning a table that one writer thread continuously updates under an
// exclusive 2PL lock. Under the old lock-then-read design every scan would
// queue behind the writer's exclusive lock; under snapshot-isolation reads
// the readers never notice it — reads_under_lock counts scans that completed
// *while* the writer demonstrably held the conflicting lock, which the old
// design could never do.
inline ReaderWriterResult RunReaderVsWriter(int nreaders,
                                            uint64_t reads_per_thread,
                                            bool with_writer) {
  StorageEnv env;
  auto db_or = Database::Open(&env);
  if (!db_or.ok()) {
    std::fprintf(stderr, "rw open: %s\n", db_or.status().ToString().c_str());
    return {};
  }
  Database& db = **db_or;

  TableInfo* table = nullptr;
  Tid victim{};
  {
    auto txn = db.Begin();
    auto t = db.catalog().CreateTable(
        *txn, "rw_bench", Schema{{"k", TypeId::kInt4}, {"v", TypeId::kInt4}},
        kDeviceMagneticDisk);
    if (!t.ok()) {
      std::fprintf(stderr, "rw setup: %s\n", t.status().ToString().c_str());
      return {};
    }
    table = *t;
    for (int i = 0; i < 64; ++i) {
      auto tid = db.InsertRow(*txn, table, {Value::Int4(i), Value::Int4(0)});
      if (!tid.ok()) {
        return {};
      }
      if (i == 0) {
        victim = *tid;
      }
    }
    if (!db.Commit(*txn).ok()) {
      return {};
    }
  }

  std::atomic<bool> go{false};
  std::atomic<bool> stop_writer{false};
  std::atomic<bool> lock_held{false};
  std::atomic<uint64_t> writer_commits{0};
  std::atomic<uint64_t> under_lock{0};

  std::thread writer;
  if (with_writer) {
    writer = std::thread([&] {
      while (!go.load(std::memory_order_acquire)) {
      }
      int v = 0;
      while (!stop_writer.load(std::memory_order_acquire)) {
        auto txn = db.Begin();
        if (!txn.ok() ||
            !db.LockTable(*txn, table, LockMode::kExclusive).ok()) {
          return;
        }
        lock_held.store(true, std::memory_order_release);
        auto tid = db.ReplaceRow(*txn, table, victim,
                                 {Value::Int4(0), Value::Int4(++v)});
        if (!tid.ok()) {
          return;
        }
        victim = *tid;
        // Hold the lock for a realistic transaction body instead of
        // commit-storming: an unpaced loop would bloat the heap with dead
        // versions faster than readers can scan it, measuring MVCC garbage
        // accumulation (vacuum's job) rather than lock interference.
        std::this_thread::sleep_for(std::chrono::microseconds(200));
        // 2PL holds the exclusive lock until commit releases it.
        const bool committed = db.Commit(*txn).ok();
        lock_held.store(false, std::memory_order_release);
        if (!committed) {
          return;
        }
        writer_commits.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }

  std::vector<std::thread> readers;
  readers.reserve(nreaders);
  for (int t = 0; t < nreaders; ++t) {
    readers.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (uint64_t i = 0; i < reads_per_thread; ++i) {
        auto txn = db.Begin(TxnMode::kReadOnly);
        if (!txn.ok()) {
          return;
        }
        const bool saw_lock_before = lock_held.load(std::memory_order_acquire);
        int rows = 0;
        auto it = table->heap->Scan(db.ReadSnapshot(*txn));
        while (it.Next()) {
          ++rows;
        }
        if (rows != 64 || !db.Commit(*txn).ok()) {
          std::fprintf(stderr, "rw read: saw %d rows\n", rows);
          return;
        }
        // The lock was held across the whole scan only if it was held both
        // before and after; conservative undercount, never an overcount.
        if (saw_lock_before && lock_held.load(std::memory_order_acquire)) {
          under_lock.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }

  const auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& th : readers) {
    th.join();
  }
  const auto t1 = std::chrono::steady_clock::now();
  stop_writer.store(true, std::memory_order_release);
  if (writer.joinable()) {
    writer.join();
  }

  ReaderWriterResult r;
  r.readers = nreaders;
  r.with_writer = with_writer;
  r.read_txns = reads_per_thread * static_cast<uint64_t>(nreaders);
  r.reads_under_lock = under_lock.load();
  r.writer_commits = writer_commits.load();
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.kreads_per_s = r.seconds > 0 ? r.read_txns / r.seconds / 1e3 : 0;
  return r;
}

struct MtCommitResult {
  int threads = 0;
  uint64_t txns = 0;
  uint64_t transitions = 0;       // begin + commit status transitions issued
  uint64_t persist_requests = 0;  // transitions that waited for durability
  uint64_t persist_batches = 0;   // leader flushes actually performed
  uint64_t device_page_writes = 0;
  double writes_per_transition = 0;  // 1.0 = the unbatched POSTGRES 4.0.1 cost
  double seconds = 0;
  double ktxns_per_s = 0;
};

// Commit-heavy workload: every thread runs begin;commit transactions against
// one shared commit log. Without group commit each transition costs one device
// write (writes == requests); the leader/follower protocol coalesces
// transitions that arrive during another flush, so writes < requests under
// concurrency.
inline MtCommitResult RunMtCommit(int nthreads, uint64_t txns_per_thread) {
  MemBlockStore store;
  NvramDevice dev(&store);
  auto log_or = CommitLog::Open(&dev);
  if (!log_or.ok()) {
    std::fprintf(stderr, "mt_commit open: %s\n", log_or.status().ToString().c_str());
    return {};
  }
  CommitLog& log = **log_or;

  std::atomic<TxnId> next_xid{kBootstrapTxn + 1};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  threads.reserve(nthreads);
  for (int t = 0; t < nthreads; ++t) {
    threads.emplace_back([&] {
      while (!go.load(std::memory_order_acquire)) {
      }
      for (uint64_t i = 0; i < txns_per_thread; ++i) {
        const TxnId xid = next_xid.fetch_add(1);
        if (!log.BeginTxn(xid).ok() || !log.CommitTxn(xid, xid).ok()) {
          std::fprintf(stderr, "mt_commit: txn %llu failed\n",
                       static_cast<unsigned long long>(xid));
          return;
        }
      }
    });
  }

  const auto t0 = std::chrono::steady_clock::now();
  go.store(true, std::memory_order_release);
  for (auto& th : threads) {
    th.join();
  }
  const auto t1 = std::chrono::steady_clock::now();

  MtCommitResult r;
  r.threads = nthreads;
  r.txns = txns_per_thread * static_cast<uint64_t>(nthreads);
  r.transitions = 2 * r.txns;  // one begin + one commit each
  r.persist_requests = log.persist_requests();
  r.persist_batches = log.persist_batches();
  r.device_page_writes = log.device_page_writes();
  r.writes_per_transition =
      r.transitions > 0 ? static_cast<double>(r.device_page_writes) / r.transitions : 0;
  r.seconds = std::chrono::duration<double>(t1 - t0).count();
  r.ktxns_per_s = r.seconds > 0 ? r.txns / r.seconds / 1e3 : 0;
  return r;
}

}  // namespace invfs

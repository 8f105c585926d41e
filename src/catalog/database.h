// Database: the facade that assembles the whole POSTGRES-analogue engine.
//
// One Database corresponds to one POSTGRES database, which in Inversion terms
// is one mount point ("A single database corresponds to a mount point in
// conventional file system architectures"). It owns the device switch, buffer
// pool, commit log, lock manager, transaction manager and catalogs, and
// provides row-level helpers that keep B-tree indices maintained.
//
// Durability model and crash simulation: all stable storage lives in the
// caller-owned StorageEnv (block stores + simulated clock). Crash() throws
// away every volatile structure; re-Open()ing the same StorageEnv performs
// POSTGRES' "recovery" — which is nothing but reading the commit log.

#pragma once

#include <memory>

#include "src/catalog/catalog.h"
#include "src/device/error_policy.h"
#include "src/obs/metrics.h"
#include "src/obs/slo.h"
#include "src/sim/cost_params.h"
#include "src/sim/sim_clock.h"
#include "src/txn/reader_gate.h"
#include "src/txn/txn_manager.h"

namespace invfs {

class FaultInjector;

// Caller-owned persistent world: survives Database teardown, so tests and
// examples can crash and reopen.
struct StorageEnv {
  SimClock clock;
  std::unique_ptr<BlockStore> disk_store = std::make_unique<MemBlockStore>();
  std::unique_ptr<BlockStore> nvram_store = std::make_unique<MemBlockStore>();
  std::unique_ptr<BlockStore> jukebox_store = std::make_unique<MemBlockStore>();
};

struct DatabaseOptions {
  size_t buffers = kDefaultBuffers;  // 64 as shipped; Berkeley ran 300
  // Buffer-pool mapping shards. 0 = default (kDefaultPoolPartitions); 1
  // degenerates to a single-lock pool (the POSTGRES 4.0.1 behavior, kept as
  // the contention baseline for bench_mt_scan).
  size_t buffer_partitions = 0;
  DiskParams disk{};
  JukeboxParams jukebox{};
  CpuParams cpu{};
  uint32_t disk_extent_pages = 64;  // FFS-like clustering granularity
  bool enable_nvram = true;
  bool enable_jukebox = true;
  // POSTGRES 4.0.1 forced modified index pages out eagerly; the paper blames
  // exactly this for file-creation throughput ("Btree writes are interleaved
  // with data file writes, penalizing Inversion by forcing the disk head to
  // move frequently"). Disable to measure what lazy index write-back buys
  // (ablation bench).
  bool write_through_indexes = true;
  // Transient-error retry and read-only degradation knobs, applied to every
  // device (the policy decorator is always stacked; with no faults armed its
  // cost is one relaxed load per I/O — bench_pr5 gates this).
  DeviceErrorPolicy error_policy{};
  // Optional fault injection: when set, every device is additionally wrapped
  // in a FaultDevice sharing this injector (stacking:
  // Policy(Instrumented(Fault(real))), so retries are visible to the
  // instrumentation). Caller-owned; must outlive the Database.
  FaultInjector* fault_injector = nullptr;
  // Capacity of the per-registry span ring (rounded up to a power of two).
  // Sizing is a retention/memory tradeoff only; recording cost is
  // capacity-independent.
  size_t span_ring_capacity = SpanRing::kDefaultCapacity;
  // Declared latency objectives, evaluated against the op.latency_us
  // histograms (invfs_stats --slo, the invfs_slo relation).
  std::vector<SloTarget> slo_targets = DefaultSloTargets();
  // Time-series sampler knobs: minimum sim micros between samples, and how
  // many points (one per metric per sample) the ring retains. Applied at
  // Open; the sampler only runs when something calls
  // metrics().timeseries().Tick() — it has no thread of its own.
  uint64_t timeseries_interval_micros = 100'000;
  size_t timeseries_capacity = 4096;
};

class Database {
 public:
  // Opens (bootstrapping if empty) the database stored in `env`.
  static Result<std::unique_ptr<Database>> Open(StorageEnv* env,
                                                DatabaseOptions options = {});
  ~Database();

  Database(const Database&) = delete;
  Database& operator=(const Database&) = delete;

  // --- transactions --------------------------------------------------------

  // Read-only begins are accepted even on a poisoned (fail-stop read-only)
  // database: they touch neither the commit log nor the lock manager.
  Result<TxnId> Begin(TxnMode mode = TxnMode::kReadWrite);
  Status Commit(TxnId txn);
  Status Abort(TxnId txn);
  Snapshot SnapshotFor(TxnId txn) const { return txns_->SnapshotFor(txn); }
  Snapshot SnapshotAt(Timestamp t) const { return txns_->SnapshotAt(t); }
  // The pinned begin-time snapshot while `txn` has not written; the live
  // snapshot after its first write (or for unknown txns).
  Snapshot ReadSnapshot(TxnId txn) const { return txns_->ReadSnapshot(txn); }
  Timestamp Now() { return clock_->Now(); }

  // --- row operations with index maintenance -------------------------------

  Result<Tid> InsertRow(TxnId txn, TableInfo* table, const Row& row,
                        Oid row_oid = kInvalidOid);
  Status DeleteRow(TxnId txn, TableInfo* table, Tid tid);
  Result<Tid> ReplaceRow(TxnId txn, TableInfo* table, Tid old_tid, const Row& row,
                         Oid row_oid = kInvalidOid);

  // Two-phase locking entry point (released automatically at commit/abort).
  // Refused for read-only transactions: they read pinned snapshots and are
  // promised never to touch the lock manager. An exclusive acquisition marks
  // the transaction written (its reads switch to live snapshots).
  Status LockTable(TxnId txn, const TableInfo* table, LockMode mode);

  // Gate between lock-free index probes and the maintenance operations that
  // swap index structures in place (vacuum rebuild, table migration).
  ReaderGate& probe_gate() { return probe_gate_; }

  // --- administration -------------------------------------------------------

  // Flush all dirty pages and drop every cached page ("all caches were
  // flushed before each test").
  Status FlushCaches();

  // Simulate a hard crash: volatile state vanishes, stable storage stays.
  // The Database object is unusable afterwards; re-Open the StorageEnv.
  void Crash();

  // True once the commit log is poisoned (a flush failed permanently): the
  // database is fail-stop read-only — Begin() refuses new transactions with
  // kReadOnlyDevice while reads, snapshots, and time travel keep working.
  bool read_only() const;

  // --- components ------------------------------------------------------------

  Catalog& catalog() { return *catalog_; }
  CommitLog& commit_log() { return *log_; }
  BufferPool* buffers_ptr() { return buffers_.get(); }
  TxnManager& txns() { return *txns_; }
  BufferPool& buffers() { return *buffers_; }
  DeviceSwitch& devices() { return devices_; }
  LockManager& locks() { return locks_; }
  SimClock& clock() { return *clock_; }
  // Every component's counters/histograms/spans for this database. Queryable
  // through the `invfs_stats` / `invfs_spans` virtual relations.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  const DatabaseOptions& options() const { return options_; }

 private:
  Database(StorageEnv* env, DatabaseOptions options);

  DatabaseOptions options_;
  SimClock* clock_;
  // Declared before every component that registers metrics into it.
  MetricsRegistry metrics_;
  DeviceSwitch devices_;
  LockManager locks_{&metrics_};
  std::unique_ptr<BufferPool> buffers_;
  std::unique_ptr<CommitLog> log_;
  std::unique_ptr<TxnManager> txns_;
  std::unique_ptr<Catalog> catalog_;
  ReaderGate probe_gate_;
  bool crashed_ = false;
};

}  // namespace invfs

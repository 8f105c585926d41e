#include "src/txn/txn_manager.h"

#include "src/obs/span.h"

namespace invfs {

TxnManager::TxnManager(CommitLog* log, BufferPool* buffers, LockManager* locks,
                       SimClock* clock, MetricsRegistry* metrics)
    : log_(log), buffers_(buffers), locks_(locks), clock_(clock) {
  next_xid_ = log_->MaxTxnId() + 1;
  if (next_xid_ <= kBootstrapTxn) {
    next_xid_ = kBootstrapTxn + 1;
  }
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  metrics_ = metrics;
  begins_ = metrics->GetCounter("txn.begins");
  ro_begins_ = metrics->GetCounter("txn.read_only_begins");
  commits_ = metrics->GetCounter("txn.commits");
  aborts_ = metrics->GetCounter("txn.aborts");
}

Result<TxnId> TxnManager::Begin(TxnMode mode) {
  ScopedSpan span(&metrics_->spans(), "txn.begin");
  if (mode == TxnMode::kReadOnly) {
    // Virtual xid: no commit-log record at all. The only cost of beginning a
    // reader is capturing the unresolved-xid set — no device I/O, no lock
    // manager state, and it works even after the log has poisoned.
    auto pinned = log_->CaptureState();
    TxnId xid;
    {
      MutexLock lock(mu_);
      xid = next_read_xid_++;
      active_[xid] = ActiveTxn{{}, std::move(pinned), false};
    }
    span.set_a(xid);
    ro_begins_->Add();
    return xid;
  }
  TxnId xid;
  {
    MutexLock lock(mu_);
    xid = next_xid_++;
  }
  span.set_a(xid);
  // Persist the start record outside mu_: concurrent Begin calls must reach
  // the commit log together so its group-commit protocol can coalesce their
  // page writes into one flush. (A failed begin burns the xid; ids are not
  // reused by design.)
  INV_RETURN_IF_ERROR(log_->BeginTxn(xid));
  // Capture after BeginTxn so our own xid is inside the captured horizon
  // (it lands in xip, which is harmless: a snapshot's self-check precedes
  // the frozen-view check).
  auto pinned = log_->CaptureState();
  {
    MutexLock lock(mu_);
    active_[xid] = ActiveTxn{{}, std::move(pinned), false};
  }
  begins_->Add();
  return xid;
}

Status TxnManager::Commit(TxnId txn) {
  ScopedSpan span(&metrics_->spans(), "txn.commit", txn);
  std::set<Oid> touched;
  {
    MutexLock lock(mu_);
    auto it = active_.find(txn);
    if (it == active_.end()) {
      return Status::TxnAborted("commit of inactive txn " + std::to_string(txn));
    }
    touched = it->second.touched;
    active_.erase(it);
  }
  span.set_b(touched.size());
  if (IsReadOnlyTxn(txn)) {
    // Nothing to decide: the xid stamped no tuples and has no log entry.
    // No ReleaseAll either — a read-only transaction never acquires locks
    // (Database::LockTable refuses it), so skipping the call keeps the lock
    // manager's per-txn bookkeeping for real writers only.
    if (!touched.empty()) {
      return Status::Internal("read-only txn " + std::to_string(txn) +
                              " dirtied " + std::to_string(touched.size()) +
                              " relations");
    }
    commits_->Add();
    return Status::Ok();
  }
  if (touched.empty()) {
    // Read-only transaction: no tuple bears this xid, so the commit decision
    // needs no durability. Skipping the forced log write keeps pure-read
    // workloads free of commit I/O, and keeps reads committing on a device
    // that permanent write errors have tripped read-only.
    INV_RETURN_IF_ERROR(log_->CommitTxnReadOnly(txn, clock_->Now()));
  } else {
    // Force policy: all data this transaction changed must be durable before
    // the commit record.
    for (Oid rel : touched) {
      INV_RETURN_IF_ERROR(buffers_->FlushRelation(rel));
    }
    INV_RETURN_IF_ERROR(log_->CommitTxn(txn, clock_->Now()));
  }
  locks_->ReleaseAll(txn);
  commits_->Add();
  return Status::Ok();
}

Status TxnManager::Abort(TxnId txn) {
  ScopedSpan span(&metrics_->spans(), "txn.abort", txn);
  {
    MutexLock lock(mu_);
    auto it = active_.find(txn);
    if (it == active_.end()) {
      return Status::TxnAborted("abort of inactive txn " + std::to_string(txn));
    }
    active_.erase(it);
  }
  if (IsReadOnlyTxn(txn)) {
    aborts_->Add();
    return Status::Ok();
  }
  // Nothing to undo: tuples stamped with this xid are invisible to every
  // snapshot because the xid never commits. (Space is reclaimed by vacuum.)
  INV_RETURN_IF_ERROR(log_->AbortTxn(txn));
  locks_->ReleaseAll(txn);
  aborts_->Add();
  return Status::Ok();
}

bool TxnManager::IsActive(TxnId txn) const {
  MutexLock lock(mu_);
  return active_.contains(txn);
}

void TxnManager::NoteTouched(TxnId txn, Oid rel) {
  MutexLock lock(mu_);
  auto it = active_.find(txn);
  if (it != active_.end()) {
    it->second.touched.insert(rel);
    it->second.written = true;
  }
}

void TxnManager::MarkWritten(TxnId txn) {
  MutexLock lock(mu_);
  auto it = active_.find(txn);
  if (it != active_.end()) {
    it->second.written = true;
  }
}

Snapshot TxnManager::SnapshotFor(TxnId txn) const {
  return Snapshot{kTimestampNow, txn, log_};
}

Snapshot TxnManager::SnapshotAt(Timestamp t) const {
  // Pin historical reads too: without the frozen view, a transaction that
  // was in flight at the SnapshotAt call but commits with commit_ts <= t
  // mid-scan would flip from invisible to visible between two fetches of
  // the same historical scan.
  return Snapshot{t, kInvalidTxn, log_, log_->CaptureState()};
}

Snapshot TxnManager::ReadSnapshot(TxnId txn) const {
  {
    MutexLock lock(mu_);
    auto it = active_.find(txn);
    if (it != active_.end() && !it->second.written &&
        it->second.pinned != nullptr) {
      return Snapshot{kTimestampNow, txn, log_, it->second.pinned};
    }
  }
  return Snapshot{kTimestampNow, txn, log_};
}

TxnId TxnManager::OldestActiveXmin() const {
  MutexLock lock(mu_);
  TxnId oldest = kInvalidTxn;
  for (const auto& [xid, at] : active_) {
    // Written transactions read live state: committed deletions are already
    // invisible to them, so their pin no longer constrains vacuum.
    if (at.written || at.pinned == nullptr) {
      continue;
    }
    const TxnId h = at.pinned->HorizonXid();
    if (oldest == kInvalidTxn || h < oldest) {
      oldest = h;
    }
  }
  return oldest;
}

size_t TxnManager::ActiveTxnCount() const {
  MutexLock lock(mu_);
  return active_.size();
}

}  // namespace invfs

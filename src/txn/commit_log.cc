#include "src/txn/commit_log.h"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <optional>

#include "src/fault/crash_points.h"
#include "src/obs/span.h"
#include "src/util/bytes.h"

namespace invfs {

CommitLog::CommitLog(DeviceManager* device, MetricsRegistry* metrics)
    : device_(device) {
  if (metrics == nullptr) {
    owned_metrics_ = std::make_unique<MetricsRegistry>();
    metrics = owned_metrics_.get();
  }
  metrics_ = metrics;
  persist_requests_ = metrics->GetCounter("log.persist_requests");
  persist_batches_ = metrics->GetCounter("log.persist_batches");
  device_page_writes_ = metrics->GetCounter("log.device_page_writes");
  horizon_hits_ = metrics->GetCounter("log.horizon_hits");
  batch_transitions_ = metrics->GetHistogram("log.batch_transitions");
  flush_us_ = metrics->GetHistogram("log.flush_us");
}

Result<std::unique_ptr<CommitLog>> CommitLog::Open(DeviceManager* device,
                                                   MetricsRegistry* metrics) {
  auto log = std::unique_ptr<CommitLog>(new CommitLog(device, metrics));
  if (!device->RelationExists(kCommitLogRelOid)) {
    INV_RETURN_IF_ERROR(device->CreateRelation(kCommitLogRelOid));
  }
  // Open is single-threaded, but entries_ is guarded and a static member gets
  // no constructor exemption from the analysis, so hold mu_ for the setup.
  MutexLock lock(log->mu_);
  INV_RETURN_IF_ERROR(log->LoadFromDevice());
  // The bootstrap transaction is always committed at time zero.
  if (log->entries_.size() <= kBootstrapTxn) {
    log->entries_.resize(kBootstrapTxn + 1);
  }
  log->entries_[kBootstrapTxn] = Entry{TxnStatus::kCommitted, 0};
  return log;
}

Status CommitLog::LoadFromDevice() {
  INV_ASSIGN_OR_RETURN(uint32_t nblocks, device_->NumBlocks(kCommitLogRelOid));
  std::vector<std::byte> buf(kPageSize);
  // Log pages whose entries recovery rewrites; persisted below so the
  // converted aborts reach the raw image, not just memory.
  std::set<uint32_t> converted_blocks;
  for (uint32_t b = 0; b < nblocks; ++b) {
    INV_RETURN_IF_ERROR(device_->ReadBlock(kCommitLogRelOid, b, buf));
    if (b == 0) {
      // Entry 0 (xid 0 is invalid) holds the persisted xid horizon in its
      // timestamp field.
      xid_horizon_ = GetU64(buf.data() + 8);
    }
    for (uint32_t i = b == 0 ? 1 : 0; i < kEntriesPerPage; ++i) {
      const std::byte* p = buf.data() + i * kEntrySize;
      Entry e;
      e.status = static_cast<TxnStatus>(GetU32(p));
      e.commit_ts = GetU64(p + 8);
      const TxnId xid = b * kEntriesPerPage + i;
      if (e.status != TxnStatus::kUnused) {
        if (entries_.size() <= xid) {
          entries_.resize(xid + 1);
        }
        // Crash recovery: an in-progress entry means the writer died before
        // commit. It never happened.
        if (e.status == TxnStatus::kInProgress) {
          e.status = TxnStatus::kAborted;
          converted_blocks.insert(b);
        }
        entries_[xid] = e;
      }
    }
  }
  // Every xid at or below the horizon may have been handed out without a
  // persisted begin record (begin only waits on the device when it advances
  // the horizon). Whatever is still unused after a crash is burned: record it
  // aborted so the xid can never be reused and offline readers agree.
  if (xid_horizon_ > 0) {
    if (entries_.size() <= xid_horizon_) {
      entries_.resize(xid_horizon_ + 1);
    }
    for (TxnId x = kBootstrapTxn + 1; x <= xid_horizon_; ++x) {
      if (entries_[x].status == TxnStatus::kUnused) {
        entries_[x].status = TxnStatus::kAborted;
        converted_blocks.insert(static_cast<uint32_t>(x / kEntriesPerPage));
      }
    }
  }
  // Persist the conversions: without this, a second crash before the next
  // group flush would leave the entries in-progress (or unused) on disk
  // forever, and any offline reader of the raw image would disagree with us
  // about their fate.
  for (uint32_t b : converted_blocks) {
    INV_RETURN_IF_ERROR(WriteLogBlock(b, BuildPageImage(b)));
  }
  return Status::Ok();
}

std::vector<std::byte> CommitLog::BuildPageImage(uint32_t block) const {
  std::vector<std::byte> buf(kPageSize, std::byte{0});
  const TxnId first = block * kEntriesPerPage;
  for (uint32_t i = 0; i < kEntriesPerPage; ++i) {
    const TxnId x = first + i;
    std::byte* p = buf.data() + i * kEntrySize;
    if (x == 0) {
      // xid 0 is invalid; its entry carries the xid horizon instead.
      PutU64(p + 8, xid_horizon_);
    } else if (x < entries_.size()) {
      PutU32(p, static_cast<uint32_t>(entries_[x].status));
      PutU32(p + 4, 0);
      PutU64(p + 8, entries_[x].commit_ts);
    }
  }
  return buf;
}

Status CommitLog::WriteLogBlock(uint32_t block, const std::vector<std::byte>& image) {
  INV_ASSIGN_OR_RETURN(uint32_t nblocks, device_->NumBlocks(kCommitLogRelOid));
  if (block > nblocks) {
    // Zero-fill intermediate pages. They can hold no registered xid: every
    // xid's begin record is persisted before the xid becomes visible, which
    // extends the device past its page first.
    std::vector<std::byte> zero(kPageSize, std::byte{0});
    for (uint32_t b = nblocks; b < block; ++b) {
      INV_RETURN_IF_ERROR(device_->WriteBlock(kCommitLogRelOid, b, zero));
      device_page_writes_->Add();
    }
  }
  INV_RETURN_IF_ERROR(device_->WriteBlock(kCommitLogRelOid, block, image));
  device_page_writes_->Add();
  return Status::Ok();
}

uint64_t CommitLog::EnqueueTransition(TxnId xid) {
  persist_requests_->Add();
  dirty_blocks_.insert(xid / kEntriesPerPage);
  return ++enqueue_seq_;
}

Status CommitLog::WaitPersisted(uint64_t seq) {
  // One span per waiter: a transition that rides someone else's flush still
  // spent this wall time blocked on group commit, so the shared flush cost is
  // attributed to every member of the batch, not just the leader.
  ScopedSpan wait_span(&metrics_->spans(), "log.flush.wait", seq);
  while (sticky_error_.ok() && persisted_seq_ < seq) {
    if (flush_in_progress_) {
      flush_cv_.Wait(mu_);
      continue;
    }
    // Leader: snapshot page images for every queued page under mu_, then
    // write them with mu_ released so new transitions can keep enqueueing
    // (they form the next group).
    flush_in_progress_ = true;
    const uint64_t covers = enqueue_seq_;
    const uint64_t batch_size = covers - persisted_seq_;
    std::vector<uint32_t> blocks(dirty_blocks_.begin(), dirty_blocks_.end());
    dirty_blocks_.clear();
    std::vector<std::vector<std::byte>> images;
    images.reserve(blocks.size());
    for (uint32_t b : blocks) {
      images.push_back(BuildPageImage(b));
    }
    mu_.unlock();
    // The leader's device-write scope; ends before mu_ is retaken so the span
    // measures I/O, not lock handoff.
    std::optional<ScopedSpan> flush_span;
    flush_span.emplace(&metrics_->spans(), "log.flush", batch_size,
                       blocks.size());
    CrashPointRegistry::Hit("commitlog.pre_flush");
    const auto flush_start = std::chrono::steady_clock::now();
    Status s = Status::Ok();
    // A transient device hiccup must not poison the log: page writes are
    // idempotent images, so the whole batch is simply retried from the top.
    // (With the ErrorPolicyDevice stacked below, transients are normally
    // retried there and never reach this loop; this guards logs opened on a
    // bare device.)
    for (int attempt = 0; attempt < 3; ++attempt) {
      s = Status::Ok();
      for (size_t i = 0; i < blocks.size() && s.ok(); ++i) {
        if (i > 0) {
          CrashPointRegistry::Hit("commitlog.mid_batch");
        }
        s = WriteLogBlock(blocks[i], images[i]);
      }
      if (!s.IsTransientIo()) {
        break;
      }
    }
    if (s.ok()) {
      CrashPointRegistry::Hit("commitlog.post_flush");
    }
    flush_us_->Observe(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - flush_start)
            .count()));
    batch_transitions_->Observe(batch_size);
    flush_span.reset();
    mu_.lock();
    persist_batches_->Add();
    if (s.ok()) {
      // Only a successful flush makes the covered transitions durable (and
      // therefore visible: see VisibleStatus). On failure persisted_seq_
      // stays put and the sticky error poisons the log, so an unflushed
      // commit can never be observed by readers.
      persisted_seq_ = std::max(persisted_seq_, covers);
    } else if (sticky_error_.ok()) {
      sticky_error_ = s;
      {  // zero-duration span: a point event on the span stream
        ScopedSpan poisoned(&metrics_->spans(), "log.poisoned",
                            static_cast<uint64_t>(s.code()));
      }
    }
    flush_in_progress_ = false;
    flush_cv_.NotifyAll();
  }
  return FailStopLocked();
}

Status CommitLog::FailStopLocked() const {
  if (sticky_error_.ok()) {
    return Status::Ok();
  }
  return Status::ReadOnlyDevice(
      "commit log poisoned; database is fail-stop read-only (cause: " +
      sticky_error_.ToString() + ")");
}

bool CommitLog::poisoned() const {
  MutexLock lock(mu_);
  return !sticky_error_.ok();
}

TxnStatus CommitLog::VisibleStatus(const Entry& e) const {
  // A committed entry whose covering group flush has not landed must read as
  // still in progress: a crash before the flush recovers it as aborted, and
  // snapshot visibility (StatusOf / CommittedBefore) must never show a
  // commit that recovery could take back.
  if (e.status == TxnStatus::kCommitted && e.durable_seq > persisted_seq_) {
    return TxnStatus::kInProgress;
  }
  return e.status;
}

Status CommitLog::BeginTxn(TxnId xid) {
  MutexLock lock(mu_);
  if (entries_.size() <= xid) {
    entries_.resize(xid + 1);
  }
  if (entries_[xid].status != TxnStatus::kUnused) {
    return Status::Internal("xid " + std::to_string(xid) + " reused");
  }
  entries_[xid].status = TxnStatus::kInProgress;
  unresolved_.insert(xid);
  dirty_blocks_.insert(static_cast<uint32_t>(xid / kEntriesPerPage));
  // The begin record exists to prevent xid reuse after a crash. Persisting
  // one per begin would cost a device write per transaction, so begins are
  // covered in batches by the xid horizon: while xid <= horizon, recovery
  // already knows to burn the xid (unused-below-horizon reads as aborted) and
  // the in-progress entry can ride out with the next group flush. Only a
  // begin that crosses the horizon advances it — one device wait per
  // kXidHorizonBatch transactions.
  if (xid <= xid_horizon_) {
    horizon_hits_->Add();
    return FailStopLocked();
  }
  xid_horizon_ = xid + kXidHorizonBatch;
  dirty_blocks_.insert(0);  // the horizon record lives in log page 0
  return WaitPersisted(EnqueueTransition(xid));
}

Status CommitLog::CommitTxn(TxnId xid, Timestamp commit_ts) {
  MutexLock lock(mu_);
  if (xid >= entries_.size() || entries_[xid].status != TxnStatus::kInProgress) {
    return Status::Internal("commit of unknown xid " + std::to_string(xid));
  }
  const uint64_t seq = EnqueueTransition(xid);
  // durable_seq hides the commit from readers until the covering flush lands
  // (the leader may release mu_ mid-flush, so entries_ is observable before
  // the device write completes).
  entries_[xid] = Entry{TxnStatus::kCommitted, commit_ts, seq};
  const Status s = WaitPersisted(seq);
  if (s.ok()) {
    // The covering flush landed: the commit is durable and can never again
    // read as in-progress, so snapshot capture need not track the xid.
    unresolved_.erase(xid);
  }
  return s;
}

Status CommitLog::CommitTxnReadOnly(TxnId xid, Timestamp commit_ts) {
  MutexLock lock(mu_);
  if (xid >= entries_.size() || entries_[xid].status != TxnStatus::kInProgress) {
    return Status::Internal("commit of unknown xid " + std::to_string(xid));
  }
  // durable_seq 0 makes the commit visible immediately: there is nothing a
  // crash could take back, because no tuple bears this xid (recovery simply
  // burns it as aborted, which nothing observes). Deliberately no
  // FailStopLocked check — read-only commits must keep succeeding after the
  // log has poisoned, or in-flight readers would fail on a degraded device.
  entries_[xid] = Entry{TxnStatus::kCommitted, commit_ts, 0};
  unresolved_.erase(xid);
  dirty_blocks_.insert(xid / kEntriesPerPage);
  return Status::Ok();
}

Status CommitLog::AbortTxn(TxnId xid) {
  MutexLock lock(mu_);
  if (xid >= entries_.size() || entries_[xid].status != TxnStatus::kInProgress) {
    return Status::Internal("abort of unknown xid " + std::to_string(xid));
  }
  entries_[xid].status = TxnStatus::kAborted;
  // Aborted xids leave the unresolved set even though the abort record is
  // not yet durable: an aborted entry can never become visible, so excluding
  // it from captured snapshots is always correct (in-view + never-committed
  // still reads as invisible).
  unresolved_.erase(xid);
  // No waiting: the abort rides out with the next group flush, and an
  // unpersisted abort reads back as in-progress, which recovery aborts.
  dirty_blocks_.insert(xid / kEntriesPerPage);
  return Status::Ok();
}

TxnStatus CommitLog::StatusOf(TxnId xid) const {
  MutexLock lock(mu_);
  if (xid >= entries_.size()) {
    return TxnStatus::kUnused;
  }
  return VisibleStatus(entries_[xid]);
}

Timestamp CommitLog::CommitTimeOf(TxnId xid) const {
  MutexLock lock(mu_);
  if (xid >= entries_.size() ||
      VisibleStatus(entries_[xid]) != TxnStatus::kCommitted) {
    return 0;
  }
  return entries_[xid].commit_ts;
}

bool CommitLog::CommittedBefore(TxnId xid, Timestamp as_of) const {
  MutexLock lock(mu_);
  if (xid >= entries_.size()) {
    return false;
  }
  const Entry& e = entries_[xid];
  return VisibleStatus(e) == TxnStatus::kCommitted && e.commit_ts <= as_of;
}

TxnId CommitLog::MaxTxnId() const {
  MutexLock lock(mu_);
  return entries_.empty() ? 0 : static_cast<TxnId>(entries_.size() - 1);
}

std::shared_ptr<const SnapshotState> CommitLog::CaptureState() {
  MutexLock lock(mu_);
  auto state = std::make_shared<SnapshotState>();
  state->xmax = static_cast<TxnId>(entries_.size());
  for (auto it = unresolved_.begin(); it != unresolved_.end();) {
    const TxnId xid = *it;
    if (xid < entries_.size() &&
        VisibleStatus(entries_[xid]) == TxnStatus::kInProgress) {
      state->xip.push_back(xid);  // set order: ascending, as InView expects
      ++it;
    } else {
      // Resolved without passing through an eager erase: prune here so the
      // set stays proportional to live transactions.
      it = unresolved_.erase(it);
    }
  }
  return state;
}

}  // namespace invfs

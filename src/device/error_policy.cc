#include "src/device/error_policy.h"

#include <algorithm>

#include "src/obs/span.h"

namespace invfs {

ErrorPolicyDevice::ErrorPolicyDevice(std::unique_ptr<DeviceManager> inner,
                                     SimClock* clock, DeviceErrorPolicy policy,
                                     MetricsRegistry* metrics)
    : inner_(std::move(inner)),
      clock_(clock),
      policy_(policy),
      metrics_(metrics) {
  const std::string_view label = inner_->name();
  retries_ = metrics->GetCounter("device.retries", label);
  permanent_errors_ = metrics->GetCounter("device.permanent_errors", label);
}

namespace {
// Write-path errors that trip the sticky read-only degradation: a transient
// error that survived every retry, or a hard I/O error.
bool TripsReadOnly(const Status& s) {
  return s.IsTransientIo() || s.code() == ErrorCode::kIoError;
}
}  // namespace

template <typename Op>
[[gnu::noinline]] Status ErrorPolicyDevice::RetryTail(Status first, Op&& op) {
  // Retry/backoff stalls land on the request that suffered them: the span
  // nests under whatever device.* span is open, so --breakdown attributes
  // fault-layer time instead of mislabeling it as plain device I/O.
  ScopedSpan span(&metrics_->spans(), "device.retry");
  Status s = std::move(first);
  SimMicros backoff = policy_.backoff_us;
  SimMicros total_backoff = 0;
  for (int attempt = 0; attempt < policy_.max_retries && s.IsTransientIo();
       ++attempt) {
    clock_->Advance(backoff);
    total_backoff += backoff;
    span.set_b(total_backoff);
    backoff = std::min(backoff * 2, policy_.max_backoff_us);
    retries_->Add();
    s = op();
    span.set_a(static_cast<uint64_t>(attempt + 1));
  }
  return s;
}

Status ErrorPolicyDevice::ReadOnlyError() const {
  return Status::ReadOnlyDevice("device '" + std::string(name()) +
                                "' is read-only after a permanent write error");
}

Status ErrorPolicyDevice::TripReadOnly(const Status& cause) {
  if (!read_only_.exchange(true, std::memory_order_acq_rel)) {
    permanent_errors_->Add();
    {  // zero-duration span: a point event on the span stream
      ScopedSpan trip(&metrics_->spans(), "device.read_only_trip",
                      static_cast<uint64_t>(cause.code()));
    }
  }
  return Status::ReadOnlyDevice("device '" + std::string(name()) +
                                "' tripped read-only: " + cause.ToString());
}

Status ErrorPolicyDevice::CreateRelation(Oid rel) {
  if (read_only()) [[unlikely]] {
    return ReadOnlyError();
  }
  Status s = inner_->CreateRelation(rel);
  if (s.ok()) [[likely]] {
    return s;
  }
  s = RetryTail(std::move(s), [&] { return inner_->CreateRelation(rel); });
  if (!s.ok() && TripsReadOnly(s)) {
    return TripReadOnly(s);
  }
  return s;
}

Status ErrorPolicyDevice::DropRelation(Oid rel) {
  if (read_only()) [[unlikely]] {
    return ReadOnlyError();
  }
  Status s = inner_->DropRelation(rel);
  if (s.ok()) [[likely]] {
    return s;
  }
  s = RetryTail(std::move(s), [&] { return inner_->DropRelation(rel); });
  if (!s.ok() && TripsReadOnly(s)) {
    return TripReadOnly(s);
  }
  return s;
}

Status ErrorPolicyDevice::ReadBlock(Oid rel, uint32_t block,
                                    std::span<std::byte> out) {
  // Reads are served even on a read-only device: that is the entire point of
  // the degradation (queries and recovery outlive a dying write path).
  Status s = inner_->ReadBlock(rel, block, out);
  if (s.ok()) [[likely]] {
    return s;
  }
  s = RetryTail(std::move(s), [&] { return inner_->ReadBlock(rel, block, out); });
  if (s.IsTransientIo()) {
    // Out of retries: surface as a hard I/O error so callers do not loop.
    return Status::IoError("read failed after " +
                           std::to_string(policy_.max_retries) +
                           " retries: " + s.ToString());
  }
  return s;
}

Status ErrorPolicyDevice::WriteBlock(Oid rel, uint32_t block,
                                     std::span<const std::byte> data) {
  if (read_only()) [[unlikely]] {
    return ReadOnlyError();
  }
  Status s = inner_->WriteBlock(rel, block, data);
  if (s.ok()) [[likely]] {
    return s;
  }
  s = RetryTail(std::move(s), [&] { return inner_->WriteBlock(rel, block, data); });
  if (s.ok()) {
    return s;
  }
  if (TripsReadOnly(s)) {
    return TripReadOnly(s);
  }
  return s;  // logical errors (bad block, missing relation) pass through
}

Status ErrorPolicyDevice::Sync() {
  if (read_only()) {
    // A read-only device has nothing new to destage; syncing what already
    // landed is a no-op rather than an error, so shutdown paths stay clean.
    return Status::Ok();
  }
  Status s = inner_->Sync();
  if (s.ok()) [[likely]] {
    return s;
  }
  s = RetryTail(std::move(s), [&] { return inner_->Sync(); });
  if (!s.ok() && TripsReadOnly(s)) {
    return TripReadOnly(s);
  }
  return s;
}

}  // namespace invfs

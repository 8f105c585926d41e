// FaultDevice: a deterministic fault-injecting DeviceManager decorator.
//
// Registered through the existing device switch (stacked under
// InstrumentedDevice and the retry/read-only ErrorPolicyDevice), it lets a
// test or the torture driver schedule, against a seeded Rng:
//
//   * transient errors  — the Nth read/write fails with kTransientIo; the
//     same operation succeeds if retried (exercises the backoff policy);
//   * permanent errors  — the Nth read/write fails with kIoError every time
//     (exercises the sticky read-only degradation);
//   * torn writes       — only a prefix or an arbitrary seeded subset of the
//     8 KB page's 512-byte sectors is persisted; the write *reports success*
//     (a lying disk; detection is the page CRC's job at read time);
//   * bit flips         — the page is persisted with one bit flipped, again
//     reporting success;
//   * crash halts       — the Nth write never reaches the store and every
//     subsequent operation through any FaultDevice sharing the injector
//     fails ("halted at crash point"): the block stores are frozen at the
//     exact image a power failure would have left.
//
// One FaultInjector is shared by all FaultDevices of a StorageEnv, so
// operation counts are global across devices and a schedule like "crash at
// device write #37" is meaningful for the whole stack. Counters restart at
// every Arm call, which lets the driver set up a world (bootstrap traffic
// uncounted) and then arm relative to the workload's own I/O.

#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/device/device.h"
#include "src/util/mutex.h"
#include "src/util/random.h"
#include "src/util/status.h"

namespace invfs {

// One scheduled fault. `at` is 1-based and counts matching operations
// (reads or writes, per `op`) arriving at any FaultDevice of the injector
// since the last Arm call.
struct FaultSpec {
  enum class Kind : uint8_t {
    kTransientError,  // fail with kTransientIo; retry succeeds
    kPermanentError,  // fail with kIoError; every retry fails too
    kTornWrite,       // persist a sector subset of the page, report success
    kBitFlip,         // persist with one flipped bit, report success
    kCrash,           // halt the simulated process image at this write
  };
  enum class Op : uint8_t { kRead, kWrite };

  Kind kind = Kind::kTransientError;
  Op op = Op::kWrite;
  uint64_t at = 1;
};

class FaultInjector {
 public:
  explicit FaultInjector(uint64_t seed = 0) : rng_(seed) {}

  // Replace the armed schedule and restart the relative op counters.
  void Arm(std::vector<FaultSpec> specs);
  void ArmOne(FaultSpec spec) { Arm(std::vector<FaultSpec>{spec}); }
  // Clear the schedule (counters keep running; totals remain readable).
  void Disarm();

  // Halt now: every later operation through any attached FaultDevice fails.
  // Crash points call this from their armed callback; kCrash specs call it
  // internally.
  void Crash();
  bool crashed() const {
    return (flags_.load(std::memory_order_acquire) & kCrashedFlag) != 0;
  }

  // Total operations observed since construction (not reset by Arm).
  uint64_t total_reads() const;
  uint64_t total_writes() const;
  // Operations observed since the last Arm call.
  uint64_t reads_since_arm() const;
  uint64_t writes_since_arm() const;
  // Faults delivered (errors returned + silent corruptions applied).
  uint64_t faults_fired() const;

 private:
  friend class FaultDevice;

  // Decide the fate of the next read/write. Returns the action FaultDevice
  // must take; for corruption kinds, fills `spec_out`.
  enum class Action : uint8_t { kPass, kFailTransient, kFailPermanent,
                                kCorrupt, kHalt };
  // Unarmed fast path: armed and crashed state share one atomic flags word,
  // so when nothing is scheduled the whole decision is a single acquire load
  // plus a lossy stat bump — neither mu_ nor a locked read-modify-write is
  // touched on the production-shaped path (BM_DeviceWrite in
  // bench/bench_micro.cc measures the stack's unarmed overhead). kHalt subsumes the old separate crashed() pre-check
  // in the block paths. No out-parameter: a kCorrupt verdict parks its spec
  // under mu_ for TakeCorruptSpec, keeping the fast path free of an escaped
  // stack local.
  Action OnOp(FaultSpec::Op op) EXCLUDES(mu_) {
    const uint8_t flags = flags_.load(std::memory_order_acquire);
    if (flags == 0) [[likely]] {
      BumpStat(op == FaultSpec::Op::kRead ? reads_ : writes_);
      return Action::kPass;
    }
    if ((flags & kCrashedFlag) != 0) {
      return Action::kHalt;
    }
    return OnOpArmed(op);
  }
  // Fetch the spec parked by the kCorrupt verdict just returned to this
  // caller. mu_ is fine here: corruption delivery is the cold path.
  FaultSpec TakeCorruptSpec() EXCLUDES(mu_);
  // Stat totals are deliberately a plain load+store, not fetch_add: an
  // uncontended locked RMW costs an order of magnitude more than the rest of
  // the fast path combined, and the totals are reporting-only (concurrent
  // unarmed bumps may drop a count). Fault *positioning* never relies on
  // them: while any spec is unconsumed the armed flag routes every operation
  // through OnOpArmed, whose position counters live under mu_ and are exact.
  static void BumpStat(std::atomic<uint64_t>& c) {
    c.store(c.load(std::memory_order_relaxed) + 1, std::memory_order_relaxed);
  }
  Action OnOpArmed(FaultSpec::Op op) EXCLUDES(mu_);
  // Produce the corrupted image for a torn or bit-flipped write. `old_page`
  // is the pre-write content (zero-filled when the write extends).
  std::vector<std::byte> CorruptImage(const FaultSpec& spec,
                                      std::span<const std::byte> data,
                                      std::span<const std::byte> old_page)
      EXCLUDES(mu_);

  mutable Mutex mu_;
  Rng rng_ GUARDED_BY(mu_);
  std::vector<FaultSpec> specs_ GUARDED_BY(mu_);
  std::vector<bool> consumed_ GUARDED_BY(mu_);
  // Stat totals (lossy under concurrency, see BumpStat); atomics so the
  // unarmed fast path can bump them without mu_.
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> writes_{0};
  // Exact 1-based positions of operations since the last Arm call, counted
  // only while armed (the armed flag routes every op through OnOpArmed, so
  // no op escapes the count until the schedule is spent). Spec matching uses
  // these, never the lossy totals.
  uint64_t pos_reads_ GUARDED_BY(mu_) = 0;
  uint64_t pos_writes_ GUARDED_BY(mu_) = 0;
  uint64_t arm_base_reads_ GUARDED_BY(mu_) = 0;
  uint64_t arm_base_writes_ GUARDED_BY(mu_) = 0;
  uint64_t faults_fired_ GUARDED_BY(mu_) = 0;
  // Spec of the most recent kCorrupt verdict, awaiting TakeCorruptSpec.
  FaultSpec pending_corrupt_ GUARDED_BY(mu_);
  // kArmedFlag is set while any unconsumed spec remains armed (cleared by
  // Disarm and by OnOpArmed once the last spec fires); kCrashedFlag is sticky
  // once a halt triggers.
  static constexpr uint8_t kArmedFlag = 1;
  static constexpr uint8_t kCrashedFlag = 2;
  std::atomic<uint8_t> flags_{0};
};

class FaultDevice final : public DeviceManager {
 public:
  // Wraps `inner`; faults and the halt state come from `injector`
  // (caller-owned, shared across the env's devices).
  FaultDevice(std::unique_ptr<DeviceManager> inner, FaultInjector* injector)
      : inner_(std::move(inner)), injector_(injector) {}

  std::string_view name() const override { return inner_->name(); }

  Status CreateRelation(Oid rel) override;
  Status DropRelation(Oid rel) override;
  bool RelationExists(Oid rel) const override {
    return inner_->RelationExists(rel);
  }
  Result<uint32_t> NumBlocks(Oid rel) const override {
    return inner_->NumBlocks(rel);
  }

  Status ReadBlock(Oid rel, uint32_t block, std::span<std::byte> out) override;
  Status WriteBlock(Oid rel, uint32_t block,
                    std::span<const std::byte> data) override;
  Status Sync() override;

  DeviceManager* Underlying() override { return inner_->Underlying(); }

 private:
  Status HaltedError() const;

  std::unique_ptr<DeviceManager> inner_;
  FaultInjector* injector_;
};

}  // namespace invfs

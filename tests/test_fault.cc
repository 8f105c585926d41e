// Unit and stack tests for the fault-injection layer: crash points, the
// FaultDevice decorator, the retry/read-only ErrorPolicyDevice, and the
// graceful-degradation paths they feed (commit-log fail-stop, read-only
// devices surfaced through RPC and the NFS gateway).

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "src/catalog/database.h"
#include "src/device/device.h"
#include "src/device/error_policy.h"
#include "src/fault/crash_points.h"
#include "src/fault/fault_device.h"
#include "src/inversion/inv_fs.h"
#include "src/net/nfs_gateway.h"
#include "src/net/rpc.h"

namespace invfs {
namespace {

// ---- CrashPointRegistry -----------------------------------------------------

// The registry is a process-wide singleton; every test leaves it disarmed.
struct RegistryGuard {
  ~RegistryGuard() { CrashPointRegistry::Instance().Disarm(); }
};

TEST(CrashPoints, InertWhenNeitherRecordingNorArmed) {
  RegistryGuard guard;
  CrashPointRegistry::Hit("anything");
  EXPECT_FALSE(CrashPointRegistry::Instance().fired());
}

TEST(CrashPoints, RecordingCountsHitsPerPoint) {
  RegistryGuard guard;
  auto& reg = CrashPointRegistry::Instance();
  reg.StartRecording();
  CrashPointRegistry::Hit("alpha");
  CrashPointRegistry::Hit("alpha");
  CrashPointRegistry::Hit("beta");
  CrashPointRegistry::Hit("alpha");
  auto counts = reg.StopRecording();
  EXPECT_EQ(counts["alpha"], 3u);
  EXPECT_EQ(counts["beta"], 1u);
  // Recording stopped: further hits are free and uncounted.
  CrashPointRegistry::Hit("alpha");
  EXPECT_TRUE(reg.StopRecording().empty());
}

TEST(CrashPoints, ArmedCallbackFiresExactlyOnceAtNthOccurrence) {
  RegistryGuard guard;
  auto& reg = CrashPointRegistry::Instance();
  int fired = 0;
  reg.Arm("point", 2, [&fired] { ++fired; });
  CrashPointRegistry::Hit("other");  // different point: does not count
  CrashPointRegistry::Hit("point");  // occurrence 1: below threshold
  EXPECT_EQ(fired, 0);
  EXPECT_FALSE(reg.fired());
  CrashPointRegistry::Hit("point");  // occurrence 2: fires
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(reg.fired());
  CrashPointRegistry::Hit("point");  // once only
  EXPECT_EQ(fired, 1);
}

// ---- FaultDevice (device level) ---------------------------------------------

constexpr Oid kRel = 5000;

std::vector<std::byte> FilledPage(char c) {
  return std::vector<std::byte>(kPageSize, std::byte{static_cast<uint8_t>(c)});
}

class FaultDeviceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dev_ = std::make_unique<FaultDevice>(std::make_unique<NvramDevice>(&store_),
                                         &injector_);
    ASSERT_TRUE(dev_->CreateRelation(kRel).ok());
  }

  MemBlockStore store_;
  FaultInjector injector_;
  std::unique_ptr<FaultDevice> dev_;
};

TEST_F(FaultDeviceTest, TransientErrorFiresOnceThenSameWriteSucceeds) {
  injector_.ArmOne({FaultSpec::Kind::kTransientError, FaultSpec::Op::kWrite, 1});
  const auto page = FilledPage('A');
  Status first = dev_->WriteBlock(kRel, 0, page);
  ASSERT_FALSE(first.ok());
  EXPECT_TRUE(first.IsTransientIo());
  // The retry is the next write position: it passes.
  EXPECT_TRUE(dev_->WriteBlock(kRel, 0, page).ok());
  EXPECT_EQ(injector_.faults_fired(), 1u);
  EXPECT_EQ(injector_.writes_since_arm(), 2u);

  std::vector<std::byte> out(kPageSize);
  ASSERT_TRUE(dev_->ReadBlock(kRel, 0, out).ok());
  EXPECT_EQ(std::memcmp(out.data(), page.data(), kPageSize), 0);
}

TEST_F(FaultDeviceTest, CrashHaltsEveryLaterOperation) {
  injector_.ArmOne({FaultSpec::Kind::kCrash, FaultSpec::Op::kWrite, 2});
  ASSERT_TRUE(dev_->WriteBlock(kRel, 0, FilledPage('A')).ok());
  Status crash = dev_->WriteBlock(kRel, 1, FilledPage('B'));
  ASSERT_FALSE(crash.ok());
  EXPECT_TRUE(injector_.crashed());
  // The halted write never reached the store, and the frozen image refuses
  // all further traffic — exactly a powered-off machine.
  auto nblocks = dev_->Underlying()->NumBlocks(kRel);
  ASSERT_TRUE(nblocks.ok());
  EXPECT_EQ(*nblocks, 1u);
  std::vector<std::byte> out(kPageSize);
  EXPECT_FALSE(dev_->ReadBlock(kRel, 0, out).ok());
  EXPECT_FALSE(dev_->Sync().ok());
}

TEST_F(FaultDeviceTest, TornWriteKeepsAProperSectorSubsetAndReportsSuccess) {
  ASSERT_TRUE(dev_->WriteBlock(kRel, 0, FilledPage('B')).ok());
  injector_.ArmOne({FaultSpec::Kind::kTornWrite, FaultSpec::Op::kWrite, 1});
  // The lying disk: the caller sees success, the media holds a mix.
  ASSERT_TRUE(dev_->WriteBlock(kRel, 0, FilledPage('A')).ok());
  std::vector<std::byte> out(kPageSize);
  ASSERT_TRUE(dev_->ReadBlock(kRel, 0, out).ok());
  size_t new_sectors = 0, old_sectors = 0;
  for (size_t off = 0; off < kPageSize; off += 512) {
    char c = static_cast<char>(out[off]);
    for (size_t i = 0; i < 512; ++i) {
      ASSERT_EQ(static_cast<char>(out[off + i]), c)
          << "sector " << off / 512 << " must be atomic";
    }
    (c == 'A' ? new_sectors : old_sectors) += 1;
  }
  EXPECT_GT(new_sectors, 0u);
  EXPECT_GT(old_sectors, 0u) << "a torn write must lose something";
}

TEST_F(FaultDeviceTest, BitFlipPersistsExactlyOneFlippedBit) {
  injector_.ArmOne({FaultSpec::Kind::kBitFlip, FaultSpec::Op::kWrite, 1});
  ASSERT_TRUE(dev_->WriteBlock(kRel, 0, FilledPage('\0')).ok());
  std::vector<std::byte> out(kPageSize);
  ASSERT_TRUE(dev_->ReadBlock(kRel, 0, out).ok());
  int set_bits = 0;
  for (std::byte b : out) {
    set_bits += __builtin_popcount(static_cast<unsigned>(b));
  }
  EXPECT_EQ(set_bits, 1);
}

// ---- ErrorPolicyDevice ------------------------------------------------------

std::vector<SpanRecord> SpansNamed(const MetricsRegistry& metrics,
                                   std::string_view name) {
  std::vector<SpanRecord> out;
  for (const SpanRecord& r : metrics.spans().Snapshot()) {
    if (r.name != nullptr && name == r.name) {
      out.push_back(r);
    }
  }
  return out;
}

class ErrorPolicyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dev_ = std::make_unique<ErrorPolicyDevice>(
        std::make_unique<FaultDevice>(std::make_unique<NvramDevice>(&store_),
                                      &injector_),
        &clock_, DeviceErrorPolicy{}, &metrics_);
    ASSERT_TRUE(dev_->CreateRelation(kRel).ok());
  }

  uint64_t Retries() {
    return metrics_.GetCounter("device.retries", "nvram")->Value();
  }

  MemBlockStore store_;
  FaultInjector injector_;
  SimClock clock_;
  MetricsRegistry metrics_;
  std::unique_ptr<ErrorPolicyDevice> dev_;
};

TEST_F(ErrorPolicyTest, TransientWriteRetriedInvisiblyWithBackoff) {
  injector_.ArmOne({FaultSpec::Kind::kTransientError, FaultSpec::Op::kWrite, 1});
  const SimMicros t0 = clock_.Peek();
  EXPECT_TRUE(dev_->WriteBlock(kRel, 0, FilledPage('A')).ok());
  EXPECT_EQ(injector_.faults_fired(), 1u);
  EXPECT_EQ(Retries(), 1u);
  EXPECT_GT(clock_.Peek(), t0) << "backoff must be charged to the clock";
  EXPECT_FALSE(dev_->read_only());
  std::vector<std::byte> out(kPageSize);
  ASSERT_TRUE(dev_->ReadBlock(kRel, 0, out).ok());
  EXPECT_EQ(static_cast<char>(out[0]), 'A');
}

TEST_F(ErrorPolicyTest, TransientReadRetriedAndDoesNotTripReadOnly) {
  ASSERT_TRUE(dev_->WriteBlock(kRel, 0, FilledPage('R')).ok());
  injector_.ArmOne({FaultSpec::Kind::kTransientError, FaultSpec::Op::kRead, 1});
  std::vector<std::byte> out(kPageSize);
  EXPECT_TRUE(dev_->ReadBlock(kRel, 0, out).ok());
  EXPECT_EQ(static_cast<char>(out[0]), 'R');
  EXPECT_GE(Retries(), 1u);
  EXPECT_FALSE(dev_->read_only());
}

TEST_F(ErrorPolicyTest, PermanentWriteTripsStickyReadOnlyButReadsKeepFlowing) {
  ASSERT_TRUE(dev_->WriteBlock(kRel, 0, FilledPage('K')).ok());
  injector_.ArmOne({FaultSpec::Kind::kPermanentError, FaultSpec::Op::kWrite, 1});
  Status failed = dev_->WriteBlock(kRel, 1, FilledPage('X'));
  ASSERT_FALSE(failed.ok());
  EXPECT_TRUE(failed.IsReadOnlyDevice());
  EXPECT_TRUE(dev_->read_only());
  EXPECT_EQ(metrics_.GetCounter("device.permanent_errors", "nvram")->Value(), 1u);

  // Sticky: later writes/creates/drops are refused without touching the
  // device, even with no fault armed.
  EXPECT_TRUE(dev_->WriteBlock(kRel, 0, FilledPage('Y')).IsReadOnlyDevice());
  EXPECT_TRUE(dev_->CreateRelation(kRel + 1).IsReadOnlyDevice());
  EXPECT_TRUE(dev_->DropRelation(kRel).IsReadOnlyDevice());
  // Degradation, not death: persisted data stays readable.
  std::vector<std::byte> out(kPageSize);
  ASSERT_TRUE(dev_->ReadBlock(kRel, 0, out).ok());
  EXPECT_EQ(static_cast<char>(out[0]), 'K');
}

TEST_F(ErrorPolicyTest, RetrySpanCarriesAttemptsAndTotalBackoff) {
  injector_.Arm({{FaultSpec::Kind::kTransientError, FaultSpec::Op::kWrite, 1},
                 {FaultSpec::Kind::kTransientError, FaultSpec::Op::kWrite, 2}});
  ASSERT_TRUE(dev_->WriteBlock(kRel, 0, FilledPage('B')).ok());
  const std::vector<SpanRecord> retries = SpansNamed(metrics_, "device.retry");
  ASSERT_EQ(retries.size(), 1u);
  const DeviceErrorPolicy policy;
  EXPECT_EQ(retries[0].a, 2u);  // attempts
  EXPECT_EQ(retries[0].b, policy.backoff_us + 2 * policy.backoff_us);
}

// ---- full stack: commit log, fail-stop, RPC / NFS surfacing -----------------

// Transport that skips the cost model: frames go straight to the server.
class DirectTransport final : public Transport {
 public:
  explicit DirectTransport(InversionServer* server) : server_(server) {}
  Result<std::vector<std::byte>> RoundTrip(
      std::span<const std::byte> request, SimMicros /*timeout_us*/) override {
    return server_->Handle(request);
  }

 private:
  InversionServer* server_;
};

class FaultStackTest : public ::testing::Test {
 protected:
  void SetUp() override {
    DatabaseOptions opts;
    opts.fault_injector = &injector_;
    auto db = Database::Open(&env_, opts);
    ASSERT_TRUE(db.ok()) << db.status().ToString();
    db_ = std::move(*db);
    fs_ = std::make_unique<InversionFs>(db_.get());
    ASSERT_TRUE(fs_->Mount().ok());
    auto session = fs_->NewSession();
    ASSERT_TRUE(session.ok());
    s_ = std::move(*session);
  }

  void MakeFile(const std::string& path, const std::string& data) {
    ASSERT_TRUE(s_->p_begin().ok());
    auto fd = s_->p_creat(path);
    ASSERT_TRUE(fd.ok());
    ASSERT_TRUE(
        s_->p_write(*fd, std::as_bytes(std::span(data.data(), data.size()))).ok());
    ASSERT_TRUE(s_->p_close(*fd).ok());
    ASSERT_TRUE(s_->p_commit().ok());
  }

  // Open a transaction whose data pages are already durable, so the only
  // device write its commit performs is the commit-log page.
  void StageTxnWithFlushedData(const std::string& path) {
    ASSERT_TRUE(s_->p_begin().ok());
    auto fd = s_->p_open(path, OpenMode::kWrite);
    ASSERT_TRUE(fd.ok());
    const std::string data = "rewritten";
    ASSERT_TRUE(
        s_->p_write(*fd, std::as_bytes(std::span(data.data(), data.size()))).ok());
    ASSERT_TRUE(s_->p_close(*fd).ok());
    ASSERT_TRUE(db_->FlushCaches().ok());
  }

  // Declared before db_ so it outlives the FaultDevices that point at it.
  StorageEnv env_;
  FaultInjector injector_;
  std::unique_ptr<Database> db_;
  std::unique_ptr<InversionFs> fs_;
  std::unique_ptr<InvSession> s_;
};

// Satellite (a): a transient error on the commit-log flush must be absorbed
// by the retry policy — commit succeeds and the log is not poisoned.
TEST_F(FaultStackTest, TransientCommitLogFlushRetriedNotPoisoned) {
  MakeFile("/t.dat", "payload");
  StageTxnWithFlushedData("/t.dat");
  injector_.ArmOne({FaultSpec::Kind::kTransientError, FaultSpec::Op::kWrite, 1});
  ASSERT_TRUE(s_->p_commit().ok());
  EXPECT_EQ(injector_.faults_fired(), 1u);
  EXPECT_FALSE(db_->commit_log().poisoned());
  EXPECT_FALSE(db_->read_only());
  const uint64_t retries =
      db_->metrics().GetCounter("device.retries", "nvram")->Value() +
      db_->metrics().GetCounter("device.retries", "magnetic")->Value() +
      db_->metrics().GetCounter("device.retries", "sony_jukebox")->Value();
  EXPECT_GE(retries, 1u);

  // The commit really took: the new content is durable and visible.
  auto fd = s_->p_open("/t.dat", OpenMode::kRead);
  ASSERT_TRUE(fd.ok());
  std::vector<std::byte> buf(9);
  auto n = s_->p_read(*fd, buf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(std::memcmp(buf.data(), "rewritten", 9), 0);
}

// Tentpole degradation: a permanent failure of the commit-log flush poisons
// the log and the whole database goes cleanly fail-stop read-only, which RPC
// clients and the NFS gateway see as kReadOnlyDevice / EROFS.
TEST_F(FaultStackTest, PermanentCommitLogFailureIsFailStopReadOnly) {
  MakeFile("/p.dat", "payload");
  StageTxnWithFlushedData("/p.dat");
  injector_.ArmOne({FaultSpec::Kind::kPermanentError, FaultSpec::Op::kWrite, 1});
  Status commit = s_->p_commit();
  ASSERT_FALSE(commit.ok());
  EXPECT_TRUE(commit.IsReadOnlyDevice()) << commit.ToString();

  EXPECT_TRUE(db_->commit_log().poisoned());
  EXPECT_TRUE(db_->read_only());
  Status begin = db_->Begin().status();
  EXPECT_TRUE(begin.IsReadOnlyDevice());
  EXPECT_EQ(NfsErrnoFor(begin), EROFS);
  EXPECT_EQ(NfsErrnoFor(Status::IoError("dead disk")), EIO);

  // The same refusal crosses the RPC wire with its code intact.
  InversionServer server(fs_.get());
  DirectTransport transport(&server);
  RemoteFileClient client(&transport);
  EXPECT_TRUE(client.p_begin().IsReadOnlyDevice());
  EXPECT_TRUE(client.p_creat("/new.dat").status().IsReadOnlyDevice());

  // And the NFS gateway maps it to EROFS at its trust boundary.
  InvNfsGateway gateway(fs_.get());
  Status creat = gateway.Creat("/nfs.dat").status();
  ASSERT_FALSE(creat.ok());
  EXPECT_EQ(NfsErrnoFor(creat), EROFS);
}

// The two fail-stop transitions are point events on the span stream: a
// zero-duration span each, carrying the error code in `a`. A permanent
// commit-log write error trips the log's device read-only (cause kIoError),
// and the log poisons on the read-only refusal that surfaces.
TEST_F(FaultStackTest, FailStopTransitionsRecordEventSpans) {
  MakeFile("/e.dat", "payload");
  StageTxnWithFlushedData("/e.dat");
  injector_.ArmOne({FaultSpec::Kind::kPermanentError, FaultSpec::Op::kWrite, 1});
  ASSERT_FALSE(s_->p_commit().ok());
  ASSERT_TRUE(db_->commit_log().poisoned());

  const std::vector<SpanRecord> trips =
      SpansNamed(db_->metrics(), "device.read_only_trip");
  ASSERT_EQ(trips.size(), 1u);
  EXPECT_EQ(trips[0].a, static_cast<uint64_t>(ErrorCode::kIoError));
  const std::vector<SpanRecord> poisoned =
      SpansNamed(db_->metrics(), "log.poisoned");
  ASSERT_EQ(poisoned.size(), 1u);
  EXPECT_EQ(poisoned[0].a, static_cast<uint64_t>(ErrorCode::kReadOnlyDevice));
}

// Tentpole degradation, data-device flavor: a permanent write error trips the
// device read-only mid-transaction; writers fail with kReadOnlyDevice but
// read transactions keep beginning, reading, and committing (their commits
// need no log write — CommitLog::CommitTxnReadOnly).
TEST_F(FaultStackTest, TrippedDataDeviceKeepsReadTransactionsWorking) {
  MakeFile("/keep.dat", "stable");
  ASSERT_TRUE(db_->FlushCaches().ok());

  ASSERT_TRUE(s_->p_begin().ok());
  auto fd = s_->p_open("/keep.dat", OpenMode::kWrite);
  ASSERT_TRUE(fd.ok());
  const std::string junk = "doomed";
  ASSERT_TRUE(
      s_->p_write(*fd, std::as_bytes(std::span(junk.data(), junk.size()))).ok());
  ASSERT_TRUE(s_->p_close(*fd).ok());
  injector_.ArmOne({FaultSpec::Kind::kPermanentError, FaultSpec::Op::kWrite, 1});
  Status flush = db_->FlushCaches();
  ASSERT_FALSE(flush.ok());
  EXPECT_TRUE(flush.IsReadOnlyDevice()) << flush.ToString();
  ASSERT_TRUE(s_->p_abort().ok());

  // The log was never asked to flush, so the database is degraded, not dead.
  EXPECT_FALSE(db_->commit_log().poisoned());
  EXPECT_FALSE(db_->read_only());

  // Reads — including their implicit single-op transactions — still work.
  auto rfd = s_->p_open("/keep.dat", OpenMode::kRead);
  ASSERT_TRUE(rfd.ok()) << rfd.status().ToString();
  std::vector<std::byte> buf(6);
  auto n = s_->p_read(*rfd, buf);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(std::memcmp(buf.data(), "stable", 6), 0);
  ASSERT_TRUE(s_->p_close(*rfd).ok());

  // Teardown must not flush the still-dirty pool against the dead device.
  db_->Crash();
}

}  // namespace
}  // namespace invfs

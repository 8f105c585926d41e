// Fast smoke over the fault-schedule torture engine in both fault domains: a
// small but real sweep (schedules armed, fired, judged) must pass under
// ctest, replay identically, and refuse input that would test nothing. The
// full-size sweeps run in scripts/check.sh.

#include <gtest/gtest.h>

#include <algorithm>

#include "src/fault/torture.h"

namespace invfs {
namespace {

TEST(Torture, SmallSweepPassesAndActuallyCrashes) {
  TortureOptions options;
  options.seed = 7;
  options.transactions = 8;
  options.max_files = 4;
  options.buffers = 24;
  options.occurrences_per_point = 1;
  options.write_sweep_schedules = 6;
  auto report = RunTorture(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->Summary();
  EXPECT_GT(report->schedules, 0u);
  EXPECT_GT(report->fired_total(), 0u)
      << "a sweep that never crashes proves nothing";
  EXPECT_GT(report->recorded_writes, 0u);
}

TEST(Torture, WireSweepHoldsTheAtMostOnceOracle) {
  TortureOptions options;
  options.domain = FaultDomain::kWire;
  options.seed = 0x7E57;
  options.transactions = 14;
  options.max_files = 4;
  options.occurrences_per_point = 3;
  auto report = RunTorture(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  for (const std::string& f : report->failures) {
    ADD_FAILURE() << f;
  }
  EXPECT_GT(report->recorded_exchanges, 0u);
  EXPECT_EQ(report->fired.size(), 5u) << "every wire fault kind must fire";
  EXPECT_EQ(report->not_reached, 0u);
  EXPECT_TRUE(report->ok()) << report->Summary();
}

TEST(Torture, DeterministicAcrossRuns) {
  for (FaultDomain domain : {FaultDomain::kDevice, FaultDomain::kWire}) {
    SCOPED_TRACE(FaultDomainName(domain));
    TortureOptions options;
    options.domain = domain;
    options.seed = 11;
    options.transactions = 6;
    options.max_files = 3;
    options.occurrences_per_point = 1;
    options.write_sweep_schedules = 4;
    auto a = RunTorture(options);
    auto b = RunTorture(options);
    ASSERT_TRUE(a.ok()) << a.status().ToString();
    ASSERT_TRUE(b.ok()) << b.status().ToString();
    EXPECT_EQ(a->Summary(), b->Summary());
    EXPECT_EQ(a->crash_points, b->crash_points);
    EXPECT_EQ(a->fired, b->fired);
    EXPECT_EQ(a->failures, b->failures);
  }
}

// The create-heavy settings of scripts/check.sh's second sweep must keep
// reaching btree.split (the fileatt index fills a leaf twice), or CI loses
// its only B-tree split crash schedules without noticing. The crash points
// come from the recording pass, so one write-sweep schedule is enough here.
TEST(Torture, CreateHeavyPlanReachesBTreeSplit) {
  TortureOptions options;
  options.seed = 1338;
  options.transactions = 300;
  options.max_files = 400;
  options.occurrences_per_point = 0;
  options.write_sweep_schedules = 1;
  auto report = RunTorture(options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->Summary();
  EXPECT_GE(report->crash_points["btree.split"], 2u) << report->Summary();
}

// Every site is armed at its first and its last occurrence even when the
// budget is one: a fault in the plan's final commit or flush is an edge
// schedule of its own.
TEST(Torture, SpreadArmsFirstAndLastOccurrence) {
  for (FaultDomain domain : {FaultDomain::kDevice, FaultDomain::kWire}) {
    SCOPED_TRACE(FaultDomainName(domain));
    TortureOptions options;
    options.domain = domain;
    options.seed = 5;
    options.transactions = 6;
    options.max_files = 3;
    options.occurrences_per_point = 1;
    options.write_sweep_schedules = 0;
    auto report = RunTorture(options);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->ok()) << report->Summary();
    uint64_t expect = 0;
    if (domain == FaultDomain::kWire) {
      expect = 5 * std::min<uint64_t>(report->recorded_exchanges, 2);
    } else {
      for (const auto& [point, count] : report->crash_points) {
        expect += std::min<uint64_t>(count, 2);
      }
    }
    EXPECT_EQ(report->schedules, expect);
  }
}

// Input the sweep cannot honour is refused, not aborted on or run vacuously.
bool IsInvalid(const TortureOptions& options) {
  auto report = RunTorture(options);
  return !report.ok() &&
         report.status().code() == ErrorCode::kInvalidArgument;
}

TEST(Torture, RejectsNonPositiveTransactionCount) {
  TortureOptions options;
  options.transactions = 0;
  EXPECT_TRUE(IsInvalid(options));
  options.transactions = -3;
  EXPECT_TRUE(IsInvalid(options));
}

TEST(Torture, RejectsNonPositiveFileCount) {
  TortureOptions options;
  options.max_files = 0;
  EXPECT_TRUE(IsInvalid(options));
}

TEST(Torture, RejectsZeroBuffers) {
  TortureOptions options;
  options.buffers = 0;
  EXPECT_TRUE(IsInvalid(options));
}

TEST(Torture, SweepThatFiresNothingIsAnError) {
  TortureOptions options;
  options.transactions = 4;
  options.occurrences_per_point = 0;
  options.write_sweep_schedules = 0;
  EXPECT_TRUE(IsInvalid(options));
}

TEST(Torture, RejectsLoadInTheWireDomain) {
  TortureOptions options;
  options.domain = FaultDomain::kWire;
  options.under_load = true;
  EXPECT_TRUE(IsInvalid(options));
}

}  // namespace
}  // namespace invfs

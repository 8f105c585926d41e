// Fault-schedule torture engine.
//
// The paper claims file-system recovery is "essentially instantaneous" and
// needs no fsck because uncommitted updates are invisible by construction.
// The RPC path claims at-most-once: an acked call is applied exactly once, a
// failed call not at all. This engine turns both claims into one enumerated
// proof obligation, run in one of two fault domains: a dying *device*
// (crash points and halts before the Nth device write, judged after
// recovery) or a dying *wire* (request/response drops, duplicate deliveries,
// truncated replies and connection resets under a retrying client, judged
// on the live world).
//
//   1. Plan: one seeded plan of steps over a small pool of file names, each
//      step 1-3 ops run either as auto-commit ops or as one explicit
//      p_begin/p_commit batch; op kinds are create, append, strided
//      overwrite, rename and unlink.
//   2. Recording pass: execute the plan unfaulted, counting crash-point
//      hits, device writes and wire exchanges, and judge the result.
//   3. Schedules: the domain's sites (every recorded crash point plus the
//      device-write sweep, or every wire fault kind over the recorded
//      exchanges), each at occurrences spread over its recorded count, the
//      last occurrence included.
//   4. For each schedule: fresh world, arm the one fault, execute the
//      identical plan, then judge. The executor keeps an acked-state mirror
//      and, for the call a device halt overlapped, the state if that call
//      landed. The judge requires that no call failed before the fault
//      fired, that invfs_check reports nothing but crash residue, that no
//      relation is locked and no transaction active, and that the files
//      equal the acked mirror, or the in-flight call's landed state. A
//      schedule whose fault never fired is judged like the recording pass.
//
// All randomness flows from TortureOptions::seed, so a failing schedule
// replays exactly (same plan, same fault, same image).

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/util/status.h"

namespace invfs {

enum class FaultDomain : uint8_t { kDevice, kWire };

const char* FaultDomainName(FaultDomain domain);

struct TortureOptions {
  FaultDomain domain = FaultDomain::kDevice;
  uint64_t seed = 0xC0FFEE;
  // Plan steps per run (each 1-3 auto-commit ops or one 1-3-op batch).
  int transactions = 24;
  // Size of the file-name pool the plan draws from.
  int max_files = 8;
  // Buffer-pool frames: small enough that evictions (and therefore the
  // buffer.eviction crash point) actually fire.
  size_t buffers = 48;
  // Schedules per site: occurrences spread over the site's recorded count
  // (crash-point hits, or wire exchanges for each wire fault kind).
  uint64_t occurrences_per_point = 12;
  // Device domain: budget for the halt-before-the-Nth-device-write sweep.
  uint64_t write_sweep_schedules = 48;
  // Device domain: interleave the open-loop multi-tenant load driver
  // (src/load/loadgen.h, the builtin mix under /load) between plan steps in
  // the recording pass and every replay alike. The oracle judges only the
  // torture files; the structural verifier covers the whole image.
  bool under_load = false;
  bool verbose = false;  // one line per schedule to stdout
};

struct TortureReport {
  FaultDomain domain = FaultDomain::kDevice;
  uint64_t schedules = 0;    // schedules enumerated and run
  uint64_t not_reached = 0;  // armed fault never fired (plan completed)
  uint64_t in_flight = 0;    // a halt overlapped a call that could land
  // Recording pass: hits per crash point, device writes, wire exchanges,
  // and tenant ops pumped under load.
  std::map<std::string, uint64_t> crash_points;
  uint64_t recorded_writes = 0;
  uint64_t recorded_exchanges = 0;
  uint64_t load_ops = 0;
  // Schedules whose fault fired, per site (crash point, "device.write", or
  // wire fault kind).
  std::map<std::string, uint64_t> fired;
  // Summed over all schedules.
  uint64_t acked_calls = 0;
  uint64_t failed_calls = 0;
  uint64_t retries = 0;
  std::vector<std::string> failures;  // empty == the sweep passed

  uint64_t fired_total() const;
  bool ok() const { return failures.empty(); }
  std::string Summary() const;
};

// Run the sweep. InvalidArgument for a non-positive transaction, file or
// buffer count, for load in the wire domain, and for a sweep that fires no
// schedule; other errors are environmental (the unfaulted recording pass
// failing). Judge failures land in TortureReport::failures.
Result<TortureReport> RunTorture(const TortureOptions& options);

}  // namespace invfs

// Shared pieces of the benchmark: run configuration, per-op samples,
// exact percentiles, registry deltas, the byte shadow every read is checked
// against, and the per-round record each workload fills in.

#pragma once

#include <chrono>
#include <functional>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "src/catalog/database.h"
#include "src/harness/worlds.h"
#include "src/obs/metrics.h"
#include "src/util/random.h"
#include "src/util/status.h"

namespace perfbench {

using invfs::Result;
using invfs::Status;

// ---- clocks ------------------------------------------------------------------

using WallClock = std::chrono::steady_clock;

inline int64_t WallNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             WallClock::now().time_since_epoch())
      .count();
}

// Wall nanoseconds at process start (main() entry), the origin of setup_s.
int64_t ProcessStartNanos();
void MarkProcessStart();

// Wall time this thread spent inside calls into the system. A workload resets
// it before an op and takes it after, so the op's latency leaves out the
// benchmark's own work between calls: payload generation, shadow updates and
// output checks.
class CallClock {
 public:
  static void Reset();
  static void Add(int64_t ns);
  static double TakeMicros();
};

// ---- configuration -----------------------------------------------------------

struct RunConfig {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;   // sizes the fixed amount of work, never a deadline
  bool trace = false;    // per-layer run instead of end-to-end
  int threads = 1;       // hot's reader threads and fleet's stubs: min(4, nproc)
  // Test hook: flip one byte of the Nth checked read (1-based) before it is
  // compared, to prove the checks bite. 0 = off.
  uint64_t corrupt_read = 0;
  std::string trace_dir;  // where the traced run writes its spans
};

// Deterministic per-purpose seed derivation.
inline uint64_t MixSeed(uint64_t seed, uint64_t a, uint64_t b = 0) {
  invfs::Rng r(seed * 0x9E3779B97F4A7C15ULL ^ (a << 32) ^ b);
  return r.Next();
}

// Seeded payload bytes.
std::vector<std::byte> MakeBytes(size_t n, uint64_t seed);

// ---- per-op samples ----------------------------------------------------------

// kDaemon: server background work run in an op's slot (fleet's migration
// passes). It counts as attempted and as busy time, but it is no client's
// request, so it adds no wall latency sample.
enum class OpClass { kRead, kWrite, kOther, kDaemon };

// One client's samples. Latencies are exact per-op values (no buckets).
struct Recorder {
  std::vector<double> wall_us;        // every op
  std::vector<double> read_wall_us;   // read ops
  std::vector<double> write_wall_us;  // write ops (a write includes its commit)
  std::vector<double> sim_us;         // every sim-timed op
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double busy_wall_us = 0;  // sum of op wall time (closed-loop throughput)

  void Add(OpClass c, double wall, std::optional<double> sim, bool ok);
  void Merge(const Recorder& o);
  // Bytes the samples hold.
  uint64_t SampleBytes() const;
  void Fail() { ++failed; }
};

// Exact quantile (linear interpolation between order statistics).
double Quantile(std::vector<double> v, double q);

// ---- registry deltas -----------------------------------------------------------

// Counter totals and histogram (count, sum) pairs keyed "name|label".
struct RegistryState {
  std::map<std::string, uint64_t> counters;
  std::map<std::string, std::pair<uint64_t, uint64_t>> hists;  // count, sum

  static RegistryState Take(const invfs::MetricsRegistry& m);
  RegistryState Minus(const RegistryState& before) const;
  uint64_t Counter(const std::string& name, const std::string& label = "") const;
  std::pair<uint64_t, uint64_t> Hist(const std::string& name,
                                     const std::string& label = "") const;
  void Add(const RegistryState& o);
};

// ---- shadow ------------------------------------------------------------------

// The expected bytes of every file the benchmark wrote, by path.
class Shadow {
 public:
  void Create(const std::string& path) { files_[path].clear(); }
  void Remove(const std::string& path) { files_.erase(path); }
  bool Has(const std::string& path) const { return files_.count(path) != 0; }
  void Write(const std::string& path, int64_t offset,
             std::span<const std::byte> data);
  // True when `got` equals the shadow's bytes at [offset, offset + got.size())
  // and `got.size()` is what a read of `want` bytes there must return.
  bool Matches(const std::string& path, int64_t offset, size_t want,
               std::span<const std::byte> got) const;
  int64_t Size(const std::string& path) const;
  const std::vector<std::byte>* Bytes(const std::string& path) const;
  uint64_t LiveBytes() const;
  const std::map<std::string, std::vector<std::byte>>& files() const {
    return files_;
  }

 private:
  std::map<std::string, std::vector<std::byte>> files_;
};

// Shared corrupt-read hook (see RunConfig::corrupt_read): counts checked
// reads and flips a byte of the selected one.
void MaybeCorrupt(std::span<std::byte> got);
void SetCorruptRead(uint64_t nth);

// ---- the record a round produces --------------------------------------------

// Counts and times the per-layer metrics are derived from (traced run).
struct LayerTally {
  uint64_t ops = 0;
  double phase_wall_us = 0;
  double phase_sim_us = 0;
  RegistryState reg;
  // Benchmark-owned transport wrapper.
  uint64_t exchanges = 0;
  uint64_t net_bytes = 0;
  double net_sim_us = 0;
  // Access-method probes after the phase.
  uint64_t lookups = 0;
  uint64_t lookup_tids = 0;
  double lookup_wall_us = 0;
  uint64_t fetches = 0;
  double fetch_wall_us = 0;
  // Vacuum / rules / query calls.
  uint64_t vacuum_runs = 0;
  double vacuum_wall_us = 0;
  uint64_t vacuum_archived = 0;
  uint64_t rule_passes = 0;
  uint64_t migrations = 0;
  double rules_wall_us = 0;
  uint64_t queries = 0;
  uint64_t query_rows = 0;
  double query_wall_us = 0;
  // Jukebox device counters.
  uint64_t platter_loads = 0;
  uint64_t jukebox_cache_hits = 0;
  uint64_t jukebox_cache_misses = 0;
  uint64_t user_bytes_written = 0;
};

struct RoundResult {
  double setup_s = 0;
  Recorder rec;
  // Throughput denominator: wall seconds the timed phase is charged.
  double phase_wall_s = 0;
  uint64_t phase_ops = 0;
  // Payload and sim seconds per direction.
  double create_bytes = 0, create_sim_s = 0;
  double read_bytes = 0, read_sim_s = 0;
  double write_bytes = 0, write_sim_s = 0;
  // Closed loop: ops and sim seconds of the sim-timed client.
  double cap_ops = 0, cap_sim_s = 0;
  // Open loop (fleet): per ladder rung, each arrival's sim latency from its
  // intended start, and how far the last completion ran past the last
  // intended arrival.
  std::vector<std::vector<double>> rung_sim_us;
  std::vector<double> rung_end_lag_us;
  double device_bytes = 0;
  double live_bytes = 0;
  // Peak bytes of the round's shadows and version histories: benchmark
  // memory, taken out of rss_mb.
  double bench_bytes = 0;
  bool image_ok = true;
  // The timed ops ran on several threads at once (see EndToEnd).
  bool concurrent = false;
  LayerTally tally;
};

// Bytes every block store of `env` holds.
uint64_t DeviceBytes(invfs::StorageEnv& env);

// Flush and run the offline checker; prints violations to stderr. A
// violation passes only when `explained` accepts it (see ChurnRound).
bool VerifyWorld(invfs::InversionWorld& world, const char* what,
                 const std::function<bool(const invfs::Violation&)>& explained =
                     nullptr);

// Snapshot of the jukebox's counters (zero when the device is absent).
struct JukeboxCounts {
  uint64_t platter_loads = 0, cache_hits = 0, cache_misses = 0;
};
JukeboxCounts ReadJukebox(invfs::Database& db);

// Probe BTree::Lookup and Heap::Fetch on every chunk of `files` (path ->
// size), timing each call, into `t`.
Status ProbeAccess(invfs::InversionWorld& world,
                   const std::map<std::string, int64_t>& files, LayerTally* t);

// The state at the start of a timed phase. CloseTally adds the phase's wall
// and sim time, registry deltas and jukebox deltas to a tally.
struct PhaseMark {
  int64_t wall_ns = 0;
  uint64_t sim_us = 0;
  RegistryState reg;
  JukeboxCounts jukebox;
  static PhaseMark Take(invfs::InversionWorld& world);
};
void CloseTally(invfs::InversionWorld& world, const PhaseMark& start,
                LayerTally* t);

}  // namespace perfbench

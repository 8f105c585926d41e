// Open-loop multi-tenant workload driver over the SimClock.
//
// The paper evaluates Inversion with closed-loop microbenchmarks: one client,
// the next operation issued when the previous returns. Real file servers —
// the Sequoia deployment the paper describes serving "a network file server"
// for many scientists — face *open-loop* load: mail arrives whether or not
// the last delivery finished. The distinction matters for measurement. A
// closed-loop driver that stalls stops sending, so its recorded latencies
// silently omit every request that *would* have arrived during the stall —
// the coordinated-omission trap. This driver therefore:
//
//   * schedules every client's arrivals on the intended timeline (Poisson or
//     bursty inter-arrivals from a deterministic Rng), independent of
//     completions: the next arrival is intended_prev + interarrival, never
//     completion + interarrival;
//   * measures each operation from its *intended* start to its completion on
//     the sim clock, so time an op spent queued behind a busy server counts
//     against it. When the server saturates, latencies grow without bound —
//     exactly the signal a closed-loop harness hides.
//
// Mechanics: single-threaded event pump over a min-heap of clients keyed by
// next intended arrival. If the sim clock is behind the next intended time
// the pump advances it (the server was idle); if it is ahead, the op is late
// already and its queueing lag is charged to its latency. Every operation is
// self-contained (any transaction it opens commits or aborts within the
// step), so the pump can interleave with other SimClock users — the torture
// harness drives it between transactions via Step() for crash testing under
// load.
//
// Tenancy: each profile is one tenant. The pump installs the tenant's tag
// (ScopedTenantTag) around each op, so entry-point histograms, spans, and
// the SLO report attribute per tenant end to end; the driver additionally
// records its CO-correct sim-time latencies into load.latency_us{<tenant>},
// which the per-profile load objectives are graded against and the
// timeseries sampler (ticked by the pump) turns into per-tenant curves.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/fault/faulty_transport.h"
#include "src/inversion/inv_fs.h"
#include "src/net/rpc.h"
#include "src/obs/slo.h"
#include "src/obs/tenant.h"
#include "src/util/random.h"

namespace invfs {

class TimeSeriesSampler;

// What a tenant's clients do per arrival. Each behavior is one
// self-contained operation sequence (begin..commit inside the step).
enum class TenantKind {
  // Mail server: fsync-heavy small files — explicit transaction around
  // create + write + close, one commit per delivered message.
  kMail,
  // Analytics: ad-hoc POSTQUEL scans over the file metadata tables.
  kAnalytics,
  // Auditors: historical p_open of setup-time files (time travel), read,
  // close — read-only, lock-free.
  kAudit,
  // WORM archive: append-once bulk files plus periodic migration-rule
  // passes pushing cold data toward the jukebox.
  kArchive,
};

const char* TenantKindName(TenantKind kind);

enum class ArrivalKind {
  kPoisson,  // exponential inter-arrivals at the profile rate
  kUniform,  // fixed inter-arrival 1/rate
  // On/off: `burst` back-to-back arrivals (1 ms apart), then an exponential
  // gap sized so the long-run rate still matches ops_per_sec.
  kBursty,
};

// Declarative tenant spec: who, how many, how often, doing what, judged
// against which load-latency objective.
struct TenantProfile {
  std::string name;
  TenantKind kind = TenantKind::kMail;
  size_t clients = 10;
  double ops_per_sec = 1.0;  // per client, long-run intended rate
  ArrivalKind arrival = ArrivalKind::kPoisson;
  uint32_t burst = 4;          // arrivals per burst (kBursty only)
  uint32_t bytes_per_op = 2048;  // payload written/read per operation
  uint32_t setup_files = 4;    // per-tenant file pool created before the run
  // Objective on the CO-correct load latency (sim micros, intended-start to
  // completion). op is set to the tenant name by ParseProfileSpec/builtins.
  SloTarget load_slo;
};

// The four builtin tenants at their 1x size (10/6/3/3 clients = 22 total).
std::vector<TenantProfile> BuiltinProfiles();

// Parse "name[:key=value,...]" where name is a builtin (mail, analytics,
// audit, archive) and keys are clients, rate, arrival (poisson|uniform|
// bursty), burst, bytes, files, p50, p99, p999 (sim micros; 0 =
// unconstrained). Example: "mail:clients=500,rate=2,arrival=bursty,burst=8".
Result<TenantProfile> ParseProfileSpec(std::string_view spec);

// Scale a profile mix to `total_clients`, preserving the mix's proportions
// (every profile keeps at least one client).
void ScaleProfiles(std::vector<TenantProfile>* profiles, size_t total_clients);

// How the fleet reaches the filesystem.
enum class LoadTransport {
  kInProcess,  // one InvSession per client, direct calls
  // Every client is a RemoteFileClient: full marshalling, the NetModel
  // pricing every arrival's frames, and (optionally) FaultyTransport rates
  // injecting wire faults the retry/DRC machinery must absorb.
  kRpc,
};

struct LoadGenOptions {
  uint64_t seed = 42;
  double seconds = 2.0;        // intended-arrival horizon, sim time
  std::string root = "/load";  // namespace the driver works under
  std::vector<TenantProfile> profiles = BuiltinProfiles();
  LoadTransport transport = LoadTransport::kInProcess;
  NetFaultRates net_faults;    // kRpc only: per-exchange fault probabilities
  RpcRetryPolicy rpc_retry;    // kRpc only: per-client resilience policy
  // Test hook: at sim time `stall_at` (if nonzero), freeze the "server" for
  // `stall_for` micros (one clock jump before the next op). An open-loop
  // driver must charge that stall to every arrival it queued — the
  // coordinated-omission test pins exactly that.
  SimMicros stall_at = 0;
  SimMicros stall_for = 0;
};

// Per-tenant outcome of a run.
struct TenantLoadStats {
  std::string tenant;
  TenantKind kind = TenantKind::kMail;
  size_t clients = 0;
  uint64_t ops = 0;
  uint64_t errors = 0;
  uint64_t bytes = 0;          // payload moved (reads + writes)
  SloReport slo;               // graded CO-correct load latency
  uint64_t max_lag_us = 0;     // worst intended-start queueing delay
  double offered_ops_per_sec = 0.0;   // clients * rate
  double achieved_ops_per_sec = 0.0;  // ops / actual sim duration
};

struct LoadGenReport {
  uint64_t seed = 0;
  size_t clients = 0;
  uint64_t ops = 0;
  uint64_t errors = 0;
  double intended_seconds = 0.0;  // the arrival horizon
  double sim_seconds = 0.0;       // actual duration (overrun => saturated)
  // Sim micros the pump finished past the last intended arrival: ~0 when the
  // server keeps up, grows with offered load once it cannot — the report's
  // saturation signal.
  uint64_t end_lag_us = 0;
  uint64_t span_drops = 0;   // SpanRing overwrites during the run
  uint64_t samples = 0;      // timeseries samples captured
  // RPC transport only (all zero in-process).
  uint64_t rpc_exchanges = 0;   // round trips on the wire
  uint64_t rpc_retries = 0;     // client re-sends across the fleet
  uint64_t rpc_faults = 0;      // wire faults injected
  uint64_t rpc_drc_hits = 0;    // retried ops answered from the server DRC
  std::vector<TenantLoadStats> tenants;

  // True when every tenant's load objective held (count>0 rows only).
  bool AllOk() const;
  std::string DumpText() const;
  std::string DumpJson() const;
};

class LoadGen {
 public:
  LoadGen(InversionFs* fs, LoadGenOptions options);
  ~LoadGen();

  LoadGen(const LoadGen&) = delete;
  LoadGen& operator=(const LoadGen&) = delete;

  // Create the working directories, per-tenant file pools, the archive
  // migration rule, and one session per client; record the historical
  // timestamp the auditors will time-travel to; seed the arrival heap.
  Status Setup();

  // Execute the next intended arrival (advancing the sim clock as needed)
  // and tick the timeseries sampler. Returns false when every arrival inside
  // the horizon has run. Callers interleaving foreign work (torture) call
  // this instead of Run.
  bool Step();

  // Setup + pump to completion + one final timeseries sample.
  Status Run();

  // Totals so far; callable mid-run (the torture harness reports progress).
  LoadGenReport Report() const;

  size_t total_clients() const;

 private:
  struct Client;
  struct TenantState;

  void PushHeap(Client& c);
  void ScheduleNext(Client& c, SimMicros from_intended);
  // One operation of `c`'s tenant kind; returns ok and bytes moved.
  Status RunOp(Client& c, uint64_t* bytes);
  // The op body, generic over the access path: Api is InvSession (in-process)
  // or RemoteFileClient (every call marshalled through the wire).
  template <typename Api>
  Status RunOpOn(Api& api, Client& c, uint64_t* bytes);

  InversionFs* fs_;
  LoadGenOptions options_;
  SimClock* clock_;
  // Cached at Setup so the per-op path never takes the registry mutex.
  TimeSeriesSampler* sampler_ = nullptr;
  Gauge* lag_gauge_ = nullptr;
  SimMicros start_ = 0;
  SimMicros horizon_ = 0;        // start_ + seconds
  SimMicros last_intended_ = 0;  // latest intended arrival executed
  bool setup_done_ = false;
  bool stalled_ = false;
  uint64_t spans_before_ = 0;    // drop counters at Setup (delta = this run)
  uint64_t samples_before_ = 0;
  // RPC transport stack (kRpc only): one server + one priced, optionally
  // faulty wire shared by the whole fleet, one stub per client.
  std::unique_ptr<InversionServer> rpc_server_;
  std::unique_ptr<NetModel> rpc_net_;
  std::unique_ptr<LoopbackTransport> rpc_loop_;
  std::unique_ptr<FaultyTransport> rpc_wire_;
  Counter* drc_hits_counter_ = nullptr;  // cached for the report delta
  uint64_t drc_hits_before_ = 0;
  std::vector<TenantState> tenants_;
  std::vector<Client> clients_;
  // Min-heap of client indices keyed by next intended arrival.
  std::vector<size_t> heap_;
};

}  // namespace invfs

#include "src/load/loadgen.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/obs/timeseries.h"

namespace invfs {

namespace {

// Minimum spacing of back-to-back arrivals inside a burst.
constexpr SimMicros kBurstSpacingMicros = 1000;

// One migration-rule pass per this many archive-client operations.
constexpr uint64_t kArchiveMigrateEvery = 16;

// Files above this size are cold data for the archive migration rule. The
// archive behavior writes 2x its bytes_per_op (default 16 KB), mail writes
// single small chunks, so with default profiles only archive bulk files trip
// the rule.
constexpr int64_t kArchiveMigrateBytes = 12000;

double ExpSample(Rng& rng, double mean) {
  // Inverse-CDF; 1-U keeps the argument in (0,1] so log() stays finite.
  return -std::log(1.0 - rng.NextDouble()) * mean;
}

uint64_t MixSeed(uint64_t seed, uint64_t tenant, uint64_t client) {
  // SplitMix-style decorrelation so client streams never overlap.
  uint64_t x = seed ^ (tenant * 0x9E3779B97F4A7C15ULL) ^
               (client * 0xBF58476D1CE4E5B9ULL);
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

Status IgnoreNotFound(const Status& s) {
  if (s.ok() || s.code() == ErrorCode::kNotFound) {
    return Status::Ok();
  }
  return s;
}

}  // namespace

const char* TenantKindName(TenantKind kind) {
  switch (kind) {
    case TenantKind::kMail:
      return "mail";
    case TenantKind::kAnalytics:
      return "analytics";
    case TenantKind::kAudit:
      return "audit";
    case TenantKind::kArchive:
      return "archive";
  }
  return "unknown";
}

std::vector<TenantProfile> BuiltinProfiles() {
  // Per-client rates are calibrated to the simulated device stack: the heavy
  // ops (a mail delivery's create+commit, an archive bulk write) cost
  // 100-250 sim ms on one serialized server, so the 1x mix offers ~3.5 ops/s
  // (~0.35 utilization) and stays comfortably open-loop-stable. Load
  // objectives are CO-correct sim micros (intended start -> completion),
  // sized well above an unsaturated run so the baseline smoke passes with
  // margin while a saturated pump (queueing lag in every latency) blows
  // through them — which is the point.
  auto slo = [](std::string name, uint64_t p99) {
    SloTarget t;
    t.op = std::move(name);
    t.p99_us = p99;
    return t;
  };
  TenantProfile mail;
  mail.name = "mail";
  mail.kind = TenantKind::kMail;
  mail.clients = 10;
  mail.ops_per_sec = 0.2;
  mail.arrival = ArrivalKind::kPoisson;
  mail.bytes_per_op = 2048;
  mail.setup_files = 2;
  mail.load_slo = slo("mail", 2'000'000);

  TenantProfile analytics;
  analytics.name = "analytics";
  analytics.kind = TenantKind::kAnalytics;
  analytics.clients = 6;
  analytics.ops_per_sec = 0.1;
  analytics.arrival = ArrivalKind::kBursty;
  analytics.burst = 4;
  analytics.bytes_per_op = 0;
  analytics.setup_files = 4;
  analytics.load_slo = slo("analytics", 3'000'000);

  TenantProfile audit;
  audit.name = "audit";
  audit.kind = TenantKind::kAudit;
  audit.clients = 3;
  audit.ops_per_sec = 0.2;
  audit.arrival = ArrivalKind::kPoisson;
  audit.bytes_per_op = 4096;
  audit.setup_files = 4;
  audit.load_slo = slo("audit", 1'000'000);

  TenantProfile archive;
  archive.name = "archive";
  archive.kind = TenantKind::kArchive;
  archive.clients = 3;
  archive.ops_per_sec = 0.1;
  archive.arrival = ArrivalKind::kUniform;
  archive.bytes_per_op = 8192;
  archive.setup_files = 2;
  archive.load_slo = slo("archive", 5'000'000);
  return {mail, analytics, audit, archive};
}

Result<TenantProfile> ParseProfileSpec(std::string_view spec) {
  const size_t colon = spec.find(':');
  const std::string_view name = spec.substr(0, colon);
  TenantProfile profile;
  bool found = false;
  for (TenantProfile& p : BuiltinProfiles()) {
    if (p.name == name) {
      profile = std::move(p);
      found = true;
      break;
    }
  }
  if (!found) {
    return Status::InvalidArgument("unknown profile '" + std::string(name) +
                                   "' (want mail|analytics|audit|archive)");
  }
  if (colon == std::string_view::npos) {
    return profile;
  }
  std::string_view rest = spec.substr(colon + 1);
  while (!rest.empty()) {
    const size_t comma = rest.find(',');
    const std::string_view kv = rest.substr(0, comma);
    rest = comma == std::string_view::npos ? std::string_view{}
                                           : rest.substr(comma + 1);
    const size_t eq = kv.find('=');
    if (eq == std::string_view::npos) {
      return Status::InvalidArgument("profile spec wants key=value, got '" +
                                     std::string(kv) + "'");
    }
    const std::string_view key = kv.substr(0, eq);
    const std::string val(kv.substr(eq + 1));
    if (key == "arrival") {
      if (val == "poisson") {
        profile.arrival = ArrivalKind::kPoisson;
      } else if (val == "uniform") {
        profile.arrival = ArrivalKind::kUniform;
      } else if (val == "bursty") {
        profile.arrival = ArrivalKind::kBursty;
      } else {
        return Status::InvalidArgument("unknown arrival '" + val + "'");
      }
      continue;
    }
    char* end = nullptr;
    const double num = std::strtod(val.c_str(), &end);
    if (end == val.c_str() || *end != '\0' || num < 0) {
      return Status::InvalidArgument("bad numeric value in '" +
                                     std::string(kv) + "'");
    }
    if (key == "clients") {
      profile.clients = static_cast<size_t>(num);
    } else if (key == "rate") {
      profile.ops_per_sec = num;
    } else if (key == "burst") {
      profile.burst = static_cast<uint32_t>(num);
    } else if (key == "bytes") {
      profile.bytes_per_op = static_cast<uint32_t>(num);
    } else if (key == "files") {
      profile.setup_files = static_cast<uint32_t>(num);
    } else if (key == "p50") {
      profile.load_slo.p50_us = static_cast<uint64_t>(num);
    } else if (key == "p99") {
      profile.load_slo.p99_us = static_cast<uint64_t>(num);
    } else if (key == "p999") {
      profile.load_slo.p999_us = static_cast<uint64_t>(num);
    } else {
      return Status::InvalidArgument("unknown profile key '" +
                                     std::string(key) + "'");
    }
  }
  if (profile.clients == 0 || profile.ops_per_sec <= 0) {
    return Status::InvalidArgument("profile needs clients >= 1 and rate > 0");
  }
  if (profile.burst == 0) {
    profile.burst = 1;
  }
  return profile;
}

void ScaleProfiles(std::vector<TenantProfile>* profiles, size_t total_clients) {
  size_t base = 0;
  for (const TenantProfile& p : *profiles) {
    base += p.clients;
  }
  if (base == 0 || total_clients == 0) {
    return;
  }
  // Largest-remainder apportionment: floors first, then hand the shortfall to
  // the profiles with the biggest truncated fractions, so the fleet size is
  // exact (modulo the one-client-per-profile floor) and the mix stays
  // proportional.
  std::vector<std::pair<size_t, size_t>> rem;  // (remainder numerator, index)
  size_t assigned = 0;
  for (size_t i = 0; i < profiles->size(); ++i) {
    TenantProfile& p = (*profiles)[i];
    const size_t scaled = p.clients * total_clients;
    rem.emplace_back(scaled % base, i);
    p.clients = std::max<size_t>(1, scaled / base);
    assigned += p.clients;
  }
  std::sort(rem.begin(), rem.end(), [](const auto& a, const auto& b) {
    return a.first != b.first ? a.first > b.first : a.second < b.second;
  });
  for (size_t k = 0; assigned < total_clients && k < rem.size(); ++k) {
    (*profiles)[rem[k].second].clients += 1;
    ++assigned;
  }
}

// ----------------------------------------------------------------- internals

struct LoadGen::TenantState {
  TenantProfile profile;
  std::string dir;
  std::unique_ptr<TenantBinding> binding;
  Histogram* lat = nullptr;  // registry load.latency_us{name}: CO-correct
  Counter* ops = nullptr;
  Counter* errors = nullptr;
  // This run's latency distribution only. The registry histogram above is
  // cumulative across runs sharing the database (and is what the timeseries
  // sampler windows); the report must not blend a previous run in.
  // unique_ptr because Histogram's atomics make it immovable.
  std::unique_ptr<Histogram> shadow = std::make_unique<Histogram>();
  uint64_t ops_done = 0;
  uint64_t err_count = 0;
  uint64_t bytes = 0;
  uint64_t max_lag = 0;
  std::vector<std::string> pool;  // setup-time files (audit targets)
  Timestamp as_of = 0;            // the auditors' historical point
};

struct LoadGen::Client {
  size_t tenant = 0;
  uint64_t id = 0;
  std::unique_ptr<InvSession> session;      // kInProcess
  std::unique_ptr<RemoteFileClient> remote;  // kRpc
  Rng rng{0};
  SimMicros next_intended = 0;
  uint32_t burst_left = 0;
  uint64_t ops = 0;
};

LoadGen::LoadGen(InversionFs* fs, LoadGenOptions options)
    : fs_(fs), options_(std::move(options)), clock_(&fs->db().clock()) {}

LoadGen::~LoadGen() = default;

size_t LoadGen::total_clients() const {
  size_t n = 0;
  for (const TenantProfile& p : options_.profiles) {
    n += p.clients;
  }
  return n;
}

void LoadGen::PushHeap(Client& c) {
  heap_.push_back(static_cast<size_t>(&c - clients_.data()));
  std::push_heap(heap_.begin(), heap_.end(), [this](size_t a, size_t b) {
    return clients_[a].next_intended != clients_[b].next_intended
               ? clients_[a].next_intended > clients_[b].next_intended
               : a > b;
  });
}

void LoadGen::ScheduleNext(Client& c, SimMicros from_intended) {
  const TenantProfile& p = tenants_[c.tenant].profile;
  const double mean_us = 1e6 / p.ops_per_sec;
  double gap = mean_us;
  switch (p.arrival) {
    case ArrivalKind::kUniform:
      break;
    case ArrivalKind::kPoisson:
      gap = ExpSample(c.rng, mean_us);
      break;
    case ArrivalKind::kBursty:
      if (c.burst_left > 0) {
        --c.burst_left;
        gap = kBurstSpacingMicros;
      } else {
        c.burst_left = p.burst - 1;
        // Off-period sized so the cycle (burst arrivals + gap) still offers
        // ops_per_sec in the long run.
        const double cycle = p.burst * mean_us;
        const double in_burst =
            static_cast<double>((p.burst - 1) * kBurstSpacingMicros);
        gap = ExpSample(c.rng, std::max(cycle - in_burst, 1.0));
      }
      break;
  }
  const SimMicros next =
      from_intended + std::max<SimMicros>(1, static_cast<SimMicros>(gap));
  if (next >= horizon_) {
    c.next_intended = 0;  // retired; not re-pushed
    return;
  }
  c.next_intended = next;
  PushHeap(c);
}

Status LoadGen::Setup() {
  MetricsRegistry& metrics = fs_->db().metrics();
  sampler_ = &metrics.timeseries();
  lag_gauge_ = metrics.GetGauge("load.lag_us");
  spans_before_ = metrics.spans().TotalDropped();
  samples_before_ = sampler_->SamplesTaken();

  INV_ASSIGN_OR_RETURN(auto setup, fs_->NewSession());
  Status mk = setup->mkdir(options_.root);
  if (!mk.ok() && mk.code() != ErrorCode::kAlreadyExists) {
    return mk;
  }
  bool archive_present = false;
  tenants_.reserve(options_.profiles.size());
  for (const TenantProfile& p : options_.profiles) {
    TenantState t;
    t.profile = p;
    t.dir = options_.root + "/" + p.name;
    mk = setup->mkdir(t.dir);
    if (!mk.ok() && mk.code() != ErrorCode::kAlreadyExists) {
      return mk;
    }
    t.binding = std::make_unique<TenantBinding>(&metrics, p.name);
    t.lat = metrics.GetHistogram("load.latency_us", p.name);
    t.ops = metrics.GetCounter("load.ops", p.name);
    t.errors = metrics.GetCounter("load.errors", p.name);
    // Seed file pool: what auditors time-travel into and analytics scans
    // see on an otherwise cold database.
    const uint32_t seed_bytes = std::max<uint32_t>(p.bytes_per_op, 512);
    std::vector<std::byte> blob(seed_bytes,
                                static_cast<std::byte>(0x5A ^ tenants_.size()));
    for (uint32_t i = 0; i < p.setup_files; ++i) {
      const std::string path = t.dir + "/seed" + std::to_string(i);
      INV_RETURN_IF_ERROR(IgnoreNotFound(setup->unlink(path)));
      INV_ASSIGN_OR_RETURN(int fd, setup->p_creat(path));
      INV_ASSIGN_OR_RETURN(int64_t n, setup->p_write(fd, blob));
      (void)n;
      INV_RETURN_IF_ERROR(setup->p_close(fd));
      t.pool.push_back(path);
    }
    archive_present |= p.kind == TenantKind::kArchive;
    tenants_.push_back(std::move(t));
  }
  if (archive_present) {
    // Every driver instance defines the same rule text, so a concurrent or
    // prior definition is success, not a conflict.
    const Status rule =
        fs_->Query("define rule load_archive_cold on fileatt where "
                   "fileatt.size > " +
                       std::to_string(kArchiveMigrateBytes) + " do migrate " +
                       std::to_string(kDeviceJukebox),
                   setup.get())
            .status();
    if (!rule.ok() && rule.code() != ErrorCode::kAlreadyExists) {
      return rule;
    }
  }
  // The historical point the auditors open: strictly after every pool file
  // exists, strictly before the run mutates anything.
  const Timestamp past = fs_->db().Now();
  clock_->Advance(1000);
  for (TenantState& t : tenants_) {
    t.as_of = past;
  }

  if (options_.transport == LoadTransport::kRpc) {
    // The whole fleet shares one server, one priced wire, and (when fault
    // rates are set) one fault decorator; each client gets its own stub so
    // the (client id, seq, epoch) at-most-once state is per client.
    rpc_server_ = std::make_unique<InversionServer>(fs_);
    rpc_net_ = std::make_unique<NetModel>(clock_, NetParams{});
    rpc_loop_ =
        std::make_unique<LoopbackTransport>(rpc_server_.get(), rpc_net_.get());
    rpc_wire_ = std::make_unique<FaultyTransport>(
        rpc_loop_.get(), clock_, options_.seed ^ 0xFA17ED, &metrics);
    if (options_.net_faults.any()) {
      rpc_wire_->ArmRates(options_.net_faults);
    }
    drc_hits_counter_ = metrics.GetCounter("rpc.server.drc_hits");
    drc_hits_before_ = drc_hits_counter_->Value();
  }

  start_ = clock_->Peek();
  horizon_ = start_ + static_cast<SimMicros>(options_.seconds * 1e6);
  last_intended_ = start_;
  size_t id = 0;
  clients_.reserve(total_clients());
  for (size_t ti = 0; ti < tenants_.size(); ++ti) {
    for (size_t k = 0; k < tenants_[ti].profile.clients; ++k) {
      Client c;
      c.tenant = ti;
      c.id = id++;
      c.rng = Rng(MixSeed(options_.seed, ti, k));
      if (options_.transport == LoadTransport::kRpc) {
        RpcClientOptions copts;
        copts.client_id = c.id + 1;  // 0 would auto-assign
        copts.clock = clock_;
        copts.metrics = &metrics;
        copts.retry = options_.rpc_retry;
        c.remote = std::make_unique<RemoteFileClient>(rpc_wire_.get(), copts);
        c.remote->set_tenant(tenants_[ti].profile.name);
      } else {
        INV_ASSIGN_OR_RETURN(c.session, fs_->NewSession());
      }
      clients_.push_back(std::move(c));
    }
  }
  // First arrivals: a uniform phase offset in [0, mean inter-arrival) — the
  // stationary start of a renewal process. (Sampling a *full* inter-arrival
  // here would push every client of a tenant whose mean exceeds the horizon
  // entirely outside it.)
  heap_.reserve(clients_.size());
  for (Client& c : clients_) {
    const double mean_us = 1e6 / tenants_[c.tenant].profile.ops_per_sec;
    const SimMicros first =
        start_ + 1 +
        c.rng.Uniform(static_cast<uint64_t>(std::max(mean_us, 2.0)));
    if (first >= horizon_) {
      continue;
    }
    c.next_intended = first;
    PushHeap(c);
  }
  setup_done_ = true;
  return Status::Ok();
}

Status LoadGen::RunOp(Client& c, uint64_t* bytes) {
  TenantState& t = tenants_[c.tenant];
  if (t.profile.kind == TenantKind::kArchive && c.ops != 0 &&
      c.ops % kArchiveMigrateEvery == 0) {
    // Migration-rule daemon pass. This is server-side work in both transport
    // modes (the rule system is the server's background daemon, not a client
    // call), so it never crosses the wire.
    Database& db = fs_->db();
    INV_ASSIGN_OR_RETURN(TxnId txn, db.Begin());
    auto fired = fs_->ApplyMigrationRules(txn);
    if (!fired.ok()) {
      (void)db.Abort(txn);
      return fired.status();
    }
    return db.Commit(txn);
  }
  if (c.remote != nullptr) {
    return RunOpOn(*c.remote, c, bytes);
  }
  return RunOpOn(*c.session, c, bytes);
}

template <typename Api>
Status LoadGen::RunOpOn(Api& s, Client& c, uint64_t* bytes) {
  TenantState& t = tenants_[c.tenant];
  switch (t.profile.kind) {
    case TenantKind::kMail: {
      // One delivered message per op: explicit transaction, one commit (the
      // fsync) per message. A bounded per-client mailbox (unlink + recreate)
      // keeps the namespace from growing without bound across long runs.
      const std::string path = t.dir + "/m" + std::to_string(c.id) + "_" +
                               std::to_string(c.ops % 8);
      std::vector<std::byte> msg(t.profile.bytes_per_op,
                                 static_cast<std::byte>(c.ops));
      INV_RETURN_IF_ERROR(s.p_begin());
      Status st = [&]() -> Status {
        INV_RETURN_IF_ERROR(IgnoreNotFound(s.unlink(path)));
        INV_ASSIGN_OR_RETURN(int fd, s.p_creat(path));
        INV_ASSIGN_OR_RETURN(int64_t n, s.p_write(fd, msg));
        *bytes += static_cast<uint64_t>(n);
        return s.p_close(fd);
      }();
      if (!st.ok()) {
        (void)s.p_abort();
        return st;
      }
      return s.p_commit();
    }
    case TenantKind::kAnalytics: {
      // Ad-hoc POSTQUEL over the shared metadata: a fileatt scan whose cost
      // grows with everyone else's file population.
      auto rs = s.Query(
          "retrieve (f.file, f.size) from f in fileatt where f.size > 1024");
      if (rs.ok()) {
        *bytes += rs->rows.size() * sizeof(int64_t) * 2;
      }
      return rs.status();
    }
    case TenantKind::kAudit: {
      // Historical open of a setup-time file: read-only time travel, pinned
      // snapshot, no locks.
      if (t.pool.empty()) {
        return Status::InvalidArgument("audit profile needs files >= 1");
      }
      const std::string& path = t.pool[c.rng.Uniform(t.pool.size())];
      INV_ASSIGN_OR_RETURN(int fd,
                           s.p_open(path, OpenMode::kRead, t.as_of));
      std::vector<std::byte> buf(t.profile.bytes_per_op);
      auto n = s.p_read(fd, buf);
      const Status close = s.p_close(fd);
      INV_RETURN_IF_ERROR(n.status());
      *bytes += static_cast<uint64_t>(*n);
      return close;
    }
    case TenantKind::kArchive: {
      // WORM: append-once bulk files (the every-Nth migration pass is hoisted
      // into RunOp — it is daemon work, not a client op).
      const std::string path = t.dir + "/a" + std::to_string(c.id) + "_" +
                               std::to_string(c.ops);
      std::vector<std::byte> blob(2 * t.profile.bytes_per_op,
                                  static_cast<std::byte>(0xA5));
      INV_ASSIGN_OR_RETURN(int fd, s.p_creat(path));
      INV_ASSIGN_OR_RETURN(int64_t n, s.p_write(fd, blob));
      *bytes += static_cast<uint64_t>(n);
      return s.p_close(fd);
    }
  }
  return Status::Internal("unreachable tenant kind");
}

bool LoadGen::Step() {
  if (heap_.empty()) {
    return false;
  }
  std::pop_heap(heap_.begin(), heap_.end(), [this](size_t a, size_t b) {
    return clients_[a].next_intended != clients_[b].next_intended
               ? clients_[a].next_intended > clients_[b].next_intended
               : a > b;
  });
  Client& c = clients_[heap_.back()];
  heap_.pop_back();
  TenantState& t = tenants_[c.tenant];

  const SimMicros intended = c.next_intended;
  if (!stalled_ && options_.stall_for != 0 &&
      intended >= start_ + options_.stall_at) {
    // Test hook: the "server" freezes here. Open-loop accounting must charge
    // the freeze to every arrival intended during it.
    clock_->Advance(options_.stall_for);
    stalled_ = true;
  }
  const SimMicros now = clock_->Peek();
  if (now < intended) {
    clock_->Advance(intended - now);  // server idle until the arrival
  }
  const uint64_t lag = now > intended ? now - intended : 0;
  t.max_lag = std::max(t.max_lag, lag);
  lag_gauge_->Set(static_cast<int64_t>(lag));

  uint64_t bytes = 0;
  Status status;
  {
    // Tag scope: every span and entry-point observation below attributes to
    // this tenant.
    ScopedTenantTag tag(t.binding.get());
    status = RunOp(c, &bytes);
  }

  // Coordinated-omission-correct latency: completion minus *intended* start,
  // in sim micros — queueing lag included.
  const uint64_t latency = clock_->Peek() - intended;
  t.lat->Observe(latency);
  t.shadow->Observe(latency);
  t.ops->Add();
  t.ops_done += 1;
  t.bytes += bytes;
  if (!status.ok()) {
    t.errors->Add();
    t.err_count += 1;
  }
  last_intended_ = std::max(last_intended_, intended);
  c.ops += 1;
  ScheduleNext(c, intended);
  sampler_->Tick(clock_->Peek());
  return true;
}

Status LoadGen::Run() {
  if (!setup_done_) {
    INV_RETURN_IF_ERROR(Setup());
  }
  while (Step()) {
  }
  // Final partial window so the run's tail shows up in the series.
  sampler_->Sample(clock_->Peek());
  return Status::Ok();
}

LoadGenReport LoadGen::Report() const {
  MetricsRegistry& metrics = fs_->db().metrics();
  LoadGenReport r;
  r.seed = options_.seed;
  r.clients = total_clients();
  r.intended_seconds = options_.seconds;
  r.sim_seconds = clock_->Peek() > start_
                      ? static_cast<double>(clock_->Peek() - start_) / 1e6
                      : 0.0;
  r.end_lag_us =
      clock_->Peek() > last_intended_ ? clock_->Peek() - last_intended_ : 0;
  r.span_drops = metrics.spans().TotalDropped() - spans_before_;
  r.samples = metrics.timeseries().SamplesTaken() - samples_before_;
  if (rpc_wire_ != nullptr) {
    r.rpc_exchanges = rpc_wire_->total_exchanges();
    r.rpc_faults = rpc_wire_->faults_fired();
    r.rpc_drc_hits = drc_hits_counter_->Value() - drc_hits_before_;
    for (const Client& c : clients_) {
      if (c.remote != nullptr) {
        r.rpc_retries += c.remote->retries();
      }
    }
  }
  for (const TenantState& t : tenants_) {
    TenantLoadStats s;
    s.tenant = t.profile.name;
    s.kind = t.profile.kind;
    s.clients = t.profile.clients;
    s.ops = t.ops_done;
    s.errors = t.err_count;
    s.bytes = t.bytes;
    s.max_lag_us = t.max_lag;
    s.slo =
        GradeSlo(t.shadow->Buckets(), t.shadow->Count(), t.profile.load_slo);
    s.slo.op = t.profile.name;
    s.slo.tenant = t.profile.name;
    s.offered_ops_per_sec =
        static_cast<double>(t.profile.clients) * t.profile.ops_per_sec;
    s.achieved_ops_per_sec =
        r.sim_seconds > 0 ? static_cast<double>(t.ops_done) / r.sim_seconds
                          : 0.0;
    r.ops += t.ops_done;
    r.errors += t.err_count;
    r.tenants.push_back(std::move(s));
  }
  return r;
}

bool LoadGenReport::AllOk() const {
  for (const TenantLoadStats& t : tenants) {
    if (t.slo.count != 0 && !t.slo.ok) {
      return false;
    }
  }
  return true;
}

std::string LoadGenReport::DumpText() const {
  std::string out;
  char buf[320];
  std::snprintf(buf, sizeof(buf),
                "loadgen: seed=%llu clients=%zu ops=%llu errors=%llu "
                "sim=%.3fs (intended %.3fs) end_lag=%lluus samples=%llu "
                "span_drops=%llu\n",
                static_cast<unsigned long long>(seed), clients,
                static_cast<unsigned long long>(ops),
                static_cast<unsigned long long>(errors), sim_seconds,
                intended_seconds, static_cast<unsigned long long>(end_lag_us),
                static_cast<unsigned long long>(samples),
                static_cast<unsigned long long>(span_drops));
  out += buf;
  if (rpc_exchanges != 0) {
    std::snprintf(buf, sizeof(buf),
                  "rpc: exchanges=%llu retries=%llu faults=%llu drc_hits=%llu\n",
                  static_cast<unsigned long long>(rpc_exchanges),
                  static_cast<unsigned long long>(rpc_retries),
                  static_cast<unsigned long long>(rpc_faults),
                  static_cast<unsigned long long>(rpc_drc_hits));
    out += buf;
  }
  std::snprintf(buf, sizeof(buf),
                "%-10s %-9s %7s %6s %5s %9s %9s %9s %9s %8s %6s %8s\n",
                "tenant", "kind", "clients", "ops", "errs", "p50us", "p99us",
                "p999us", "maxlagus", "ach/s", "burn", "verdict");
  out += buf;
  for (const TenantLoadStats& t : tenants) {
    std::snprintf(
        buf, sizeof(buf),
        "%-10s %-9s %7zu %6llu %5llu %9llu %9llu %9llu %9llu %8.1f %6.2f %8s\n",
        t.tenant.c_str(), TenantKindName(t.kind), t.clients,
        static_cast<unsigned long long>(t.ops),
        static_cast<unsigned long long>(t.errors),
        static_cast<unsigned long long>(t.slo.p50_us),
        static_cast<unsigned long long>(t.slo.p99_us),
        static_cast<unsigned long long>(t.slo.p999_us),
        static_cast<unsigned long long>(t.max_lag_us), t.achieved_ops_per_sec,
        t.slo.burn, SloVerdict(t.slo));
    out += buf;
  }
  return out;
}

std::string LoadGenReport::DumpJson() const {
  std::string out;
  char buf[768];
  std::snprintf(buf, sizeof(buf),
                "{\n  \"seed\": %llu, \"clients\": %zu, \"ops\": %llu, "
                "\"errors\": %llu,\n  \"intended_seconds\": %.6f, "
                "\"sim_seconds\": %.6f, \"end_lag_us\": %llu,\n"
                "  \"span_drops\": %llu, "
                "\"samples\": %llu,\n  \"rpc_exchanges\": %llu, "
                "\"rpc_retries\": %llu, \"rpc_faults\": %llu, "
                "\"rpc_drc_hits\": %llu,\n  \"tenants\": [\n",
                static_cast<unsigned long long>(seed), clients,
                static_cast<unsigned long long>(ops),
                static_cast<unsigned long long>(errors), intended_seconds,
                sim_seconds, static_cast<unsigned long long>(end_lag_us),
                static_cast<unsigned long long>(span_drops),
                static_cast<unsigned long long>(samples),
                static_cast<unsigned long long>(rpc_exchanges),
                static_cast<unsigned long long>(rpc_retries),
                static_cast<unsigned long long>(rpc_faults),
                static_cast<unsigned long long>(rpc_drc_hits));
  out += buf;
  for (size_t i = 0; i < tenants.size(); ++i) {
    const TenantLoadStats& t = tenants[i];
    std::snprintf(
        buf, sizeof(buf),
        "    {\"tenant\": \"%s\", \"kind\": \"%s\", \"clients\": %zu, "
        "\"ops\": %llu, \"errors\": %llu, \"bytes\": %llu,\n"
        "     \"p50_us\": %llu, \"p99_us\": %llu, \"p999_us\": %llu, "
        "\"target_p99_us\": %llu, \"max_lag_us\": %llu,\n"
        "     \"offered_ops_per_sec\": %.3f, \"achieved_ops_per_sec\": %.3f, "
        "\"ok\": %s, \"verdict\": \"%s\", \"burn\": %.4f}%s\n",
        t.tenant.c_str(), TenantKindName(t.kind), t.clients,
        static_cast<unsigned long long>(t.ops),
        static_cast<unsigned long long>(t.errors),
        static_cast<unsigned long long>(t.bytes),
        static_cast<unsigned long long>(t.slo.p50_us),
        static_cast<unsigned long long>(t.slo.p99_us),
        static_cast<unsigned long long>(t.slo.p999_us),
        static_cast<unsigned long long>(t.slo.target.p99_us),
        static_cast<unsigned long long>(t.max_lag_us), t.offered_ops_per_sec,
        t.achieved_ops_per_sec, t.slo.ok ? "true" : "false", SloVerdict(t.slo),
        t.slo.burn, i + 1 < tenants.size() ? "," : "");
    out += buf;
  }
  out += "  ]\n}\n";
  return out;
}

}  // namespace invfs

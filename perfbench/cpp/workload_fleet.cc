// fleet: open-loop Poisson arrivals in sim time, generated here from one
// thread, from the simulated clients of the load observatory's builtin
// tenant mix, spread over at most nproc RemoteFileClient stubs talking to one
// InversionServer over the metered wire. The mix: mail-like
// create+write+commit, POSTQUEL scans of fileatt, time-travel p_open+read,
// and jukebox appends with migration-rule passes. Each arrival is timed from
// its intended start, so a stall is charged to every arrival queued behind
// it. The run climbs a fixed ladder of offered rates; capacity is where the
// sim p99 crosses the limit.

#include <cmath>
#include <cstdio>

#include "perfbench/cpp/checked_api.h"
#include "perfbench/cpp/workloads.h"
#include "src/inversion/inv_fs.h"

namespace perfbench {
namespace {

enum class Kind { kMail, kScan, kAudit, kArchive, kMigrate };

// The builtin tenant profiles of src/load/loadgen.cc (BuiltinProfiles),
// copied so that a change to those profiles does not change this benchmark's
// inputs: each tenant's client count and every client's offered rate, in
// tenths of an op per sim second. An arrival comes from a client with
// probability proportional to that client's rate, which gives mail 57%,
// scans 17%, time travel 17% and archive 9% of the arrivals.
struct Tenant {
  Kind kind;
  int clients;
  int rate_tenths;
};
constexpr Tenant kTenants[] = {
    {Kind::kMail, 10, 2},     // mail: 2048 B deliveries
    {Kind::kScan, 6, 1},      // analytics
    {Kind::kAudit, 3, 2},     // audit: 4096 B historical reads
    {Kind::kArchive, 3, 1},   // archive: WORM files of 2 x 8192 B
};
constexpr int kMailSlots = 8;  // a mail client's mailbox (loadgen: ops % 8)
constexpr size_t kMailBytes = 2048;
constexpr int kPoolFiles = 4;  // the audit tenant's set-up files
constexpr size_t kPoolBytes = 4096;
// The load observatory's auditors read one snapshot. Here set-up writes each
// pool file this many times, and each time-travel read picks one version, so
// every read is checked against the bytes of the version it names.
constexpr int kPoolVersions = 4;
constexpr size_t kArchiveBytes = 2 * 8192;
constexpr int64_t kMigrateBytes = 12000;  // loadgen's cold-data threshold
constexpr int kMigrateEvery = 16;  // every 16th archive-client op is a rule pass
constexpr double kArrivalsPerRungPerSecond = 150;
constexpr char kScanQuery[] =
    "retrieve (f.file, f.size) from f in fileatt where f.size > 1024";

struct Version {
  invfs::Timestamp as_of;
  std::vector<std::byte> bytes;
};

class Fleet {
 public:
  Fleet(const RoundContext& ctx, invfs::InversionWorld& world, RoundResult* out)
      : ctx_(ctx),
        world_(world),
        clock_(world.clock()),
        stack_(world, static_cast<size_t>(std::max(1, ctx.cfg->threads))),
        out_(out),
        rng_(ctx.Seed(0)) {
    for (const Tenant& t : kTenants) {
      for (int i = 0; i < t.clients; ++i) {
        clients_.push_back(t.kind);
        weight_.push_back(t.rate_tenths);
        total_weight_ += t.rate_tenths;
      }
    }
    ops_.assign(clients_.size(), 0);
  }

  Status Setup();
  // Runs one rung: `arrivals` Poisson arrivals at `rate` per sim second.
  Status RunRung(size_t rung, double rate, int64_t arrivals);
  void FillTally(const PhaseMark& mark);
  uint64_t LiveBytes() const { return shadow_.LiveBytes(); }
  // Bytes the shadow and the version history hold.
  uint64_t BenchBytes() const;

 private:
  Status RunOp(Kind kind, invfs::RemoteFileClient& stub, int client,
               OpClass* cls, double** sim_sink);
  Status WriteVersion(invfs::RemoteFileClient& stub, const std::string& path);
  invfs::RemoteFileClient& StubFor(int client) {
    return *stack_.clients[static_cast<size_t>(client) % stack_.clients.size()];
  }
  size_t ExpectedScanRows() const;

  const RoundContext& ctx_;
  invfs::InversionWorld& world_;
  invfs::SimClock& clock_;
  RpcStack stack_;
  RoundResult* out_;
  invfs::Rng rng_;
  Shadow shadow_;
  std::vector<Kind> clients_;      // the tenant kind of each client
  std::vector<int> weight_;        // each client's rate, in tenths
  int total_weight_ = 0;
  std::vector<int64_t> ops_;       // ops each client has issued
  std::vector<std::string> pool_;
  std::map<std::string, std::vector<Version>> history_;
  int64_t archives_ = 0;
};

Status Fleet::Setup() {
  invfs::InvSession& s = world_.session();
  for (const char* dir : {"/fleet", "/fleet/mail", "/fleet/pool", "/fleet/arch"}) {
    INV_RETURN_IF_ERROR(s.mkdir(dir));
  }
  INV_RETURN_IF_ERROR(world_.fs()
                          .Query("define rule fleet_cold on fileatt where "
                                 "fileatt.size > " +
                                     std::to_string(kMigrateBytes) + " do migrate " +
                                     std::to_string(invfs::kDeviceJukebox))
                          .status());
  // Population through the stubs: a full mailbox for every mail client and
  // the audit pool's version history.
  OpClass cls;
  double* sink;
  for (int c = 0; c < static_cast<int>(clients_.size()); ++c) {
    for (int k = 0; k < kMailSlots && clients_[c] == Kind::kMail; ++k) {
      INV_RETURN_IF_ERROR(RunOp(Kind::kMail, StubFor(c), c, &cls, &sink));
      ++ops_[c];
    }
  }
  for (int i = 0; i < kPoolFiles; ++i) {
    pool_.push_back("/fleet/pool/p" + std::to_string(i));
    for (int v = 0; v < kPoolVersions; ++v) {
      INV_RETURN_IF_ERROR(WriteVersion(StubFor(i), pool_.back()));
    }
  }
  // Warm-up: one scan, a few historical reads, and one archive file
  // migrated, so the jukebox's first platter load (seconds of
  // sim time) happens here and not inside the first rung.
  INV_RETURN_IF_ERROR(RunOp(Kind::kScan, StubFor(0), 0, &cls, &sink));
  INV_RETURN_IF_ERROR(RunOp(Kind::kArchive, StubFor(0), 0, &cls, &sink));
  INV_RETURN_IF_ERROR(RunOp(Kind::kMigrate, StubFor(0), 0, &cls, &sink));
  for (int i = 0; i < kPoolFiles; ++i) {
    INV_RETURN_IF_ERROR(RunOp(Kind::kAudit, StubFor(i), i, &cls, &sink));
  }
  out_->create_bytes = out_->create_sim_s = 0;
  out_->read_bytes = out_->read_sim_s = 0;
  out_->write_bytes = out_->write_sim_s = 0;
  out_->tally = LayerTally{};
  return Status::Ok();
}

uint64_t Fleet::BenchBytes() const {
  uint64_t n = shadow_.LiveBytes();
  for (const auto& [path, versions] : history_) {
    for (const Version& v : versions) {
      n += v.bytes.size();
    }
  }
  return n;
}

size_t Fleet::ExpectedScanRows() const {
  size_t n = 0;
  for (const auto& [path, bytes] : shadow_.files()) {
    n += bytes.size() > 1024 ? 1 : 0;
  }
  return n;
}

// Overwrites a pool file in one transaction and records the new version.
Status Fleet::WriteVersion(invfs::RemoteFileClient& stub, const std::string& path) {
  const auto bytes = MakeBytes(kPoolBytes, rng_.Next());
  INV_RETURN_IF_ERROR(stub.p_begin());
  INV_ASSIGN_OR_RETURN(int fd, shadow_.Has(path)
                                   ? stub.p_open(path, invfs::OpenMode::kWrite)
                                   : stub.p_creat(path));
  INV_RETURN_IF_ERROR(stub.p_write(fd, bytes).status());
  INV_RETURN_IF_ERROR(stub.p_close(fd));
  INV_RETURN_IF_ERROR(stub.p_commit());
  shadow_.Create(path);
  shadow_.Write(path, 0, bytes);
  // A timestamp after this commit and before the next one names exactly
  // this version for time travel.
  history_[path].push_back({world_.db().Now(), bytes});
  return Status::Ok();
}

Status Fleet::RunOp(Kind kind, invfs::RemoteFileClient& stub, int client,
                    OpClass* cls, double** sim_sink) {
  Spanned<invfs::RemoteFileClient> c(&stub, "rpc_client");
  switch (kind) {
    case Kind::kMail: {
      // One delivered message replaces the oldest of the client's mailbox
      // slots, in one transaction: a write and its commit.
      SpanScope op("bench", "fleet.mail");
      const std::string path = "/fleet/mail/u" + std::to_string(client) + "_" +
                               std::to_string(ops_[client] % kMailSlots);
      const auto bytes = MakeBytes(kMailBytes, rng_.Next());
      INV_RETURN_IF_ERROR(c.p_begin());
      if (shadow_.Has(path)) {
        INV_RETURN_IF_ERROR(c.unlink(path));
      }
      INV_ASSIGN_OR_RETURN(int fd, c.p_creat(path));
      INV_RETURN_IF_ERROR(c.p_write(fd, bytes).status());
      INV_RETURN_IF_ERROR(c.p_close(fd));
      INV_RETURN_IF_ERROR(c.p_commit());
      shadow_.Create(path);
      shadow_.Write(path, 0, bytes);
      out_->write_bytes += static_cast<double>(bytes.size());
      *cls = OpClass::kWrite;
      *sim_sink = &out_->write_sim_s;
      return Status::Ok();
    }
    case Kind::kScan: {
      SpanScope op("bench", "fleet.scan");
      const int64_t t0 = WallNanos();
      Result<invfs::ResultSet> rs = c.Query(kScanQuery);
      out_->tally.queries += 1;
      out_->tally.query_wall_us += static_cast<double>(WallNanos() - t0) / 1e3;
      INV_RETURN_IF_ERROR(rs.status());
      out_->tally.query_rows += rs->rows.size();
      *cls = OpClass::kOther;
      *sim_sink = nullptr;
      if (rs->rows.size() != ExpectedScanRows()) {
        return Status::Corruption("fleet: scan row count differs from the shadow");
      }
      return Status::Ok();
    }
    case Kind::kAudit: {
      SpanScope op("bench", "fleet.audit");
      const std::string& path = pool_[rng_.Uniform(pool_.size())];
      const std::vector<Version>& versions = history_.at(path);
      const Version& v = versions[rng_.Uniform(versions.size())];
      std::vector<std::byte> buf(kPoolBytes);
      Result<int64_t> n = [&]() -> Result<int64_t> {
        INV_ASSIGN_OR_RETURN(int fd, c.p_open(path, invfs::OpenMode::kRead, v.as_of));
        auto got = c.p_read(fd, buf);
        INV_RETURN_IF_ERROR(c.p_close(fd));
        return got;
      }();
      INV_RETURN_IF_ERROR(n.status());
      const std::span<std::byte> got(buf.data(), static_cast<size_t>(*n));
      MaybeCorrupt(got);
      if (got.size() != v.bytes.size() ||
          !std::equal(got.begin(), got.end(), v.bytes.begin())) {
        return Status::Corruption("fleet: time-travel read differs from history");
      }
      out_->read_bytes += static_cast<double>(*n);
      *cls = OpClass::kRead;
      *sim_sink = &out_->read_sim_s;
      return Status::Ok();
    }
    case Kind::kArchive: {
      SpanScope op("bench", "fleet.archive");
      const std::string path = "/fleet/arch/a" + std::to_string(archives_++);
      const auto bytes = MakeBytes(kArchiveBytes, rng_.Next());
      {
        INV_RETURN_IF_ERROR(c.p_begin());
        INV_ASSIGN_OR_RETURN(int fd, c.p_creat(path));
        INV_RETURN_IF_ERROR(c.p_write(fd, bytes).status());
        INV_RETURN_IF_ERROR(c.p_close(fd));
        INV_RETURN_IF_ERROR(c.p_commit());
      }
      shadow_.Create(path);
      shadow_.Write(path, 0, bytes);
      out_->create_bytes += static_cast<double>(bytes.size());
      *cls = OpClass::kWrite;
      *sim_sink = &out_->create_sim_s;
      return Status::Ok();
    }
    case Kind::kMigrate: {
      // The rule system is the server's daemon: in-process, never on the wire.
      SpanScope op("bench", "fleet.migrate");
      const int64_t t0 = WallNanos();
      Result<int> fired = Call("rules", "ApplyMigrationRules", [&]() -> Result<int> {
        INV_ASSIGN_OR_RETURN(invfs::TxnId txn, world_.db().Begin());
        auto r = world_.fs().ApplyMigrationRules(txn);
        if (!r.ok()) {
          (void)world_.db().Abort(txn);
          return r;
        }
        INV_RETURN_IF_ERROR(world_.db().Commit(txn));
        return r;
      });
      out_->tally.rule_passes += 1;
      out_->tally.rules_wall_us += static_cast<double>(WallNanos() - t0) / 1e3;
      INV_RETURN_IF_ERROR(fired.status());
      out_->tally.migrations += static_cast<uint64_t>(*fired);
      *cls = OpClass::kDaemon;
      *sim_sink = nullptr;
      return Status::Ok();
    }
  }
  return Status::Internal("unreachable");
}

Status Fleet::RunRung(size_t rung, double rate, int64_t arrivals) {
  const bool reference = rung == FleetLadder::kReferenceRung;
  std::vector<double>& lat = out_->rung_sim_us[rung];
  invfs::SimMicros intended = clock_.Peek() + 1'000'000;  // idle gap
  for (int64_t i = 0; i < arrivals; ++i) {
    intended += static_cast<invfs::SimMicros>(
        std::max(1.0, -std::log(1.0 - rng_.NextDouble()) * 1e6 / rate));
    // The arriving client, with probability proportional to its rate.
    int client = 0;
    for (int w = static_cast<int>(rng_.Uniform(total_weight_)); w >= weight_[client];
         ++client) {
      w -= weight_[client];
    }
    Kind kind = clients_[client];
    // As in the load observatory, every kMigrateEvery-th op of an archive
    // client is the migration daemon's pass instead of an append.
    if (kind == Kind::kArchive && ops_[client] != 0 &&
        ops_[client] % kMigrateEvery == 0) {
      kind = Kind::kMigrate;
    }
    const invfs::SimMicros now = clock_.Peek();
    if (now < intended) {
      clock_.Advance(intended - now);  // the server idles until the arrival
    }
    const invfs::SimMicros started = clock_.Peek();
    CallClock::Reset();
    OpClass cls = OpClass::kOther;
    double* sim_sink = nullptr;
    const Status st = RunOp(kind, StubFor(client), client, &cls, &sim_sink);
    ++ops_[client];
    if (!st.ok()) {
      std::fprintf(stderr, "perfbench: fleet op failed: %s\n", st.ToString().c_str());
    }
    const double wall = CallClock::TakeMicros();
    // Coordinated-omission-correct: from the intended start, queueing included.
    const double latency = static_cast<double>(clock_.Peek() - intended);
    lat.push_back(latency);
    out_->rec.Add(cls, wall, reference ? std::optional<double>(latency) : std::nullopt,
                  st.ok());
    if (sim_sink != nullptr) {
      *sim_sink += static_cast<double>(clock_.Peek() - started) / 1e6;
    }
  }
  out_->rung_end_lag_us[rung] = static_cast<double>(clock_.Peek() - intended);
  return Status::Ok();
}

void Fleet::FillTally(const PhaseMark& mark) {
  LayerTally& t = out_->tally;
  t.ops = out_->rec.attempted;
  CloseTally(world_, mark, &t);
  t.exchanges = stack_.wire->exchanges();
  t.net_bytes = stack_.wire->bytes();
  t.net_sim_us = stack_.wire->wire_sim_us();
  t.user_bytes_written =
      static_cast<uint64_t>(out_->create_bytes + out_->write_bytes);
}

}  // namespace

Status FleetRound(const RoundContext& ctx, RoundResult* out) {
  const size_t rungs = std::size(FleetLadder::kRates);
  out->rung_sim_us.assign(rungs, {});
  out->rung_end_lag_us.assign(rungs, 0);
  INV_ASSIGN_OR_RETURN(auto world, invfs::InversionWorld::Create());
  Fleet fleet(ctx, *world, out);
  INV_RETURN_IF_ERROR(fleet.Setup());
  out->setup_s = static_cast<double>(WallNanos() - ctx.setup_origin_ns) / 1e9;
  const int64_t arrivals = ctx.Share(kArrivalsPerRungPerSecond);

  Tracer::Install(ctx.tracer);
  const PhaseMark mark = PhaseMark::Take(*world);
  for (size_t k = 0; k < rungs; ++k) {
    INV_RETURN_IF_ERROR(fleet.RunRung(k, FleetLadder::kRates[k], arrivals));
  }
  Tracer::Install(nullptr);
  out->phase_ops = out->rec.attempted;
  out->phase_wall_s = out->rec.busy_wall_us / 1e6;
  if (ctx.tracer != nullptr) {
    fleet.FillTally(mark);
  }
  out->image_ok = VerifyWorld(*world, "fleet");
  out->device_bytes = static_cast<double>(DeviceBytes(world->env()));
  out->live_bytes = static_cast<double>(fleet.LiveBytes());
  out->bench_bytes = static_cast<double>(fleet.BenchBytes());
  return Status::Ok();
}

}  // namespace perfbench

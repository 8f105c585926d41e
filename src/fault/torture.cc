#include "src/fault/torture.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <set>

#include "src/fault/crash_points.h"
#include "src/fault/fault_device.h"
#include "src/fault/faulty_transport.h"
#include "src/harness/worlds.h"
#include "src/load/loadgen.h"
#include "src/util/random.h"

namespace invfs {
namespace {

constexpr char kRoot[] = "/t";
constexpr uint64_t kWorkloadClientId = 11;
// Load-driver arrivals pumped between consecutive plan steps (under load).
constexpr int kLoadStepsPerStep = 2;
constexpr NetFaultSpec::Kind kWireKinds[] = {
    NetFaultSpec::Kind::kDropRequest, NetFaultSpec::Kind::kDropResponse,
    NetFaultSpec::Kind::kDuplicateRequest,
    NetFaultSpec::Kind::kTruncateResponse, NetFaultSpec::Kind::kReset,
};

// ---- plan ------------------------------------------------------------------

struct PlannedOp {
  enum Kind : uint8_t { kCreate, kAppend, kOverwrite, kRename, kUnlink };
  Kind kind = kCreate;
  int a = 0;         // file index
  int b = 0;         // rename target index
  uint32_t len = 0;  // payload bytes
  uint64_t tag = 0;  // payload seed
  uint64_t off = 0;  // overwrite offset selector
};

struct Step {
  bool batch = false;  // explicit p_begin/p_commit around the ops; else
                       // each op auto-commits
  std::vector<PlannedOp> ops;
};

using Plan = std::vector<Step>;

std::string FileName(int i) {
  return std::string(kRoot) + "/f" + std::to_string(i);
}

// Distinctive payloads: a duplicated append of the same chunk is content the
// oracle can see, so the fill varies per (tag, position).
std::string Payload(uint64_t tag, uint32_t len) {
  std::string out(len, '\0');
  uint64_t x = tag | 1;
  for (char& c : out) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    c = static_cast<char>(x >> 33);
  }
  return out;
}

// The plan depends only on the options: a planning model tracks which names
// exist so every op is well-formed on an unfaulted run. A fault that makes
// an op fail makes later ops on that name fail too, which the mirror absorbs.
Plan MakePlan(const TortureOptions& opt) {
  Rng rng(opt.seed * 0x9E3779B9ULL + 17);
  std::set<int> exists;
  // A random index that does (or does not) exist; -1 when there is none.
  auto pick = [&](bool present) {
    std::vector<int> pool;
    for (int i = 0; i < opt.max_files; ++i) {
      if (exists.contains(i) == present) {
        pool.push_back(i);
      }
    }
    return pool.empty() ? -1 : pool[rng.Uniform(pool.size())];
  };
  Plan plan(static_cast<size_t>(opt.transactions));
  for (Step& step : plan) {
    step.batch = rng.Uniform(2) == 0;
    const uint64_t nops = 1 + rng.Uniform(3);
    for (uint64_t k = 0; k < nops; ++k) {
      PlannedOp op;
      op.tag = rng.Next();
      op.off = rng.Next();
      // Creates on a 35% roll, as write-heavy as the plan must be for the
      // fileatt index to split (Torture.CreateHeavyPlanReachesBTreeSplit).
      const uint64_t roll = rng.Uniform(100);
      const int absent = pick(false);
      if (exists.empty() || (roll < 35 && absent >= 0)) {
        op.kind = PlannedOp::kCreate;
        op.a = absent;
        op.len = 1 + static_cast<uint32_t>(rng.Uniform(9000));
        exists.insert(op.a);
      } else if (roll < 45 && exists.size() > 1) {
        op.kind = PlannedOp::kUnlink;
        op.a = pick(true);
        exists.erase(op.a);
      } else if (roll < 55 && absent >= 0) {
        op.kind = PlannedOp::kRename;
        op.a = pick(true);
        op.b = absent;
        exists.erase(op.a);
        exists.insert(op.b);
      } else {
        op.kind = roll < 75 ? PlannedOp::kAppend : PlannedOp::kOverwrite;
        op.a = pick(true);
        op.len = 1 + static_cast<uint32_t>(rng.Uniform(6000));
      }
      step.ops.push_back(op);
    }
  }
  return plan;
}

// ---- executor and mirror ---------------------------------------------------

// Expected file-system state under kRoot: path -> full contents.
using FileState = std::map<std::string, std::string>;

void ApplyWrite(std::string* content, size_t off, const std::string& data) {
  if (off + data.size() > content->size()) {
    content->resize(off + data.size());
  }
  content->replace(off, data.size(), data);
}

std::span<const std::byte> AsBytes(const std::string& s) {
  return {reinterpret_cast<const std::byte*>(s.data()), s.size()};
}

struct RunOutcome {
  FileState acked;      // every acked call's effect
  FileState landed;     // acked, plus the halted call's effect had it landed
  bool halted = false;  // a device halt stopped the run mid-plan
  uint64_t acked_calls = 0;
  uint64_t failed_calls = 0;
  // The first call that failed while no fault had fired (a device halt
  // stops the run first; a wire fault is counted when it fires), if any.
  std::string unprovoked;
};

// Executes a plan through one client -- InvSession in-process or
// RemoteFileClient over the wire -- and mirrors what it was acked. A call's
// effect enters the mirror when the client sees it acked (inside a batch,
// when the p_commit acks). The run stops at the first call a device halt
// overlaps: nothing issued after a halt could reach the frozen image.
template <typename Client>
class Executor {
 public:
  Executor(Client* client, const FaultInjector* injector,
           const FaultyTransport* wire, LoadGen* load)
      : c_(client), injector_(injector), wire_(wire), load_(load) {}

  RunOutcome Run(const Plan& plan) {
    for (const Step& step : plan) {
      // Foreign tenant traffic runs between steps, never inside a batch:
      // every load op is transaction-complete, so the interleaving cannot
      // deadlock. Never pump after a halt: a commit the halt interrupted
      // died holding its locks, and the next op would wait on them forever.
      for (int k = 0; load_ != nullptr && k < kLoadStepsPerStep && !Halted();
           ++k) {
        if (!load_->Step()) {
          break;
        }
      }
      if (Halted()) {
        break;
      }
      if (step.batch) {
        Batch(step);
      } else {
        for (const PlannedOp& op : step.ops) {
          Op(op);
          if (out_.halted) {
            break;
          }
        }
      }
      if (out_.halted) {
        break;
      }
    }
    if (!out_.halted) {
      out_.landed = out_.acked;
    }
    return std::move(out_);
  }

 private:
  using Effect = std::function<void(FileState&)>;

  // Once the device has halted, record what the interrupted call leaves if
  // it landed -- an auto-commit call's effect, or the batch staged by
  // p_commit; a call inside an open batch cannot land alone -- and return
  // true.
  bool Halted(const Effect& effect = nullptr, bool commit = false) {
    if (!injector_->crashed()) {
      return false;
    }
    out_.halted = true;
    out_.landed = commit ? *batch_ : out_.acked;
    if (!batch_ && effect) {
      effect(out_.landed);
    }
    return true;
  }

  // Account for a call that returned `st`; `effect` is what it does to the
  // file state. Returns whether it acked (never after a halt).
  bool Acked(const Status& st, const Effect& effect = nullptr,
             bool commit = false) {
    if (Halted(effect, commit)) {
      return false;
    }
    if (!st.ok()) {
      ++out_.failed_calls;
      if (wire_->faults_fired() == 0 && out_.unprovoked.empty()) {
        out_.unprovoked = st.ToString();
      }
      return false;
    }
    ++out_.acked_calls;
    if (effect) {
      effect(batch_ ? *batch_ : out_.acked);
    }
    if (commit) {
      out_.acked = std::move(*batch_);
      batch_.reset();
    }
    return true;
  }

  void Batch(const Step& step) {
    if (!Acked(c_->p_begin())) {
      return;
    }
    batch_ = out_.acked;
    bool ok = true;
    for (const PlannedOp& op : step.ops) {
      if (!(ok = Op(op))) {
        break;
      }
    }
    if ((ok && Acked(c_->p_commit(), nullptr, /*commit=*/true)) ||
        out_.halted) {
      return;
    }
    batch_.reset();
    Acked(c_->p_abort());
  }

  // Returns whether every call of the op acked.
  bool Op(const PlannedOp& op) {
    const std::string path = FileName(op.a);
    switch (op.kind) {
      case PlannedOp::kCreate: {
        auto fd = c_->p_creat(path);
        if (!Acked(fd.status(), [&](FileState& s) { s[path].clear(); })) {
          return false;
        }
        return WriteAndClose(*fd, path, 0, op);
      }
      case PlannedOp::kAppend:
      case PlannedOp::kOverwrite: {
        int64_t off = -1;  // append: at the end of file
        if (op.kind == PlannedOp::kOverwrite) {
          // Within the mirrored size, so writes both replace and extend.
          const FileState& s = batch_ ? *batch_ : out_.acked;
          const auto it = s.find(path);
          off = it == s.end() ? 0
                              : static_cast<int64_t>(
                                    op.off % (it->second.size() + 1));
        }
        auto fd = c_->p_open(path, OpenMode::kWrite);
        if (!Acked(fd.status())) {
          return false;
        }
        return WriteAndClose(*fd, path, off, op);
      }
      case PlannedOp::kRename: {
        const std::string to = FileName(op.b);
        return Acked(c_->rename(path, to), [&](FileState& s) {
          auto node = s.extract(path);
          if (!node.empty()) {
            node.key() = to;
            s.insert(std::move(node));
          }
        });
      }
      case PlannedOp::kUnlink:
        return Acked(c_->unlink(path), [&](FileState& s) { s.erase(path); });
    }
    return false;
  }

  // Seek to `off` (negative: the end of file), write the op's payload, and
  // close the fd.
  bool WriteAndClose(int fd, const std::string& path, int64_t off,
                     const PlannedOp& op) {
    const std::string data = Payload(op.tag, op.len);
    auto pos = off < 0 ? c_->p_lseek(fd, 0, Whence::kEnd)
                       : c_->p_lseek(fd, off, Whence::kSet);
    bool ok = Acked(pos.status());
    if (ok) {
      auto n = c_->p_write(fd, AsBytes(data));
      ok = Acked(n.status(), [&](FileState& s) {
        auto it = s.find(path);
        if (it != s.end()) {
          ApplyWrite(&it->second,
                     off < 0 ? it->second.size() : static_cast<size_t>(off),
                     data);
        }
      });
    }
    if (out_.halted) {
      return false;
    }
    return Acked(c_->p_close(fd)) && ok;
  }

  Client* c_;
  const FaultInjector* injector_;
  const FaultyTransport* wire_;
  LoadGen* load_;
  RunOutcome out_;
  std::optional<FileState> batch_;  // acked + the open batch's acked calls
};

// ---- judge -----------------------------------------------------------------

// The actual state under kRoot through a fresh session: readdir, then p_read
// until EOF.
Result<FileState> ReadState(InversionFs& fs) {
  INV_ASSIGN_OR_RETURN(auto session, fs.NewSession());
  INV_ASSIGN_OR_RETURN(auto entries, session->readdir(kRoot));
  FileState actual;
  std::vector<std::byte> buf(8192);
  for (const DirEntry& e : entries) {
    const std::string path = std::string(kRoot) + "/" + e.name;
    INV_ASSIGN_OR_RETURN(int fd, session->p_open(path, OpenMode::kRead));
    std::string& content = actual[path];
    for (;;) {
      INV_ASSIGN_OR_RETURN(int64_t n, session->p_read(fd, buf));
      if (n == 0) {
        break;
      }
      content.append(reinterpret_cast<const char*>(buf.data()),
                     static_cast<size_t>(n));
    }
    INV_RETURN_IF_ERROR(session->p_close(fd));
  }
  return actual;
}

std::string DescribeDiff(const FileState& expect, const FileState& actual) {
  for (const auto& [path, content] : expect) {
    auto it = actual.find(path);
    if (it == actual.end()) {
      return path + " missing (expected " + std::to_string(content.size()) +
             " bytes)";
    }
    if (it->second != content) {
      return path + " content mismatch (expected " +
             std::to_string(content.size()) + " bytes, got " +
             std::to_string(it->second.size()) + ")";
    }
  }
  for (const auto& [path, content] : actual) {
    if (!expect.contains(path)) {
      return path + " present (" + std::to_string(content.size()) +
             " bytes) but should not exist";
    }
  }
  return "";
}

// The one judge, for the recording pass and every schedule of both domains.
// Returns "" on pass, else what failed:
//   * no call failed before a fault fired: the run up to the fault is the
//     recording pass, where every call acks;
//   * invfs_check finds nothing but crash residue (uncataloged relations,
//     index entries past a heap's persisted end), and after an unfaulted
//     run nothing at all;
//   * no relation is locked and no transaction active;
//   * the files equal the acked mirror, or the landed state of the call a
//     halt overlapped.
std::string Judge(InversionFs& fs, StorageEnv& env, const RunOutcome& out,
                  bool faulted) {
  if (!out.unprovoked.empty()) {
    return "a call failed before any fault fired: " + out.unprovoked;
  }
  Database& db = fs.db();
  if (Status fl = db.FlushCaches(); !fl.ok()) {
    return "flush failed: " + fl.ToString();
  }
  auto check = CheckImage(env);
  if (!check.ok()) {
    return "invfs_check errored: " + check.status().ToString();
  }
  for (const Violation& v : check->violations) {
    if (!faulted || !v.residue) {
      return "invfs_check found " + std::to_string(check->violations.size()) +
             " violations; first " + (faulted ? "non-residue: " : "") +
             v.ToString();
    }
  }
  if (const size_t n = db.locks().NumLockedRelations(); n != 0) {
    return "orphaned locks: " + std::to_string(n) + " relations still locked";
  }
  if (const size_t n = db.txns().ActiveTxnCount(); n != 0) {
    return "orphaned transactions: " + std::to_string(n) + " still active";
  }
  auto actual = ReadState(fs);
  if (!actual.ok()) {
    return "reading state failed: " + actual.status().ToString();
  }
  const std::string vs_acked = DescribeDiff(out.acked, *actual);
  if (vs_acked.empty()) {
    return "";
  }
  if (out.landed == out.acked) {
    return "oracle failed: " + vs_acked;
  }
  const std::string vs_landed = DescribeDiff(out.landed, *actual);
  if (vs_landed.empty()) {
    return "";  // the in-flight call landed in full: also legal
  }
  return "oracle failed (matches neither side of the in-flight call): "
         "vs-acked: " + vs_acked + "; vs-landed: " + vs_landed;
}

// ---- rig and schedules -----------------------------------------------------

// One world per pass: the engine over a fault-injecting device stack, an RPC
// server behind a faulty wire, and (under load) the load driver. Both fault
// hooks are always present; a schedule arms one.
struct Rig {
  explicit Rig(uint64_t seed) : injector(seed) {}

  FaultInjector injector;
  std::unique_ptr<InversionWorld> world;
  std::unique_ptr<InversionServer> server;
  std::unique_ptr<NetModel> net;
  std::unique_ptr<LoopbackTransport> loop;
  std::unique_ptr<FaultyTransport> wire;
  std::unique_ptr<RemoteFileClient> remote;
  std::unique_ptr<LoadGen> load;
};

Result<std::unique_ptr<Rig>> OpenRig(const TortureOptions& opt) {
  auto rig = std::make_unique<Rig>(opt.seed);
  WorldOptions wopt;
  wopt.db.buffers = opt.buffers;
  wopt.db.fault_injector = &rig->injector;
  INV_ASSIGN_OR_RETURN(rig->world, InversionWorld::Create(wopt));
  InversionWorld& w = *rig->world;
  rig->server = std::make_unique<InversionServer>(&w.fs());
  rig->net = std::make_unique<NetModel>(&w.clock(), NetParams{});
  rig->loop = std::make_unique<LoopbackTransport>(rig->server.get(),
                                                  rig->net.get());
  rig->wire = std::make_unique<FaultyTransport>(
      rig->loop.get(), &w.clock(), opt.seed, &w.db().metrics());
  RpcClientOptions copts;
  copts.client_id = kWorkloadClientId;
  copts.clock = &w.clock();
  copts.metrics = &w.db().metrics();
  rig->remote = std::make_unique<RemoteFileClient>(rig->wire.get(), copts);
  INV_RETURN_IF_ERROR(w.session().mkdir(kRoot));
  if (opt.under_load) {
    LoadGenOptions lopt;
    lopt.seed = opt.seed;
    // A horizon far beyond what the sweep pumps, so the driver never runs
    // dry mid-schedule and every replay pops the identical arrivals.
    lopt.seconds = 600.0;
    rig->load = std::make_unique<LoadGen>(&w.fs(), lopt);
    INV_RETURN_IF_ERROR(rig->load->Setup());
  }
  return rig;
}

// Domain hook 1: which client drives the plan.
RunOutcome Execute(const TortureOptions& opt, const Plan& plan, Rig& rig) {
  if (opt.domain == FaultDomain::kWire) {
    return Executor(rig.remote.get(), &rig.injector, rig.wire.get(),
                    rig.load.get())
        .Run(plan);
  }
  return Executor(&rig.world->session(), &rig.injector, rig.wire.get(),
                  rig.load.get())
      .Run(plan);
}

struct Schedule {
  enum class Kind : uint8_t { kCrashPoint, kDeviceWrite, kWire };
  Kind kind = Kind::kCrashPoint;
  std::string site;  // crash point, "device.write", or wire fault kind name
  NetFaultSpec::Kind wire = NetFaultSpec::Kind::kDropRequest;
  uint64_t at = 0;   // 1-based occurrence of the site

  std::string Name() const { return site + "#" + std::to_string(at); }
};

void Arm(const Schedule& s, Rig& rig) {
  switch (s.kind) {
    case Schedule::Kind::kCrashPoint:
      CrashPointRegistry::Instance().Arm(
          s.site, s.at, [injector = &rig.injector] { injector->Crash(); });
      break;
    case Schedule::Kind::kDeviceWrite: {
      FaultSpec spec;
      spec.kind = FaultSpec::Kind::kCrash;
      spec.op = FaultSpec::Op::kWrite;
      spec.at = s.at;
      rig.injector.ArmOne(spec);
      break;
    }
    case Schedule::Kind::kWire: {
      NetFaultSpec spec;
      spec.kind = s.wire;
      spec.at = s.at;
      rig.wire->ArmOne(spec);
      break;
    }
  }
}

// The occurrences of a site recorded `count` times to arm: every
// max(1, count / want)-th from the first, plus the last (a fault in the
// plan's final commit or flush). That is all of them when count <= want,
// else at least `want` and at most 2 * want evenly spaced positions; nothing
// when either is 0.
std::vector<uint64_t> Spread(uint64_t count, uint64_t want) {
  std::vector<uint64_t> at;
  if (want == 0) {
    return at;
  }
  const uint64_t stride = std::max<uint64_t>(1, count / want);
  for (uint64_t n = 1; n <= count; n += stride) {
    at.push_back(n);
  }
  if (!at.empty() && at.back() != count) {
    at.push_back(count);
  }
  return at;
}

// Domain hook 2: which sites a schedule can arm.
std::vector<Schedule> Enumerate(const TortureOptions& opt,
                                const TortureReport& rec) {
  std::vector<Schedule> out;
  auto add = [&](Schedule s, uint64_t count, uint64_t want) {
    for (uint64_t at : Spread(count, want)) {
      s.at = at;
      out.push_back(s);
    }
  };
  if (opt.domain == FaultDomain::kWire) {
    for (NetFaultSpec::Kind kind : kWireKinds) {
      add({Schedule::Kind::kWire, NetFaultKindName(kind), kind},
          rec.recorded_exchanges, opt.occurrences_per_point);
    }
  } else {
    for (const auto& [point, count] : rec.crash_points) {
      add({Schedule::Kind::kCrashPoint, point}, count,
          opt.occurrences_per_point);
    }
    add({Schedule::Kind::kDeviceWrite, "device.write"}, rec.recorded_writes,
        opt.write_sweep_schedules);
  }
  return out;
}

// Freeze the halted image, reopen it (Database::Open *is* recovery: there is
// no log replay), and judge what recovery shows.
std::string RecoverAndJudge(std::unique_ptr<Rig> rig, const RunOutcome& out) {
  InversionWorld& w = *rig->world;
  w.db().Crash();
  auto* disk = dynamic_cast<MemBlockStore*>(w.env().disk_store.get());
  auto* nvram = dynamic_cast<MemBlockStore*>(w.env().nvram_store.get());
  auto* jukebox = dynamic_cast<MemBlockStore*>(w.env().jukebox_store.get());
  if (disk == nullptr || nvram == nullptr || jukebox == nullptr) {
    return "torture requires MemBlockStore-backed worlds";
  }
  StorageEnv renv;
  renv.disk_store = disk->Clone();
  renv.nvram_store = nvram->Clone();
  renv.jukebox_store = jukebox->Clone();
  // Simulated time continues past the crash; without this, new snapshots in
  // the reopened database would predate already-committed timestamps.
  renv.clock.Advance(w.env().clock.Peek());
  rig.reset();
  auto db = Database::Open(&renv);
  if (!db.ok()) {
    return "recovery failed: " + db.status().ToString();
  }
  InversionFs fs(db->get());
  if (Status ms = fs.Mount(); !ms.ok()) {
    return "remount failed: " + ms.ToString();
  }
  return Judge(fs, renv, out, /*faulted=*/true);
}

// Run one schedule end to end; returns "" on pass, else the failure.
std::string RunSchedule(const TortureOptions& opt, const Plan& plan,
                        const Schedule& sched, TortureReport* report) {
  auto rig_or = OpenRig(opt);
  if (!rig_or.ok()) {
    return "world setup failed: " + rig_or.status().ToString();
  }
  std::unique_ptr<Rig> rig = std::move(*rig_or);
  Arm(sched, *rig);  // after setup: bootstrap traffic is not part of it
  const RunOutcome out = Execute(opt, plan, *rig);
  CrashPointRegistry::Instance().Disarm();
  rig->wire->Disarm();
  report->acked_calls += out.acked_calls;
  report->failed_calls += out.failed_calls;
  report->retries += rig->remote->retries();
  if (!rig->injector.crashed() && rig->wire->faults_fired() == 0) {
    // Nothing fired: the run must be as clean as the recording pass.
    ++report->not_reached;
    return Judge(rig->world->fs(), rig->world->env(), out, /*faulted=*/false);
  }
  ++report->fired[sched.site];
  if (out.landed != out.acked) {
    ++report->in_flight;
  }
  // Domain hook 3: the device domain judges the recovered image, the wire
  // domain the live world.
  if (opt.domain == FaultDomain::kWire) {
    return Judge(rig->world->fs(), rig->world->env(), out, /*faulted=*/true);
  }
  return RecoverAndJudge(std::move(rig), out);
}

}  // namespace

const char* FaultDomainName(FaultDomain domain) {
  return domain == FaultDomain::kWire ? "wire" : "device";
}

uint64_t TortureReport::fired_total() const {
  uint64_t n = 0;
  for (const auto& [site, count] : fired) {
    n += count;
  }
  return n;
}

std::string TortureReport::Summary() const {
  std::string s = std::string("torture[") + FaultDomainName(domain) + "]: " +
                  std::to_string(schedules) + " schedules, " +
                  std::to_string(fired_total()) + " fired (" +
                  std::to_string(in_flight) + " in flight, " +
                  std::to_string(not_reached) + " not reached); recorded " +
                  std::to_string(recorded_writes) + " device writes, " +
                  std::to_string(recorded_exchanges) + " wire exchanges; " +
                  std::to_string(acked_calls) + " acked / " +
                  std::to_string(failed_calls) + " failed calls, " +
                  std::to_string(retries) + " retries; " +
                  std::to_string(failures.size()) + " failures";
  if (load_ops != 0) {
    s += " [under load: " + std::to_string(load_ops) + " tenant ops/pass]";
  }
  for (const std::string& f : failures) {
    s += "\n  FAIL " + f;
  }
  return s;
}

Result<TortureReport> RunTorture(const TortureOptions& opt) {
  if (opt.transactions <= 0 || opt.max_files <= 0 || opt.buffers == 0) {
    return Status::InvalidArgument(
        "torture needs positive transaction, file and buffer counts");
  }
  if (opt.under_load && opt.domain == FaultDomain::kWire) {
    return Status::InvalidArgument("load runs in the device domain only");
  }
  const Plan plan = MakePlan(opt);
  TortureReport report;
  report.domain = opt.domain;

  // ---- recording pass ------------------------------------------------------
  {
    INV_ASSIGN_OR_RETURN(std::unique_ptr<Rig> rig, OpenRig(opt));
    CrashPointRegistry::Instance().StartRecording();
    rig->injector.Arm({});  // count device writes from here
    const RunOutcome out = Execute(opt, plan, *rig);
    report.crash_points = CrashPointRegistry::Instance().StopRecording();
    report.recorded_writes = rig->injector.writes_since_arm();
    report.recorded_exchanges = rig->wire->total_exchanges();
    if (rig->load != nullptr) {
      const LoadGenReport lr = rig->load->Report();
      report.load_ops = lr.ops;
      if (lr.errors != 0) {
        return Status::Internal("recording pass: load traffic saw " +
                                std::to_string(lr.errors) + " errors");
      }
    }
    // A model or engine bug here would indict every schedule.
    const std::string verdict = Judge(rig->world->fs(), rig->world->env(),
                                      out, /*faulted=*/false);
    if (!verdict.empty()) {
      return Status::Internal("recording pass: " + verdict);
    }
  }

  // ---- schedules -----------------------------------------------------------
  for (const Schedule& sched : Enumerate(opt, report)) {
    ++report.schedules;
    const std::string failure = RunSchedule(opt, plan, sched, &report);
    if (!failure.empty()) {
      report.failures.push_back(sched.Name() + ": " + failure);
    }
    if (opt.verbose) {
      std::printf("  %-40s %s\n", sched.Name().c_str(),
                  failure.empty() ? "ok" : failure.c_str());
    }
  }
  if (report.fired_total() == 0) {
    return Status::InvalidArgument(
        "no schedule fired (" + std::to_string(report.schedules) +
        " enumerated): the sweep tested nothing");
  }
  return report;
}

}  // namespace invfs

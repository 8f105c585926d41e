// churn: one closed-loop client doing 8 KB overwrites and appends in
// transactions, creates and unlinks, and reads of recently written chunks,
// with a Vacuum pass every kVacuumEvery ops. POSTGRES never overwrites, so
// every overwrite adds a chunk version; the history outgrows the pool and
// vacuum moves dead versions to the archive.

#include <cstdio>
#include <deque>
#include <set>

#include "perfbench/cpp/checked_api.h"
#include "perfbench/cpp/workloads.h"
#include "src/inversion/inv_fs.h"

namespace perfbench {
namespace {

constexpr int kBaseFiles = 32;
constexpr int64_t kChunk = invfs::kInvChunkSize;
constexpr int64_t kBaseChunks = 8;
constexpr int64_t kMaxChunks = 24;
constexpr int kVacuumEvery = 400;
constexpr size_t kRecent = 64;
constexpr double kOpsPerSecond = 2000;

struct Recent {
  std::string path;
  int64_t offset;
};

// A file the workload unlinked: its bytes, and a time it still existed.
struct Unlinked {
  std::string path;
  invfs::Timestamp alive_at;
  std::vector<std::byte> bytes;
};

// The offline checker counts a chunk table as orphaned when no fileatt row
// in the live heap names its file; it does not read the fileatt archive, so
// every file unlinked before a vacuum pass is flagged once vacuum moves its
// fileatt row there. Such a table is not garbage: time travel still reads
// it. For each unlinked file this reads the file back as of a time it
// existed and compares the bytes; the chunk tables so proven reachable are
// returned, and only their orphan reports are accepted by the image check.
Result<std::set<invfs::Oid>> ProveReachable(invfs::InversionWorld& world,
                                            const std::vector<Unlinked>& gone) {
  invfs::InvSession& s = world.session();
  std::set<invfs::Oid> tables;
  for (const Unlinked& u : gone) {
    INV_ASSIGN_OR_RETURN(invfs::FileStat st, s.stat(u.path, u.alive_at));
    INV_ASSIGN_OR_RETURN(invfs::TableInfo * table,
                         world.db().catalog().GetTable("inv" + std::to_string(st.oid)));
    INV_ASSIGN_OR_RETURN(int fd, s.p_open(u.path, invfs::OpenMode::kRead, u.alive_at));
    std::vector<std::byte> got(u.bytes.size() + 1);
    INV_ASSIGN_OR_RETURN(int64_t n, s.p_read(fd, got));
    INV_RETURN_IF_ERROR(s.p_close(fd));
    got.resize(static_cast<size_t>(n));
    if (got != u.bytes) {
      return Status::Corruption("churn: time travel to unlinked " + u.path +
                                " returned other bytes");
    }
    tables.insert(table->oid);
  }
  return tables;
}

}  // namespace

Status ChurnRound(const RoundContext& ctx, RoundResult* out) {
  INV_ASSIGN_OR_RETURN(auto world, invfs::InversionWorld::Create());
  invfs::InvSession& s = world->session();
  invfs::SimClock& clock = world->clock();
  Shadow shadow;
  invfs::Rng rng(ctx.Seed(0));
  std::vector<std::string> base;
  INV_RETURN_IF_ERROR(s.mkdir("/churn"));
  INV_RETURN_IF_ERROR(s.p_begin());
  for (int i = 0; i < kBaseFiles; ++i) {
    const std::string path = "/churn/b" + std::to_string(i);
    const auto bytes = MakeBytes(static_cast<size_t>(kBaseChunks * kChunk), rng.Next());
    INV_ASSIGN_OR_RETURN(int fd, s.p_creat(path));
    INV_RETURN_IF_ERROR(s.p_write(fd, bytes).status());
    INV_RETURN_IF_ERROR(s.p_close(fd));
    shadow.Create(path);
    shadow.Write(path, 0, bytes);
    base.push_back(path);
  }
  INV_RETURN_IF_ERROR(s.p_commit());
  // Warm-up: read every base file once.
  std::vector<std::byte> buf(static_cast<size_t>(kChunk));
  for (const std::string& path : base) {
    INV_ASSIGN_OR_RETURN(int fd, s.p_open(path, invfs::OpenMode::kRead));
    for (int64_t c = 0; c < kBaseChunks; ++c) {
      INV_ASSIGN_OR_RETURN(int64_t n, s.p_read(fd, buf));
      if (!shadow.Matches(path, c * kChunk, buf.size(),
                          std::span(buf).first(static_cast<size_t>(n)))) {
        return Status::Corruption("churn: warm-up read mismatch");
      }
    }
    INV_RETURN_IF_ERROR(s.p_close(fd));
  }
  out->setup_s = static_cast<double>(WallNanos() - ctx.setup_origin_ns) / 1e9;

  Spanned<invfs::InvSession> sp(&s, "inversion");
  Tracer::Install(ctx.tracer);
  const PhaseMark mark = PhaseMark::Take(*world);
  std::vector<std::string> created;
  std::vector<Unlinked> gone;
  std::deque<Recent> recent;
  int64_t next_new = 0;
  double vacuum_wall_s = 0;
  const int64_t ops = ctx.Share(kOpsPerSecond);
  Recorder& rec = out->rec;
  for (int64_t i = 0; i < ops; ++i) {
    if (i != 0 && i % kVacuumEvery == 0) {
      SpanScope op("bench", "churn.vacuum");
      CallClock::Reset();
      auto stats = Call("vacuum", "Vacuum", [&]() -> Result<invfs::VacuumStats> {
        INV_ASSIGN_OR_RETURN(invfs::TxnId txn, world->db().Begin());
        auto r = world->fs().Vacuum(txn);
        if (!r.ok()) {
          (void)world->db().Abort(txn);
          return r;
        }
        INV_RETURN_IF_ERROR(world->db().Commit(txn));
        return r;
      });
      const double v_us = CallClock::TakeMicros();
      vacuum_wall_s += v_us / 1e6;
      if (!stats.ok()) {
        std::fprintf(stderr, "perfbench: churn vacuum: %s\n",
                     stats.status().ToString().c_str());
        rec.Fail();
        return stats.status();
      }
      out->tally.vacuum_runs += 1;
      out->tally.vacuum_wall_us += v_us;
      out->tally.vacuum_archived += stats->archived;
    }

    // 45% chunk writes (a ninth of them appends), 8% unlinks of created
    // files, 10% creates, 37% reads of recently written chunks: design
    // choices, not a measured trace (README.md, "Where the mixes come from").
    const uint64_t pick = rng.Uniform(100);
    enum { kWriteOp, kUnlinkOp, kCreateOp, kReadOp } kind =
        pick < 45   ? kWriteOp
        : pick < 53 ? (created.empty() ? kWriteOp : kUnlinkOp)
        : pick < 63 ? kCreateOp
                    : kReadOp;
    const invfs::SimMicros sim0 = clock.Peek();
    CallClock::Reset();
    bool ok = true;
    OpClass cls = OpClass::kWrite;
    double* sim_sink = nullptr;
    if (kind == kWriteOp) {
      // Overwrite one chunk, or append one when the file has room.
      SpanScope op("bench", "churn.write");
      const std::string& path = base[rng.Uniform(base.size())];
      const int64_t chunks = shadow.Size(path) / kChunk;
      const bool append = pick < 5 && chunks < kMaxChunks;
      const int64_t off = (append ? chunks : static_cast<int64_t>(rng.Uniform(
                                                 static_cast<uint64_t>(chunks)))) *
                          kChunk;
      const auto bytes = MakeBytes(static_cast<size_t>(kChunk), rng.Next());
      Status st = [&]() -> Status {
        INV_RETURN_IF_ERROR(sp.p_begin());
        INV_ASSIGN_OR_RETURN(int fd, sp.p_open(path, invfs::OpenMode::kWrite));
        INV_RETURN_IF_ERROR(sp.p_lseek(fd, off, invfs::Whence::kSet).status());
        INV_RETURN_IF_ERROR(sp.p_write(fd, bytes).status());
        INV_RETURN_IF_ERROR(sp.p_close(fd));
        return sp.p_commit();
      }();
      ok = st.ok();
      shadow.Write(path, off, bytes);
      recent.push_back({path, off});
      out->write_bytes += static_cast<double>(bytes.size());
      sim_sink = &out->write_sim_s;
    } else if (kind == kUnlinkOp) {
      SpanScope op("bench", "churn.unlink");
      const size_t k = rng.Uniform(created.size());
      const std::string path = created[k];
      created[k] = created.back();
      created.pop_back();
      gone.push_back({path, world->db().Now(), *shadow.Bytes(path)});
      Status st = [&]() -> Status {
        INV_RETURN_IF_ERROR(sp.p_begin());
        INV_RETURN_IF_ERROR(sp.unlink(path));
        return sp.p_commit();
      }();
      ok = st.ok();
      shadow.Remove(path);
      std::erase_if(recent, [&](const Recent& r) { return r.path == path; });
      cls = OpClass::kOther;
    } else if (kind == kCreateOp) {
      SpanScope op("bench", "churn.create");
      const std::string path = "/churn/n" + std::to_string(next_new++);
      const auto bytes = MakeBytes(static_cast<size_t>(kChunk), rng.Next());
      Status st = [&]() -> Status {
        INV_RETURN_IF_ERROR(sp.p_begin());
        INV_ASSIGN_OR_RETURN(int fd, sp.p_creat(path));
        INV_RETURN_IF_ERROR(sp.p_write(fd, bytes).status());
        INV_RETURN_IF_ERROR(sp.p_close(fd));
        return sp.p_commit();
      }();
      ok = st.ok();
      shadow.Create(path);
      shadow.Write(path, 0, bytes);
      created.push_back(path);
      recent.push_back({path, 0});
      out->create_bytes += static_cast<double>(bytes.size());
      sim_sink = &out->create_sim_s;
    } else {
      // Read a recently written chunk back.
      SpanScope op("bench", "churn.read");
      const Recent r = recent.empty()
                           ? Recent{base[rng.Uniform(base.size())], 0}
                           : recent[rng.Uniform(recent.size())];
      Result<int64_t> n = [&]() -> Result<int64_t> {
        INV_ASSIGN_OR_RETURN(int fd, sp.p_open(r.path, invfs::OpenMode::kRead));
        INV_RETURN_IF_ERROR(sp.p_lseek(fd, r.offset, invfs::Whence::kSet).status());
        auto got = sp.p_read(fd, buf);
        INV_RETURN_IF_ERROR(sp.p_close(fd));
        return got;
      }();
      ok = n.ok();
      if (ok) {
        const std::span<std::byte> got(buf.data(), static_cast<size_t>(*n));
        MaybeCorrupt(got);
        ok = shadow.Matches(r.path, r.offset, buf.size(), got);
        out->read_bytes += static_cast<double>(*n);
      }
      cls = OpClass::kRead;
      sim_sink = &out->read_sim_s;
    }
    while (recent.size() > kRecent) {
      recent.pop_front();
    }
    const double wall = CallClock::TakeMicros();
    const double sim = static_cast<double>(clock.Peek() - sim0);
    rec.Add(cls, wall, sim, ok);
    if (sim_sink != nullptr) {
      *sim_sink += sim / 1e6;
    }
  }
  Tracer::Install(nullptr);

  out->phase_ops = rec.attempted;
  out->phase_wall_s = rec.busy_wall_us / 1e6 + vacuum_wall_s;
  out->cap_ops = static_cast<double>(rec.sim_us.size());
  for (double v : rec.sim_us) {
    out->cap_sim_s += v / 1e6;
  }
  if (ctx.tracer != nullptr) {
    LayerTally& t = out->tally;
    t.ops = rec.attempted;
    CloseTally(*world, mark, &t);
    t.user_bytes_written = static_cast<uint64_t>(out->write_bytes + out->create_bytes);
    std::map<std::string, int64_t> sizes;
    for (const auto& [path, bytes] : shadow.files()) {
      sizes[path] = static_cast<int64_t>(bytes.size());
    }
    INV_RETURN_IF_ERROR(ProbeAccess(*world, sizes, &t));
  }
  auto reachable = ProveReachable(*world, gone);
  if (!reachable.ok()) {
    std::fprintf(stderr, "perfbench: %s\n", reachable.status().ToString().c_str());
    rec.Fail();
    return reachable.status();
  }
  out->image_ok = VerifyWorld(*world, "churn", [&](const invfs::Violation& v) {
    return v.invariant == "orphan-chunk-table" && reachable->count(v.rel) != 0;
  });
  out->device_bytes = static_cast<double>(DeviceBytes(world->env()));
  out->live_bytes = static_cast<double>(shadow.LiveBytes());
  out->bench_bytes = out->live_bytes;
  return Status::Ok();
}

}  // namespace perfbench

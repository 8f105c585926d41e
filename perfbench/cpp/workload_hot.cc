// hot: a ~1 MB file set that fits the buffer pool, read by min(4, nproc)
// closed-loop threads with one InvSession each (read-only path opens, random
// reads of about 8 KB, stat, readdir). Before them, one sim-timed client runs
// the same kinds of op plus a few overwrites and creates on the same set; the
// sim and write metrics come from that client, because sim time is not
// repeatable when threads share the one SimClock.

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstdio>
#include <thread>

#include "perfbench/cpp/checked_api.h"
#include "perfbench/cpp/workloads.h"
#include "src/inversion/inv_fs.h"

namespace perfbench {
namespace {

// 32 files: with each file's chunk heap and B-tree pages, and the catalogs,
// the set fits the 300-page pool.
constexpr int kDirs = 4;
constexpr int kFilesPerDir = 8;
// Files of 16-24 KB; reads of 4-12 KB (8 KB on average) that never cross the
// end of a file, so the copy charge, which is per byte, follows the seed's
// read lengths.
constexpr int64_t kFileMin = 16384;
constexpr int64_t kFileMax = 24576;
constexpr int64_t kReadMin = 4096;
constexpr int64_t kReadMax = 12288;
// Untimed ops each reader thread runs before the timed ones: the first ops
// of a new thread pay for its malloc arena and stack pages.
constexpr int64_t kThreadWarmupOps = 2000;
// Ops per run second: the single sim-timed client, and all threads together.
constexpr double kSingleOpsPerSecond = 600;
constexpr double kThreadOpsPerSecond = 60000;
constexpr int kOpenFdsPerClient = 16;
// Read shares: the threads' median op is a path open or stat, and most of
// the sim-timed client's ops are reads. These shares are design choices, not
// a measured trace; README.md ("Where the mixes come from") gives the reason
// for each.
constexpr uint64_t kThreadReadShare = 40;
constexpr uint64_t kSingleReadShare = 65;

std::string DirPath(int d) { return "/hot/d" + std::to_string(d); }

struct HotSet {
  std::vector<std::string> files;  // every file the readers may touch
  std::map<std::string, size_t> dir_entries;
};

// One session's reads over the hot set.
struct ReaderClient {
  Spanned<invfs::InvSession> session;
  const Shadow* shadow;
  const HotSet* set;
  invfs::Rng rng;
  uint64_t read_share;
  std::vector<std::pair<int, std::string>> fds;

  Status OpenFds() {
    for (int i = 0; i < kOpenFdsPerClient; ++i) {
      const std::string& path = set->files[rng.Uniform(set->files.size())];
      INV_ASSIGN_OR_RETURN(int fd, session.p_open(path, invfs::OpenMode::kRead));
      fds.emplace_back(fd, path);
    }
    return Status::Ok();
  }

  Status CloseFds() {
    for (const auto& [fd, path] : fds) {
      INV_RETURN_IF_ERROR(session.p_close(fd));
    }
    fds.clear();
    return Status::Ok();
  }

  // Runs one op and returns its class; `*ok` is false on an error or a
  // mismatch, and `*read` receives the bytes a read returned. `read_share`
  // percent of the ops are reads; the rest split 60:35:5 over opens, stats
  // and readdirs.
  OpClass Run(bool* ok, std::vector<std::byte>& buf, int64_t* read) {
    const uint64_t pick = rng.Uniform(100);
    const uint64_t rest = 100 - read_share;
    if (pick < rest * 60 / 100) {
      SpanScope op("bench", "hot.open");
      const std::string& path = set->files[rng.Uniform(set->files.size())];
      Result<int> fd = session.p_open(path, invfs::OpenMode::kRead);
      *ok = fd.ok() && session.p_close(*fd).ok();
      return OpClass::kOther;
    }
    if (pick >= rest) {
      SpanScope op("bench", "hot.read");
      const auto& [fd, path] = fds[rng.Uniform(fds.size())];
      const int64_t len = rng.Range(kReadMin, kReadMax);
      const int64_t off = rng.Range(0, shadow->Size(path) - len);
      const std::span<std::byte> want = std::span(buf).first(static_cast<size_t>(len));
      Result<int64_t> n = [&]() -> Result<int64_t> {
        INV_RETURN_IF_ERROR(session.p_lseek(fd, off, invfs::Whence::kSet).status());
        return session.p_read(fd, want);
      }();
      if (!n.ok()) {
        *ok = false;
        return OpClass::kRead;
      }
      const std::span<std::byte> got(buf.data(), static_cast<size_t>(*n));
      MaybeCorrupt(got);
      *ok = shadow->Matches(path, off, want.size(), got);
      *read = *n;
      return OpClass::kRead;
    }
    if (pick < rest * 95 / 100) {
      SpanScope op("bench", "hot.stat");
      const std::string& path = set->files[rng.Uniform(set->files.size())];
      auto st = session.stat(path);
      *ok = st.ok() && st->size == shadow->Size(path);
      return OpClass::kOther;
    }
    SpanScope op("bench", "hot.readdir");
    const int d = static_cast<int>(rng.Uniform(kDirs));
    auto entries = session.readdir(DirPath(d));
    *ok = entries.ok() && entries->size() == set->dir_entries.at(DirPath(d));
    return OpClass::kOther;
  }
};

}  // namespace

Status HotRound(const RoundContext& ctx, RoundResult* out) {
  INV_ASSIGN_OR_RETURN(auto world, invfs::InversionWorld::Create());
  invfs::InvSession& setup = world->session();
  Shadow shadow;
  HotSet set;
  invfs::Rng rng(ctx.Seed(0));
  INV_RETURN_IF_ERROR(setup.mkdir("/hot"));
  INV_RETURN_IF_ERROR(setup.mkdir("/hot/new"));
  for (int d = 0; d < kDirs; ++d) {
    INV_RETURN_IF_ERROR(setup.p_begin());
    INV_RETURN_IF_ERROR(setup.mkdir(DirPath(d)));
    for (int f = 0; f < kFilesPerDir; ++f) {
      const std::string path = DirPath(d) + "/f" + std::to_string(f);
      const auto bytes = MakeBytes(static_cast<size_t>(rng.Range(kFileMin, kFileMax)),
                                   rng.Next());
      INV_ASSIGN_OR_RETURN(int fd, setup.p_creat(path));
      INV_RETURN_IF_ERROR(setup.p_write(fd, bytes).status());
      INV_RETURN_IF_ERROR(setup.p_close(fd));
      shadow.Create(path);
      shadow.Write(path, 0, bytes);
      set.files.push_back(path);
    }
    INV_RETURN_IF_ERROR(setup.p_commit());
    set.dir_entries[DirPath(d)] = kFilesPerDir;
  }
  // Warm-up: every file read whole twice, so the pool holds the set.
  std::vector<std::byte> whole(kFileMax);
  for (int pass = 0; pass < 2; ++pass) {
    for (const std::string& path : set.files) {
      INV_ASSIGN_OR_RETURN(int fd, setup.p_open(path, invfs::OpenMode::kRead));
      INV_ASSIGN_OR_RETURN(int64_t n, setup.p_read(fd, whole));
      INV_RETURN_IF_ERROR(setup.p_close(fd));
      if (!shadow.Matches(path, 0, whole.size(),
                          std::span(whole).first(static_cast<size_t>(n)))) {
        return Status::Corruption("hot: warm-up read mismatch");
      }
    }
  }
  // ---- the reader threads: started and warmed up as part of set-up --------
  const int threads = std::max(1, ctx.cfg->threads);
  const int64_t per_thread = ctx.Share(kThreadOpsPerSecond) / threads + 1;
  std::vector<std::unique_ptr<invfs::InvSession>> sessions;
  std::vector<ReaderClient> clients;
  for (int t = 0; t < threads; ++t) {
    INV_ASSIGN_OR_RETURN(auto s, world->fs().NewSession());
    sessions.push_back(std::move(s));
    clients.push_back(ReaderClient{{sessions.back().get(), "inversion"}, &shadow, &set,
                                   invfs::Rng(ctx.Seed(100 + t)), kThreadReadShare,
                                   {}});
    INV_RETURN_IF_ERROR(clients.back().OpenFds());
  }
  std::vector<Recorder> recs(threads);
  std::vector<char> warm_ok(threads, 1);
  std::atomic<bool> cancel{false};
  std::barrier warmed(threads + 1);
  std::barrier go(threads + 1);
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      std::vector<std::byte> tbuf(kReadMax);
      for (int64_t i = 0; i < kThreadWarmupOps; ++i) {
        bool ok = true;
        int64_t got = 0;
        clients[t].Run(&ok, tbuf, &got);
        warm_ok[t] = warm_ok[t] && ok;
      }
      warmed.arrive_and_wait();
      go.arrive_and_wait();
      for (int64_t i = 0; i < per_thread && !cancel.load(); ++i) {
        bool ok = true;
        int64_t got = 0;
        CallClock::Reset();
        const OpClass cls = clients[t].Run(&ok, tbuf, &got);
        recs[t].Add(cls, CallClock::TakeMicros(), std::nullopt, ok);
      }
    });
  }
  warmed.arrive_and_wait();
  out->setup_s = static_cast<double>(WallNanos() - ctx.setup_origin_ns) / 1e9;

  Tracer::Install(ctx.tracer);
  const PhaseMark mark = PhaseMark::Take(*world);
  invfs::SimClock& clock = world->clock();
  std::vector<std::byte> buf(kReadMax);

  // ---- single sim-timed client: the reader mix plus writes ----------------
  // The threads wait at `go` meanwhile; they run once it has finished.
  Recorder single;
  const Status single_status = [&]() -> Status {
    ReaderClient c{{&setup, "inversion"}, &shadow, &set, invfs::Rng(ctx.Seed(1)),
                   kSingleReadShare, {}};
    INV_RETURN_IF_ERROR(c.OpenFds());
    const int64_t ops = ctx.Share(kSingleOpsPerSecond);
    int64_t created = 0;
    for (int64_t i = 0; i < ops; ++i) {
      const uint64_t pick = c.rng.Uniform(100);
      const invfs::SimMicros sim0 = clock.Peek();
      CallClock::Reset();
      bool ok = true;
      OpClass cls = OpClass::kWrite;
      double* sim_sink = nullptr;
      if (pick < 3) {
        // Overwrite part of an existing file, in its own transaction.
        SpanScope op("bench", "hot.overwrite");
        const std::string& path = set.files[c.rng.Uniform(set.files.size())];
        const int64_t size = shadow.Size(path);
        const int64_t off = static_cast<int64_t>(c.rng.Uniform(static_cast<uint64_t>(size)));
        const auto bytes = MakeBytes(std::min<int64_t>(2048, size - off), c.rng.Next());
        Status st = [&]() -> Status {
          INV_RETURN_IF_ERROR(c.session.p_begin());
          INV_ASSIGN_OR_RETURN(int fd, c.session.p_open(path, invfs::OpenMode::kWrite));
          INV_RETURN_IF_ERROR(c.session.p_lseek(fd, off, invfs::Whence::kSet).status());
          INV_RETURN_IF_ERROR(c.session.p_write(fd, bytes).status());
          INV_RETURN_IF_ERROR(c.session.p_close(fd));
          return c.session.p_commit();
        }();
        ok = st.ok();
        shadow.Write(path, off, bytes);
        out->write_bytes += static_cast<double>(bytes.size());
        sim_sink = &out->write_sim_s;
      } else if (pick < 4) {
        SpanScope op("bench", "hot.create");
        const std::string path = "/hot/new/c" + std::to_string(created++);
        const auto bytes = MakeBytes(4096, c.rng.Next());
        Status st = [&]() -> Status {
          INV_RETURN_IF_ERROR(c.session.p_begin());
          INV_ASSIGN_OR_RETURN(int fd, c.session.p_creat(path));
          INV_RETURN_IF_ERROR(c.session.p_write(fd, bytes).status());
          INV_RETURN_IF_ERROR(c.session.p_close(fd));
          return c.session.p_commit();
        }();
        ok = st.ok();
        shadow.Create(path);
        shadow.Write(path, 0, bytes);
        out->create_bytes += static_cast<double>(bytes.size());
        sim_sink = &out->create_sim_s;
      } else {
        int64_t got = 0;
        cls = c.Run(&ok, buf, &got);
        out->read_bytes += static_cast<double>(got);
        sim_sink = cls == OpClass::kRead ? &out->read_sim_s : nullptr;
      }
      const double wall = CallClock::TakeMicros();
      const double sim = static_cast<double>(clock.Peek() - sim0);
      // Sim latency samples are the reads: every other op's sim cost here is
      // a constant, and a median landing on one would not move with the seed.
      single.Add(cls, wall,
                 cls == OpClass::kRead ? std::optional<double>(sim) : std::nullopt,
                 ok);
      out->cap_sim_s += sim / 1e6;
      if (sim_sink != nullptr) {
        *sim_sink += sim / 1e6;
      }
    }
    INV_RETURN_IF_ERROR(c.CloseFds());
    return Status::Ok();
  }();
  cancel.store(!single_status.ok());
  go.arrive_and_wait();
  for (std::thread& th : pool) {
    th.join();
  }
  INV_RETURN_IF_ERROR(single_status);
  Tracer::Install(nullptr);
  if (std::count(warm_ok.begin(), warm_ok.end(), 0) != 0) {
    return Status::Corruption("hot: a warm-up read failed its check");
  }
  // The threads' aggregate rate is the sum of each thread's own rate over its
  // time inside calls, so one thread the host descheduled between calls does
  // not stretch everyone's.
  double rate = 0;
  for (const Recorder& r : recs) {
    rate += static_cast<double>(r.attempted) / (r.busy_wall_us / 1e6);
  }
  for (ReaderClient& c : clients) {
    INV_RETURN_IF_ERROR(c.CloseFds());
  }

  // wall_* and read latency from the threads; write latency and every sim
  // metric from the single client.
  Recorder& rec = out->rec;
  for (const Recorder& r : recs) {
    rec.Merge(r);
  }
  rec.write_wall_us = single.write_wall_us;
  rec.sim_us = single.sim_us;
  rec.attempted += single.attempted;
  rec.failed += single.failed;
  out->phase_ops = rec.attempted - single.attempted;
  out->phase_wall_s = static_cast<double>(out->phase_ops) / rate;
  out->concurrent = true;
  out->cap_ops = static_cast<double>(single.attempted);

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
  out->image_ok = VerifyWorld(*world, "hot");
  out->device_bytes = static_cast<double>(DeviceBytes(world->env()));
  out->live_bytes = static_cast<double>(shadow.LiveBytes());
  out->bench_bytes = out->live_bytes;
  return Status::Ok();
}

}  // namespace perfbench

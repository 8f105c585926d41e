#include "perfbench/cpp/common.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstring>

#include "src/access/key_codec.h"
#include "src/device/device.h"
#include "src/inversion/inv_fs.h"

namespace perfbench {
namespace {

int64_t g_start_ns = 0;
std::atomic<uint64_t> g_checked_reads{0};
uint64_t g_corrupt_nth = 0;

std::string Key(const std::string& name, const std::string& label) {
  return name + "|" + label;
}

thread_local int64_t t_call_ns = 0;

}  // namespace

void CallClock::Reset() { t_call_ns = 0; }
void CallClock::Add(int64_t ns) { t_call_ns += ns; }
double CallClock::TakeMicros() {
  const double us = static_cast<double>(t_call_ns) / 1e3;
  t_call_ns = 0;
  return us;
}

int64_t ProcessStartNanos() { return g_start_ns; }
void MarkProcessStart() { g_start_ns = WallNanos(); }

std::vector<std::byte> MakeBytes(size_t n, uint64_t seed) {
  std::vector<std::byte> out(n);
  invfs::Rng rng(seed);
  for (size_t i = 0; i < n; i += 8) {
    const uint64_t v = rng.Next();
    for (size_t j = 0; j < 8 && i + j < n; ++j) {
      out[i + j] = static_cast<std::byte>((v >> (8 * j)) & 0xFF);
    }
  }
  return out;
}

void Recorder::Add(OpClass c, double wall, std::optional<double> sim, bool ok) {
  ++attempted;
  if (!ok) {
    ++failed;
  }
  busy_wall_us += wall;
  if (sim.has_value()) {
    sim_us.push_back(*sim);
  }
  if (c == OpClass::kDaemon) {
    return;
  }
  wall_us.push_back(wall);
  if (c == OpClass::kRead) {
    read_wall_us.push_back(wall);
  } else if (c == OpClass::kWrite) {
    write_wall_us.push_back(wall);
  }
}

void Recorder::Merge(const Recorder& o) {
  wall_us.insert(wall_us.end(), o.wall_us.begin(), o.wall_us.end());
  read_wall_us.insert(read_wall_us.end(), o.read_wall_us.begin(),
                      o.read_wall_us.end());
  write_wall_us.insert(write_wall_us.end(), o.write_wall_us.begin(),
                       o.write_wall_us.end());
  sim_us.insert(sim_us.end(), o.sim_us.begin(), o.sim_us.end());
  attempted += o.attempted;
  failed += o.failed;
  busy_wall_us += o.busy_wall_us;
}

uint64_t Recorder::SampleBytes() const {
  return sizeof(double) * (wall_us.size() + read_wall_us.size() +
                           write_wall_us.size() + sim_us.size());
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

RegistryState RegistryState::Take(const invfs::MetricsRegistry& m) {
  RegistryState s;
  for (const invfs::MetricSample& x : m.Snapshot()) {
    if (x.kind == invfs::MetricKind::kCounter) {
      s.counters[Key(x.name, x.label)] = static_cast<uint64_t>(x.value);
    } else if (x.kind == invfs::MetricKind::kHistogram) {
      s.hists[Key(x.name, x.label)] = {x.count, x.sum};
    }
  }
  return s;
}

RegistryState RegistryState::Minus(const RegistryState& before) const {
  RegistryState d = *this;
  for (auto& [k, v] : d.counters) {
    auto it = before.counters.find(k);
    if (it != before.counters.end()) {
      v -= it->second;
    }
  }
  for (auto& [k, v] : d.hists) {
    auto it = before.hists.find(k);
    if (it != before.hists.end()) {
      v.first -= it->second.first;
      v.second -= it->second.second;
    }
  }
  return d;
}

uint64_t RegistryState::Counter(const std::string& name,
                                const std::string& label) const {
  auto it = counters.find(Key(name, label));
  return it == counters.end() ? 0 : it->second;
}

std::pair<uint64_t, uint64_t> RegistryState::Hist(const std::string& name,
                                                  const std::string& label) const {
  auto it = hists.find(Key(name, label));
  return it == hists.end() ? std::pair<uint64_t, uint64_t>{0, 0} : it->second;
}

void RegistryState::Add(const RegistryState& o) {
  for (const auto& [k, v] : o.counters) {
    counters[k] += v;
  }
  for (const auto& [k, v] : o.hists) {
    hists[k].first += v.first;
    hists[k].second += v.second;
  }
}

void Shadow::Write(const std::string& path, int64_t offset,
                   std::span<const std::byte> data) {
  std::vector<std::byte>& f = files_[path];
  const size_t end = static_cast<size_t>(offset) + data.size();
  if (f.size() < end) {
    f.resize(end);
  }
  std::memcpy(f.data() + offset, data.data(), data.size());
}

bool Shadow::Matches(const std::string& path, int64_t offset, size_t want,
                     std::span<const std::byte> got) const {
  auto it = files_.find(path);
  if (it == files_.end()) {
    return false;
  }
  const std::vector<std::byte>& f = it->second;
  const size_t off = static_cast<size_t>(offset);
  const size_t expect = off >= f.size() ? 0 : std::min(want, f.size() - off);
  return got.size() == expect &&
         (expect == 0 || std::memcmp(f.data() + off, got.data(), expect) == 0);
}

int64_t Shadow::Size(const std::string& path) const {
  auto it = files_.find(path);
  return it == files_.end() ? 0 : static_cast<int64_t>(it->second.size());
}

const std::vector<std::byte>* Shadow::Bytes(const std::string& path) const {
  auto it = files_.find(path);
  return it == files_.end() ? nullptr : &it->second;
}

uint64_t Shadow::LiveBytes() const {
  uint64_t n = 0;
  for (const auto& [p, b] : files_) {
    n += b.size();
  }
  return n;
}

void SetCorruptRead(uint64_t nth) { g_corrupt_nth = nth; }

void MaybeCorrupt(std::span<std::byte> got) {
  const uint64_t n = g_checked_reads.fetch_add(1) + 1;
  if (g_corrupt_nth != 0 && n == g_corrupt_nth && !got.empty()) {
    got[got.size() / 2] ^= std::byte{0x40};
  }
}

uint64_t DeviceBytes(invfs::StorageEnv& env) {
  uint64_t blocks = 0;
  for (invfs::BlockStore* store :
       {env.disk_store.get(), env.nvram_store.get(), env.jukebox_store.get()}) {
    for (invfs::Oid rel : store->ListRelations()) {
      auto n = store->NumBlocks(rel);
      if (n.ok()) {
        blocks += *n;
      }
    }
  }
  return blocks * invfs::kPageSize;
}

bool VerifyWorld(invfs::InversionWorld& world, const char* what,
                 const std::function<bool(const invfs::Violation&)>& explained) {
  auto report = world.VerifyImage();
  if (!report.ok()) {
    std::fprintf(stderr, "perfbench: %s: image check failed: %s\n", what,
                 report.status().ToString().c_str());
    return false;
  }
  size_t unexplained = 0;
  for (const invfs::Violation& v : report->violations) {
    if (explained && explained(v)) {
      continue;
    }
    if (++unexplained <= 5) {
      std::fprintf(stderr, "perfbench: %s: %s rel=%u block=%u: %s\n", what,
                   v.invariant.c_str(), static_cast<unsigned>(v.rel), v.block,
                   v.detail.c_str());
    }
  }
  if (unexplained != 0) {
    std::fprintf(stderr, "perfbench: %s: image check found %zu violations\n",
                 what, unexplained);
  }
  return unexplained == 0;
}

JukeboxCounts ReadJukebox(invfs::Database& db) {
  JukeboxCounts c;
  invfs::DeviceManager* dev = db.devices().Get(invfs::kDeviceJukebox);
  if (dev == nullptr) {
    return c;
  }
  auto* jb = dynamic_cast<invfs::JukeboxDevice*>(dev->Underlying());
  if (jb == nullptr) {
    return c;
  }
  c.platter_loads = jb->platter_loads();
  c.cache_hits = jb->cache_hits();
  c.cache_misses = jb->cache_misses();
  return c;
}

Status ProbeAccess(invfs::InversionWorld& world,
                   const std::map<std::string, int64_t>& files, LayerTally* t) {
  invfs::InvSession& session = world.session();
  invfs::Database& db = world.db();
  const invfs::Snapshot snap = db.SnapshotAt(db.Now());
  for (const auto& [path, size] : files) {
    INV_ASSIGN_OR_RETURN(invfs::FileStat st, session.stat(path));
    INV_ASSIGN_OR_RETURN(invfs::TableInfo * table,
                         db.catalog().GetTable("inv" + std::to_string(st.oid)));
    if (table->indexes.empty()) {
      continue;
    }
    const invfs::BTree& index = *table->indexes.front()->btree;
    const int64_t chunks = (size + invfs::kInvChunkSize - 1) / invfs::kInvChunkSize;
    for (int64_t c = 0; c < chunks; ++c) {
      const int64_t t0 = WallNanos();
      INV_ASSIGN_OR_RETURN(std::vector<invfs::Tid> tids,
                           index.Lookup(invfs::EncodeInt4Key(static_cast<int32_t>(c))));
      const int64_t t1 = WallNanos();
      t->lookups += 1;
      t->lookup_tids += tids.size();
      t->lookup_wall_us += static_cast<double>(t1 - t0) / 1e3;
      for (const invfs::Tid& tid : tids) {
        const int64_t f0 = WallNanos();
        INV_ASSIGN_OR_RETURN(auto row, table->heap->Fetch(snap, tid));
        t->fetch_wall_us += static_cast<double>(WallNanos() - f0) / 1e3;
        t->fetches += 1;
        (void)row;
      }
    }
  }
  return Status::Ok();
}

PhaseMark PhaseMark::Take(invfs::InversionWorld& world) {
  PhaseMark m;
  m.wall_ns = WallNanos();
  m.sim_us = world.clock().Peek();
  m.reg = RegistryState::Take(world.db().metrics());
  m.jukebox = ReadJukebox(world.db());
  return m;
}

void CloseTally(invfs::InversionWorld& world, const PhaseMark& start,
                LayerTally* t) {
  const PhaseMark end = PhaseMark::Take(world);
  t->phase_wall_us += static_cast<double>(end.wall_ns - start.wall_ns) / 1e3;
  t->phase_sim_us += static_cast<double>(end.sim_us - start.sim_us);
  t->reg.Add(end.reg.Minus(start.reg));
  t->platter_loads += end.jukebox.platter_loads - start.jukebox.platter_loads;
  t->jukebox_cache_hits += end.jukebox.cache_hits - start.jukebox.cache_hits;
  t->jukebox_cache_misses += end.jukebox.cache_misses - start.jukebox.cache_misses;
}

}  // namespace perfbench

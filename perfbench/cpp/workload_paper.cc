// paper: the Table 3 nine-test suite (fig3-fig6) through both Inversion
// paths, single-process and client/server, each repetition on fresh worlds.
// One closed-loop client; every FileApi call is one op.

#include <cstdio>

#include "perfbench/cpp/checked_api.h"
#include "perfbench/cpp/workloads.h"
#include "src/harness/paper_benchmark.h"

namespace perfbench {
namespace {

// Suite repetitions (both paths) per run second.
constexpr double kRepsPerSecond = 0.9;
constexpr char kBenchFile[] = "/bench25mb.dat";

invfs::PaperBenchParams ParamsFor(uint64_t seed) {
  invfs::PaperBenchParams p;
  // The paper's 25 MB file, give or take up to 32 chunks, so each seed also
  // moves the create row.
  invfs::Rng rng(seed);
  p.file_bytes += (static_cast<int64_t>(rng.Uniform(65)) - 32) * invfs::kInvChunkSize;
  p.seed = rng.Next();
  return p;
}

// One suite run on a fresh world through one path.
Status RunSuite(bool client_server, const invfs::PaperBenchParams& params,
                bool timed, bool traced, Recorder* rec, RoundResult* out) {
  INV_ASSIGN_OR_RETURN(auto world, invfs::InversionWorld::Create());
  std::unique_ptr<RpcStack> stack;
  std::unique_ptr<RemoteApi> remote;
  invfs::FileApi* api = &world->local_api();
  if (client_server) {
    stack = std::make_unique<RpcStack>(*world, 1);
    remote = std::make_unique<RemoteApi>(stack->clients[0].get(), &world->db());
    api = remote.get();
  }
  Shadow shadow;
  // Sim latency samples come from the client/server path only: its random
  // reads and the single-process path's form two modes of equal weight,
  // whose pooled median would fall in the gap between them.
  CheckedApi checked(api, &world->clock(), &shadow, rec,
                     client_server ? "rpc_client" : "inversion", client_server);
  const uint64_t ops_before = rec->attempted;
  const double busy_before = rec->busy_wall_us;
  const PhaseMark mark = PhaseMark::Take(*world);
  auto result = invfs::RunPaperBenchmark(checked, world->clock(), params);
  if (!result.ok()) {
    std::fprintf(stderr, "perfbench: paper suite failed: %s\n",
                 result.status().ToString().c_str());
    rec->Fail();
    return result.status();
  }
  out->bench_bytes =
      std::max(out->bench_bytes, static_cast<double>(shadow.LiveBytes()));
  const bool image_ok = VerifyWorld(*world, "paper");
  if (!timed) {
    return image_ok ? Status::Ok() : Status::Corruption("paper warm-up image");
  }
  out->image_ok &= image_ok;
  const invfs::PaperBenchResult& r = *result;
  const double mb = static_cast<double>(params.transfer_bytes);
  // Time inside the ops' calls: the suite's cache flushes between tests and
  // the decorator's shadow upkeep are not ops.
  out->phase_wall_s += (rec->busy_wall_us - busy_before) / 1e6;
  out->phase_ops += rec->attempted - ops_before;
  out->create_bytes += static_cast<double>(params.file_bytes);
  out->create_sim_s += r.create_file_s;
  out->read_bytes += 3 * mb;
  out->read_sim_s += r.read_1mb_single_s + r.read_1mb_seq_pages_s +
                     r.read_1mb_rand_pages_s;
  out->write_bytes += 3 * mb;
  out->write_sim_s += r.write_1mb_single_s + r.write_1mb_seq_pages_s +
                      r.write_1mb_rand_pages_s;
  out->cap_ops += static_cast<double>(rec->attempted - ops_before);
  out->cap_sim_s += checked.total_sim_us() / 1e6;
  out->device_bytes += static_cast<double>(DeviceBytes(world->env()));
  out->live_bytes += static_cast<double>(shadow.LiveBytes());
  if (traced) {
    LayerTally& t = out->tally;
    t.ops += rec->attempted - ops_before;
    CloseTally(*world, mark, &t);
    if (stack != nullptr) {
      t.exchanges += stack->wire->exchanges();
      t.net_bytes += stack->wire->bytes();
      t.net_sim_us += stack->wire->wire_sim_us();
    }
    t.user_bytes_written += static_cast<uint64_t>(params.file_bytes) +
                            3 * static_cast<uint64_t>(mb) + 1;
    INV_RETURN_IF_ERROR(ProbeAccess(
        *world, {{kBenchFile, shadow.Size(kBenchFile)}}, &t));
  }
  return Status::Ok();
}

}  // namespace

Status PaperRound(const RoundContext& ctx, RoundResult* out) {
  // Set-up: one untimed suite run through the single-process path, so the
  // timed repetitions start with warm code and a warm allocator.
  {
    Recorder warmup;
    RoundResult unused;
    INV_RETURN_IF_ERROR(RunSuite(false, ParamsFor(ctx.Seed(0)), false, false,
                                 &warmup, &unused));
    if (warmup.failed != 0) {
      return Status::Corruption("paper warm-up failed a check");
    }
  }
  out->setup_s = static_cast<double>(WallNanos() - ctx.setup_origin_ns) / 1e9;

  const int64_t reps = ctx.Share(kRepsPerSecond);
  Tracer::Install(ctx.tracer);
  Status st;
  for (int64_t rep = 0; rep < reps && st.ok(); ++rep) {
    for (int path = 0; path < 2 && st.ok(); ++path) {
      st = RunSuite(path == 1, ParamsFor(ctx.Seed(1 + 2 * rep + path)), true,
                    ctx.tracer != nullptr, &out->rec, out);
    }
  }
  Tracer::Install(nullptr);
  return st;
}

}  // namespace perfbench

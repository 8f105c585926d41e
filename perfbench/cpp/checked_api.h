// The benchmark's wrappers around the system's public entry points.
//
//   * CheckedApi decorates a FileApi: it times every call (wall and sim),
//     opens a span around it, mirrors every write into a Shadow and compares
//     every read against it. Comparisons run after the call's timing stops.
//     When asked, the reads that follow a seek which moved the offset (the
//     paper's random byte and random page reads, placed by the seed) add
//     sim latency samples: every other call's sim cost is fixed by the test
//     shape and would make the percentiles identical for every seed.
//   * RemoteApi is a FileApi over a RemoteFileClient, so the client/server
//     path can run over the benchmark's own Transport wrapper. (The
//     harness's adapter is private to worlds.cc and bound to its world's own
//     transport.)
//   * Spanned puts a span around each InvSession or RemoteFileClient call a
//     workload makes and adds the call's wall time to the thread's CallClock.
//   * MeteredTransport wraps a Transport: it counts exchanges and bytes,
//     prices their wire time with the NetModel's per-message and per-byte
//     costs, and opens a span around each exchange.

#pragma once

#include <map>
#include <string>

#include "perfbench/cpp/common.h"
#include "perfbench/cpp/tracer.h"
#include "src/harness/file_api.h"
#include "src/net/rpc.h"
#include "src/sim/cost_params.h"

namespace perfbench {

// Runs `fn`, a call into the system, inside a span, adding its wall time to
// the thread's CallClock.
template <typename Fn>
auto Call(const char* layer, const char* name, Fn&& fn) -> decltype(fn()) {
  SpanScope span(layer, name);
  const int64_t t0 = WallNanos();
  auto result = fn();
  CallClock::Add(WallNanos() - t0);
  return result;
}

class CheckedApi final : public invfs::FileApi {
 public:
  // `layer` names this path's spans ("inversion" or "rpc_client");
  // `sample_sim` turns on the sim latency samples of random reads.
  CheckedApi(invfs::FileApi* inner, invfs::SimClock* clock, Shadow* shadow,
             Recorder* rec, const char* layer, bool sample_sim)
      : inner_(inner),
        clock_(clock),
        shadow_(shadow),
        rec_(rec),
        layer_(layer),
        sample_sim_(sample_sim) {}

  std::string_view name() const override { return inner_->name(); }
  Status Begin() override;
  Status Commit() override;
  Result<int> Creat(const std::string& path) override;
  Result<int> Open(const std::string& path, bool writable) override;
  Status Close(int fd) override;
  Result<int64_t> Read(int fd, std::span<std::byte> buf) override;
  Result<int64_t> Write(int fd, std::span<const std::byte> buf) override;
  Result<int64_t> Seek(int fd, int64_t offset, invfs::Whence whence) override;
  int64_t PreferredPageSize() const override { return inner_->PreferredPageSize(); }
  // Every op's summed sim time (the sampled ones are a subset).
  double total_sim_us() const { return total_sim_us_; }
  // Not an op: the paper flushes caches between tests, outside its timings.
  Status FlushCaches() override;

 private:
  struct Fd {
    std::string path;
    int64_t offset = 0;
    bool jumped = false;  // the last seek moved the offset
  };
  // Times `fn` and records it as one op of class `c`; its sim latency joins
  // the samples when `sampled`.
  template <typename Fn>
  auto Timed(OpClass c, const char* span, bool sampled, Fn&& fn) -> decltype(fn());

  invfs::FileApi* inner_;
  invfs::SimClock* clock_;
  Shadow* shadow_;
  Recorder* rec_;
  const char* layer_;
  bool sample_sim_;
  std::map<int, Fd> fds_;
  double total_sim_us_ = 0;
};

class RemoteApi final : public invfs::FileApi {
 public:
  RemoteApi(invfs::RemoteFileClient* client, invfs::Database* db)
      : client_(client), db_(db) {}

  std::string_view name() const override { return "inversion-client-server"; }
  Status Begin() override { return client_->p_begin(); }
  Status Commit() override { return client_->p_commit(); }
  Result<int> Creat(const std::string& path) override {
    return client_->p_creat(path);
  }
  Result<int> Open(const std::string& path, bool writable) override {
    return client_->p_open(path, writable ? invfs::OpenMode::kWrite
                                          : invfs::OpenMode::kRead);
  }
  Status Close(int fd) override { return client_->p_close(fd); }
  Result<int64_t> Read(int fd, std::span<std::byte> buf) override {
    return client_->p_read(fd, buf);
  }
  Result<int64_t> Write(int fd, std::span<const std::byte> buf) override {
    return client_->p_write(fd, buf);
  }
  Result<int64_t> Seek(int fd, int64_t offset, invfs::Whence whence) override {
    return client_->p_lseek(fd, offset, whence);
  }
  int64_t PreferredPageSize() const override { return invfs::kInvChunkSize; }
  Status FlushCaches() override { return db_->FlushCaches(); }

 private:
  invfs::RemoteFileClient* client_;
  invfs::Database* db_;
};

class MeteredTransport final : public invfs::Transport {
 public:
  MeteredTransport(invfs::Transport* inner, invfs::NetParams params)
      : inner_(inner), params_(params) {}

  Result<std::vector<std::byte>> RoundTrip(std::span<const std::byte> request,
                                           invfs::SimMicros timeout_us) override;

  uint64_t exchanges() const { return exchanges_; }
  uint64_t bytes() const { return bytes_; }
  double wire_sim_us() const { return wire_sim_us_; }

 private:
  double MessageCost(size_t bytes) const {
    return static_cast<double>(params_.per_message_us +
                               (bytes * params_.per_kilobyte_us) / 1024);
  }

  invfs::Transport* inner_;
  invfs::NetParams params_;
  uint64_t exchanges_ = 0;
  uint64_t bytes_ = 0;
  double wire_sim_us_ = 0;
};

// InvSession or RemoteFileClient with one span around each call, and each
// call's wall time added to the thread's CallClock.
template <typename Api>
class Spanned {
 public:
  Spanned(Api* api, const char* layer) : api_(api), layer_(layer) {}

  Status p_begin() {
    return Call(layer_, "p_begin", [&] { return api_->p_begin(); });
  }
  Status p_commit() {
    return Call(layer_, "p_commit", [&] { return api_->p_commit(); });
  }
  Result<int> p_creat(const std::string& path) {
    return Call(layer_, "p_creat", [&] { return api_->p_creat(path); });
  }
  Result<int> p_open(const std::string& path, invfs::OpenMode mode,
                     invfs::Timestamp as_of = invfs::kTimestampNow) {
    return Call(layer_, "p_open", [&] { return api_->p_open(path, mode, as_of); });
  }
  Status p_close(int fd) {
    return Call(layer_, "p_close", [&] { return api_->p_close(fd); });
  }
  Result<int64_t> p_read(int fd, std::span<std::byte> buf) {
    return Call(layer_, "p_read", [&] { return api_->p_read(fd, buf); });
  }
  Result<int64_t> p_write(int fd, std::span<const std::byte> buf) {
    return Call(layer_, "p_write", [&] { return api_->p_write(fd, buf); });
  }
  Result<int64_t> p_lseek(int fd, int64_t offset, invfs::Whence whence) {
    return Call(layer_, "p_lseek",
                [&] { return api_->p_lseek(fd, offset, whence); });
  }
  Status unlink(const std::string& path) {
    return Call(layer_, "unlink", [&] { return api_->unlink(path); });
  }
  Result<invfs::FileStat> stat(const std::string& path) {
    return Call(layer_, "stat", [&] { return api_->stat(path); });
  }
  Result<std::vector<invfs::DirEntry>> readdir(const std::string& path) {
    return Call(layer_, "readdir", [&] { return api_->readdir(path); });
  }
  Result<invfs::ResultSet> Query(const std::string& text) {
    return Call("query", "Query", [&] { return api_->Query(text); });
  }

 private:
  Api* api_;
  const char* layer_;
};

// A benchmark-owned client/server stack over a world's file system: server,
// priced loopback wire, the metered wrapper, one RemoteFileClient per stub.
struct RpcStack {
  RpcStack(invfs::InversionWorld& world, size_t stubs);

  std::unique_ptr<invfs::InversionServer> server;
  std::unique_ptr<invfs::NetModel> net;
  std::unique_ptr<invfs::LoopbackTransport> loopback;
  std::unique_ptr<MeteredTransport> wire;
  std::vector<std::unique_ptr<invfs::RemoteFileClient>> clients;
};

}  // namespace perfbench

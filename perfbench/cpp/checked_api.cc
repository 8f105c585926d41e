#include "perfbench/cpp/checked_api.h"

#include <algorithm>

#include "perfbench/cpp/tracer.h"

namespace perfbench {

template <typename Fn>
auto CheckedApi::Timed(OpClass c, const char* span, bool sampled, Fn&& fn)
    -> decltype(fn()) {
  SpanScope scope(layer_, span);
  const invfs::SimMicros sim0 = clock_->Peek();
  const int64_t t0 = WallNanos();
  auto result = fn();
  const double wall_us = static_cast<double>(WallNanos() - t0) / 1e3;
  const double sim_us = static_cast<double>(clock_->Peek() - sim0);
  total_sim_us_ += sim_us;
  rec_->Add(c, wall_us, sampled ? std::optional<double>(sim_us) : std::nullopt,
            result.ok());
  return result;
}

Status CheckedApi::Begin() {
  return Timed(OpClass::kOther, "p_begin", false, [&] { return inner_->Begin(); });
}

Status CheckedApi::Commit() {
  return Timed(OpClass::kOther, "p_commit", false, [&] { return inner_->Commit(); });
}

Result<int> CheckedApi::Creat(const std::string& path) {
  auto fd = Timed(OpClass::kOther, "p_creat", false, [&] { return inner_->Creat(path); });
  if (fd.ok()) {
    shadow_->Create(path);
    fds_[*fd] = Fd{path, 0};
  }
  return fd;
}

Result<int> CheckedApi::Open(const std::string& path, bool writable) {
  auto fd = Timed(OpClass::kOther, "p_open", false,
                  [&] { return inner_->Open(path, writable); });
  if (fd.ok()) {
    fds_[*fd] = Fd{path, 0};
  }
  return fd;
}

Status CheckedApi::Close(int fd) {
  fds_.erase(fd);
  return Timed(OpClass::kOther, "p_close", false, [&] { return inner_->Close(fd); });
}

Result<int64_t> CheckedApi::Read(int fd, std::span<std::byte> buf) {
  auto it = fds_.find(fd);
  const bool jumped = sample_sim_ && it != fds_.end() && it->second.jumped;
  auto n = Timed(OpClass::kRead, "p_read", jumped,
                 [&] { return inner_->Read(fd, buf); });
  if (!n.ok()) {
    return n;
  }
  const std::span<std::byte> got = buf.first(static_cast<size_t>(*n));
  MaybeCorrupt(got);
  if (it == fds_.end() ||
      !shadow_->Matches(it->second.path, it->second.offset, buf.size(), got)) {
    rec_->Fail();
    return Status::Corruption("perfbench: read does not match the shadow");
  }
  it->second.offset += *n;
  it->second.jumped = false;
  return n;
}

Result<int64_t> CheckedApi::Write(int fd, std::span<const std::byte> buf) {
  auto n = Timed(OpClass::kWrite, "p_write", false, [&] { return inner_->Write(fd, buf); });
  if (!n.ok()) {
    return n;
  }
  auto it = fds_.find(fd);
  if (it == fds_.end() || *n != static_cast<int64_t>(buf.size())) {
    rec_->Fail();
    return Status::Corruption("perfbench: short or untracked write");
  }
  shadow_->Write(it->second.path, it->second.offset, buf);
  it->second.offset += *n;
  it->second.jumped = false;
  return n;
}

Result<int64_t> CheckedApi::Seek(int fd, int64_t offset, invfs::Whence whence) {
  auto pos = Timed(OpClass::kOther, "p_lseek", false,
                   [&] { return inner_->Seek(fd, offset, whence); });
  if (!pos.ok()) {
    return pos;
  }
  auto it = fds_.find(fd);
  if (it == fds_.end()) {
    rec_->Fail();
    return Status::Corruption("perfbench: seek on an untracked fd");
  }
  int64_t want = offset;
  if (whence == invfs::Whence::kCur) {
    want += it->second.offset;
  } else if (whence == invfs::Whence::kEnd) {
    want += shadow_->Size(it->second.path);
  }
  if (*pos != want) {
    rec_->Fail();
    return Status::Corruption("perfbench: seek landed off the shadow offset");
  }
  it->second.jumped = want != it->second.offset;
  it->second.offset = want;
  return pos;
}

Status CheckedApi::FlushCaches() {
  SpanScope scope(layer_, "flush_caches");
  return inner_->FlushCaches();
}

Result<std::vector<std::byte>> MeteredTransport::RoundTrip(
    std::span<const std::byte> request, invfs::SimMicros timeout_us) {
  SpanScope scope("transport", "round_trip");
  auto response = inner_->RoundTrip(request, timeout_us);
  ++exchanges_;
  bytes_ += request.size();
  wire_sim_us_ += MessageCost(request.size());
  if (response.ok()) {
    bytes_ += response->size();
    wire_sim_us_ += MessageCost(response->size());
  }
  return response;
}

RpcStack::RpcStack(invfs::InversionWorld& world, size_t stubs) {
  const invfs::NetParams params = invfs::WorldOptions{}.inversion_net;
  server = std::make_unique<invfs::InversionServer>(&world.fs());
  net = std::make_unique<invfs::NetModel>(&world.clock(), params);
  loopback = std::make_unique<invfs::LoopbackTransport>(server.get(), net.get());
  wire = std::make_unique<MeteredTransport>(loopback.get(), params);
  for (size_t i = 0; i < stubs; ++i) {
    invfs::RpcClientOptions options;
    options.client_id = i + 1;  // explicit: auto ids depend on process history
    options.clock = &world.clock();
    options.metrics = &world.db().metrics();
    clients.push_back(
        std::make_unique<invfs::RemoteFileClient>(wire.get(), options));
  }
}

}  // namespace perfbench

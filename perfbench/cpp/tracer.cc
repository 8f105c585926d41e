#include "perfbench/cpp/tracer.h"

#include <cstdio>

#include "perfbench/cpp/common.h"

namespace perfbench {
namespace {

std::atomic<Tracer*> g_tracer{nullptr};

struct Frame {
  SpanRecord rec;
  int64_t child_ns = 0;
};

// Open spans of this thread, innermost last.
thread_local std::vector<Frame> t_stack;

struct ThreadSlot {
  const Tracer* owner = nullptr;
  void* buffer = nullptr;
};
thread_local ThreadSlot t_slot;

}  // namespace

void Tracer::Install(Tracer* tracer) { g_tracer.store(tracer); }

Tracer* Tracer::Active() { return g_tracer.load(std::memory_order_relaxed); }

Tracer::ThreadBuffer* Tracer::BufferForThisThread() {
  if (t_slot.owner != this) {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.push_back(std::make_unique<ThreadBuffer>());
    t_slot.owner = this;
    t_slot.buffer = buffers_.back().get();
  }
  return static_cast<ThreadBuffer*>(t_slot.buffer);
}

SpanScope::SpanScope(const char* layer, const char* name)
    : tracer_(Tracer::Active()) {
  if (tracer_ == nullptr) {
    return;
  }
  Frame f;
  f.rec.layer = layer;
  f.rec.name = name;
  f.rec.id = tracer_->NextId();
  if (t_stack.empty()) {
    f.rec.op = f.rec.id;
  } else {
    f.rec.op = t_stack.back().rec.op;
    f.rec.parent = t_stack.back().rec.id;
  }
  t_stack.push_back(f);
  t_stack.back().rec.start_ns = WallNanos();
}

SpanScope::~SpanScope() {
  if (tracer_ == nullptr) {
    return;
  }
  const int64_t end = WallNanos();
  Frame f = t_stack.back();
  t_stack.pop_back();
  f.rec.dur_ns = end - f.rec.start_ns;
  f.rec.self_ns = f.rec.dur_ns - f.child_ns;
  if (!t_stack.empty()) {
    t_stack.back().child_ns += f.rec.dur_ns;
  }
  tracer_->BufferForThisThread()->spans.push_back(f.rec);
}

std::map<std::string, Tracer::LayerTime> Tracer::ByLayer() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, LayerTime> out;
  for (const auto& b : buffers_) {
    for (const SpanRecord& s : b->spans) {
      LayerTime& t = out[s.layer];
      t.self_us += static_cast<double>(s.self_ns) / 1e3;
      t.total_us += static_cast<double>(s.dur_ns) / 1e3;
      t.spans += 1;
    }
  }
  return out;
}

std::map<std::string, std::vector<double>> Tracer::DurationsByName() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, std::vector<double>> out;
  for (const auto& b : buffers_) {
    for (const SpanRecord& s : b->spans) {
      out[std::string(s.layer) + "/" + s.name].push_back(
          static_cast<double>(s.dur_ns) / 1e3);
    }
  }
  return out;
}

uint64_t Tracer::SpanCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t n = 0;
  for (const auto& b : buffers_) {
    n += b->spans.size();
  }
  return n;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (const auto& b : buffers_) {
    for (const SpanRecord& s : b->spans) {
      std::fprintf(f,
                   "{\"op\":%llu,\"id\":%llu,\"parent\":%llu,\"layer\":\"%s\","
                   "\"name\":\"%s\",\"start_us\":%.3f,\"dur_us\":%.3f,"
                   "\"self_us\":%.3f}\n",
                   static_cast<unsigned long long>(s.op),
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent), s.layer, s.name,
                   static_cast<double>(s.start_ns - ProcessStartNanos()) / 1e3,
                   static_cast<double>(s.dur_ns) / 1e3,
                   static_cast<double>(s.self_ns) / 1e3);
    }
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

#include "src/obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <tuple>

#include "src/obs/timeseries.h"

namespace invfs {

namespace {

// Find-or-create in one of the registry maps. Caller holds mu_.
template <typename T>
T* FindOrCreate(std::map<std::pair<std::string, std::string>, std::unique_ptr<T>>& m,
                std::string_view name, std::string_view label) {
  auto key = std::make_pair(std::string(name), std::string(label));
  auto it = m.find(key);
  if (it == m.end()) {
    it = m.emplace(std::move(key), std::make_unique<T>()).first;
  }
  return it->second.get();
}

void AppendJsonString(std::string& out, const std::string& s) {
  out += '"';
  for (char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  out += '"';
}

}  // namespace

uint64_t Histogram::Percentile(double p) const {
  return PercentileOf(Buckets(), p);
}

uint64_t Histogram::PercentileOf(const std::array<uint64_t, kBuckets>& buckets,
                                 double p) {
  uint64_t total = 0;
  for (uint64_t b : buckets) {
    total += b;
  }
  if (total == 0) {
    return 0;
  }
  // Rank of the target observation, 1-based: ceil(p * total), clamped so
  // p<=0 degenerates to the minimum and p>=1 to the maximum.
  uint64_t target = static_cast<uint64_t>(p * static_cast<double>(total));
  if (static_cast<double>(target) < p * static_cast<double>(total)) {
    ++target;
  }
  target = std::clamp<uint64_t>(target, 1, total);
  uint64_t cum = 0;
  for (size_t i = 0; i < kBuckets; ++i) {
    cum += buckets[i];
    if (cum >= target) {
      return BucketUpper(i);
    }
  }
  return BucketUpper(kBuckets - 1);
}

const char* MetricKindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "unknown";
}

Counter* MetricsRegistry::GetCounter(std::string_view name, std::string_view label) {
  MutexLock lock(mu_);
  return FindOrCreate(counters_, name, label);
}

Gauge* MetricsRegistry::GetGauge(std::string_view name, std::string_view label) {
  MutexLock lock(mu_);
  return FindOrCreate(gauges_, name, label);
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         std::string_view label) {
  MutexLock lock(mu_);
  return FindOrCreate(histograms_, name, label);
}

std::vector<MetricSample> MetricsRegistry::Snapshot() const {
  MutexLock lock(mu_);
  std::vector<MetricSample> out;
  out.reserve(counters_.size() + gauges_.size() + histograms_.size());
  for (const auto& [key, c] : counters_) {
    MetricSample s;
    s.name = key.first;
    s.label = key.second;
    s.kind = MetricKind::kCounter;
    s.value = static_cast<int64_t>(c->Value());
    out.push_back(std::move(s));
  }
  for (const auto& [key, g] : gauges_) {
    MetricSample s;
    s.name = key.first;
    s.label = key.second;
    s.kind = MetricKind::kGauge;
    s.value = g->Value();
    out.push_back(std::move(s));
  }
  for (const auto& [key, h] : histograms_) {
    MetricSample s;
    s.name = key.first;
    s.label = key.second;
    s.kind = MetricKind::kHistogram;
    s.count = h->Count();
    s.sum = h->Sum();
    s.value = static_cast<int64_t>(s.count);
    s.p50 = h->Percentile(0.5);
    s.p99 = h->Percentile(0.99);
    s.p999 = h->Percentile(0.999);
    s.buckets = h->Buckets();
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(), [](const MetricSample& a, const MetricSample& b) {
    return std::tie(a.name, a.label) < std::tie(b.name, b.label);
  });
  return out;
}

std::string MetricsRegistry::DumpText() const {
  std::string out;
  char buf[256];
  for (const MetricSample& s : Snapshot()) {
    std::string id = s.name;
    if (!s.label.empty()) {
      id += "{" + s.label + "}";
    }
    if (s.kind == MetricKind::kHistogram) {
      std::snprintf(buf, sizeof(buf),
                    "%-44s count=%llu p50=%llu p99=%llu p999=%llu mean=%.1f\n",
                    id.c_str(), static_cast<unsigned long long>(s.count),
                    static_cast<unsigned long long>(s.p50),
                    static_cast<unsigned long long>(s.p99),
                    static_cast<unsigned long long>(s.p999),
                    s.count == 0 ? 0.0
                                 : static_cast<double>(s.sum) /
                                       static_cast<double>(s.count));
    } else {
      std::snprintf(buf, sizeof(buf), "%-44s %lld\n", id.c_str(),
                    static_cast<long long>(s.value));
    }
    out += buf;
  }
  return out;
}

std::string MetricsRegistry::DumpJson() const {
  std::string out = "{\n  \"metrics\": [\n";
  const std::vector<MetricSample> snap = Snapshot();
  char buf[256];
  for (size_t i = 0; i < snap.size(); ++i) {
    const MetricSample& s = snap[i];
    out += "    {\"name\": ";
    AppendJsonString(out, s.name);
    out += ", \"label\": ";
    AppendJsonString(out, s.label);
    out += ", \"kind\": \"";
    out += MetricKindName(s.kind);
    out += "\"";
    if (s.kind == MetricKind::kHistogram) {
      std::snprintf(buf, sizeof(buf),
                    ", \"count\": %llu, \"sum\": %llu, \"mean\": %.3f, "
                    "\"p50\": %llu, \"p99\": %llu, \"p999\": %llu",
                    static_cast<unsigned long long>(s.count),
                    static_cast<unsigned long long>(s.sum),
                    s.count == 0 ? 0.0
                                 : static_cast<double>(s.sum) /
                                       static_cast<double>(s.count),
                    static_cast<unsigned long long>(s.p50),
                    static_cast<unsigned long long>(s.p99),
                    static_cast<unsigned long long>(s.p999));
      out += buf;
    } else {
      std::snprintf(buf, sizeof(buf), ", \"value\": %lld",
                    static_cast<long long>(s.value));
      out += buf;
    }
    out += i + 1 < snap.size() ? "},\n" : "}\n";
  }
  out += "  ]\n}\n";
  return out;
}

MetricsRegistry::MetricsRegistry(size_t span_capacity)
    : spans_(span_capacity) {}

MetricsRegistry::~MetricsRegistry() = default;

TimeSeriesSampler& MetricsRegistry::timeseries() {
  MutexLock lock(mu_);
  if (timeseries_ == nullptr) {
    timeseries_ = std::make_unique<TimeSeriesSampler>(this);
  }
  return *timeseries_;
}

void MetricsRegistry::ConfigureTimeseries(uint64_t interval_micros,
                                          size_t capacity) {
  MutexLock lock(mu_);
  if (timeseries_ != nullptr && timeseries_->SamplesTaken() > 0) {
    return;  // window semantics are frozen once points exist
  }
  timeseries_ =
      std::make_unique<TimeSeriesSampler>(this, interval_micros, capacity);
}

MetricsRegistry& MetricsRegistry::Default() {
  static MetricsRegistry* registry = new MetricsRegistry();
  return *registry;
}

}  // namespace invfs

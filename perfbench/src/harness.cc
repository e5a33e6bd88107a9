#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <ctime>
#include <cinttypes>
#include <cmath>
#include <cstdio>

#include "serve/server.h"

namespace perfbench {

HostTime HostNow() {
  timespec cpu{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu);
  HostTime t;
  t.wall_s = std::chrono::duration<double>(
                 std::chrono::steady_clock::now().time_since_epoch())
                 .count();
  t.cpu_s = static_cast<double>(cpu.tv_sec) + 1e-9 * static_cast<double>(cpu.tv_nsec);
  return t;
}

int SpanLog::Open(const char* name, const char* layer, uint64_t op,
                  HostTime now) {
  if (!recording_) return -1;
  Span s;
  s.name = name;
  s.layer = layer;
  s.start = now;
  s.end = now;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.op = op;
  spans_.push_back(std::move(s));
  stack_.push_back(static_cast<int>(spans_.size()) - 1);
  return stack_.back();
}

void SpanLog::Close(int id, HostTime now) {
  if (id < 0) return;
  spans_[static_cast<size_t>(id)].end = now;
  // Spans close in LIFO order; a span opened while recording was off has
  // id -1 and never reached the stack.
  if (!stack_.empty() && stack_.back() == id) stack_.pop_back();
}

std::map<std::string, HostTime> SpanLog::SelfTimeByLayer() const {
  // Spans open and close on one thread, so a span's children run one after
  // another inside it and its self time is its duration minus theirs.
  std::vector<HostTime> child_time(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) child_time[static_cast<size_t>(s.parent)] += s.end - s.start;
  }
  std::map<std::string, HostTime> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    HostTime own = s.end - s.start;
    own.wall_s -= child_time[i].wall_s;
    own.cpu_s -= child_time[i].cpu_s;
    self[s.layer] += own;
  }
  return self;
}

double SpanLog::TotalCpuSeconds(const std::string& name) const {
  double total = 0.0;
  for (const Span& s : spans_) {
    if (s.name == name) total += s.end.cpu_s - s.start.cpu_s;
  }
  return total;
}

size_t SpanLog::Count(const std::string& name) const {
  size_t n = 0;
  for (const Span& s : spans_) n += s.name == name ? 1 : 0;
  return n;
}

bool SpanLog::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const HostTime t0 = spans_.empty() ? HostTime() : spans_.front().start;
  std::fprintf(f,
               "{\"schema\":\"tilecomp.perfbench.spans.v1\",\"clock\":\"host\","
               "\"unit\":\"us\",\"spans\":[");
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const HostTime a = s.start - t0;
    const HostTime b = s.end - t0;
    std::fprintf(f,
                 "%s\n{\"id\":%zu,\"name\":\"%s\",\"layer\":\"%s\","
                 "\"start_us\":%.3f,\"end_us\":%.3f,\"start_cpu_us\":%.3f,"
                 "\"end_cpu_us\":%.3f,\"parent\":%d,\"op\":%" PRIu64 "}",
                 i == 0 ? "" : ",", i, s.name.c_str(), s.layer.c_str(),
                 a.wall_s * 1e6, b.wall_s * 1e6, a.cpu_s * 1e6, b.cpu_s * 1e6,
                 s.parent, s.op);
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

void DeviceTally::Add(const sim::KernelResult& launch) {
  if (launch.label == "hash.build") {
    hash_build_ms += launch.time_ms;
  } else {
    other_ms += launch.time_ms;
  }
  ++launches;
  tiles_decoded += launch.stats.pushdown.tiles_decoded;
  tiles_pruned += launch.stats.pushdown.tiles_pruned;
  global_bytes_read += launch.stats.global_bytes_read;
  limiter_ms[static_cast<size_t>(launch.breakdown.limiter())] +=
      launch.time_ms;
}

void AddLimiterShares(const DeviceTally& tally, Metrics* out) {
  const double total = tally.total_ms();
  for (size_t i = 0; i < tally.limiter_ms.size(); ++i) {
    const auto limiter = static_cast<tilecomp::sim::Limiter>(i);
    out->push_back({std::string("sim.limiter_share.") +
                        tilecomp::sim::LimiterName(limiter),
                    total > 0.0 ? tally.limiter_ms[i] / total : 0.0, "ratio"});
  }
}

uint64_t GridBlocks(const std::vector<sim::KernelResult>& launches) {
  uint64_t blocks = 0;
  for (const sim::KernelResult& l : launches) {
    blocks += static_cast<uint64_t>(l.config.grid_dim);
  }
  return blocks;
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(const std::vector<double>& v, int q_pct) {
  return tilecomp::serve::NearestRankPercentile(v, q_pct);
}

double Geomean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double RelDiff(double a, double b) {
  if (a == b) return 0.0;
  return std::fabs(a - b) / std::max(std::fabs(b), 1e-300);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void JsonObject::Key(const std::string& key) {
  if (!body_.empty()) body_ += ",";
  body_ += "\"" + key + "\":";
}

JsonObject& JsonObject::Num(const std::string& key, double v) {
  Key(key);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", std::isfinite(v) ? v : 0.0);
  body_ += buf;
  return *this;
}

JsonObject& JsonObject::Int(const std::string& key, uint64_t v) {
  Key(key);
  body_ += std::to_string(v);
  return *this;
}

JsonObject& JsonObject::Bool(const std::string& key, bool v) {
  Key(key);
  body_ += v ? "true" : "false";
  return *this;
}

JsonObject& JsonObject::Str(const std::string& key, const std::string& v) {
  Key(key);
  body_ += "\"" + v + "\"";
  return *this;
}

JsonObject& JsonObject::Raw(const std::string& key, const std::string& json) {
  Key(key);
  body_ += json;
  return *this;
}

std::string JsonNumberList(const std::vector<double>& v) {
  std::string out = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%s%.12g", i == 0 ? "" : ",", v[i]);
    out += buf;
  }
  return out + "]";
}

std::string JsonMetrics(const Metrics& metrics) {
  JsonObject obj;
  for (const Metric& m : metrics) {
    obj.Raw(m.name, JsonObject().Num("value", m.value).Str("unit", m.unit).str());
  }
  return obj.str();
}

void Tally::Fail(const std::string& what) {
  ++failed;
  if (errors.size() < 8) errors.push_back(what);
}

uint64_t MixSeed(uint64_t seed, uint64_t salt) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (salt + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

}  // namespace perfbench

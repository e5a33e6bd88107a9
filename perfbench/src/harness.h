// Shared pieces of the repository benchmark: the host clocks, the in-memory
// span log of the traced run, the device-clock tallies read from kernel
// launches, small statistics helpers, and the Workload interface the three
// workloads implement.
//
// Host and device clocks never mix here. Host numbers are read around calls
// into the library, on two clocks: wall time (std::chrono::steady_clock) and
// the process's CPU time summed over all its threads. Host metrics use CPU
// time, because on a shared virtual machine the wall time of the
// simulator's thread-pool launches depends on how fast idle vCPUs wake up,
// which changes by 2-3x from one minute to the next while CPU time stays
// within a few percent. Device numbers are modeled V100 milliseconds read
// from sim::KernelResult and serve::ServeReport.
#ifndef TILECOMP_PERFBENCH_HARNESS_H_
#define TILECOMP_PERFBENCH_HARNESS_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "sim/stats.h"

namespace perfbench {

namespace sim = tilecomp::sim;

// A point on (or a span of) both host clocks, seconds.
struct HostTime {
  double wall_s = 0.0;
  double cpu_s = 0.0;  // process CPU time, all threads

  HostTime operator-(const HostTime& o) const {
    return {wall_s - o.wall_s, cpu_s - o.cpu_s};
  }
  HostTime& operator+=(const HostTime& o) {
    wall_s += o.wall_s;
    cpu_s += o.cpu_s;
    return *this;
  }
};
HostTime HostNow();

// One host-clock span: a call into a layer, or the benchmark's own glue.
struct Span {
  std::string name;
  std::string layer;
  HostTime start;
  HostTime end;
  int parent = -1;  // index into the log, -1 for a root
  uint64_t op = 0;  // operation id: the query, request leg or round
};

// Spans of the traced episodes, kept in memory and written out at exit.
// Single-threaded: every span the benchmark records opens and closes on the
// main thread, so nesting follows an explicit stack.
class SpanLog {
 public:
  void set_recording(bool on) { recording_ = on; }

  // Returns the span's index, or -1 when not recording.
  int Open(const char* name, const char* layer, uint64_t op, HostTime now);
  void Close(int id, HostTime now);

  const std::vector<Span>& spans() const { return spans_; }

  // Self time of every span (its duration minus the part its children
  // cover), summed per layer, on both clocks.
  std::map<std::string, HostTime> SelfTimeByLayer() const;
  // Total CPU seconds of the spans named `name`.
  double TotalCpuSeconds(const std::string& name) const;
  size_t Count(const std::string& name) const;

  bool WriteJson(const std::string& path) const;

 private:
  bool recording_ = false;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

// Run fn() and return its host time; when the log records, fn() also
// becomes a span named `name` in `layer`.
template <typename Fn>
HostTime Timed(SpanLog& log, const char* name, const char* layer, uint64_t op,
               Fn&& fn) {
  const HostTime t0 = HostNow();
  const int id = log.Open(name, layer, op, t0);
  fn();
  const HostTime t1 = HostNow();
  log.Close(id, t1);
  return t1 - t0;
}

// Device-clock tally over a set of kernel launches.
struct DeviceTally {
  double hash_build_ms = 0.0;  // launches labeled "hash.build"
  double other_ms = 0.0;       // every other launch
  uint64_t launches = 0;
  uint64_t tiles_decoded = 0;
  uint64_t tiles_pruned = 0;
  uint64_t global_bytes_read = 0;
  // Modeled ms per perf-model limiter, indexed by sim::Limiter.
  std::array<double, 5> limiter_ms{};

  void Add(const sim::KernelResult& launch);
  void Add(const std::vector<sim::KernelResult>& launches) {
    for (const sim::KernelResult& l : launches) Add(l);
  }
  double total_ms() const { return hash_build_ms + other_ms; }
};

// Σ grid_dim over launches: the block count the simulator executed on host.
uint64_t GridBlocks(const std::vector<sim::KernelResult>& launches);

double Median(std::vector<double> v);

// A host rate (work per CPU second) sampled once per stretch of repeated
// work (a pass, or an episode), reported as the median over samples so a
// disturbed stretch cannot move it.
class RateSamples {
 public:
  void Add(double work, double seconds) {
    work_ += work;
    seconds_ += seconds;
  }
  // Close the current sample.
  void EndSample() {
    if (seconds_ > 0.0) samples_.push_back(work_ / seconds_);
    total_work_ += work_;
    total_seconds_ += seconds_;
    work_ = seconds_ = 0.0;
  }
  double median() const { return Median(samples_); }
  const std::vector<double>& samples() const { return samples_; }
  double total_work() const { return total_work_; }
  double total_seconds() const { return total_seconds_; }

 private:
  double work_ = 0.0, seconds_ = 0.0;
  double total_work_ = 0.0, total_seconds_ = 0.0;
  std::vector<double> samples_;
};
// Nearest-rank percentile (the serving layer's definition).
double Percentile(const std::vector<double>& v, int q_pct);
double Geomean(const std::vector<double>& v);
// |a - b| / |b|, 0 when both are 0.
double RelDiff(double a, double b);
double PeakRssMb();

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

// Share of the tally's modeled ms per perf-model limiter, as
// sim.limiter_share.<limiter> metrics.
void AddLimiterShares(const DeviceTally& tally, Metrics* out);

// Minimal JSON object writer; numbers keep 12 significant digits.
class JsonObject {
 public:
  JsonObject& Num(const std::string& key, double v);
  JsonObject& Int(const std::string& key, uint64_t v);
  JsonObject& Bool(const std::string& key, bool v);
  JsonObject& Str(const std::string& key, const std::string& v);
  JsonObject& Raw(const std::string& key, const std::string& json);
  std::string str() const { return "{" + body_ + "}"; }

 private:
  void Key(const std::string& key);
  std::string body_;
};
std::string JsonNumberList(const std::vector<double>& v);
std::string JsonMetrics(const Metrics& metrics);

struct Config {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Corrupt the first verified answer, to show the correctness check trips.
  bool corrupt = false;
  // Shrink every workload (about 10x fewer rows and operations) for the
  // self-test; never used for a measurement.
  bool quick = false;
};

// Correctness bookkeeping shared by every workload. `failed` counts
// operations that returned a non-ok status or an answer that differs from
// the host reference; `refused` counts requests shed by admission control.
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t refused = 0;
  std::vector<std::string> errors;  // first few failures, for stderr

  void Fail(const std::string& what);
};

// One workload. The main loop runs episodes until their measured phases have
// taken Config::seconds of wall time (and at least 3): each episode builds
// its state from the seed (Setup, which is what setup_s times), then runs a
// fixed quota of timed operations (Measure), verifying every answer. Device
// metrics come from a fixed set of early episodes, so they do not depend on
// how many episodes the host had time for.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual void Setup(SpanLog& log, int episode) = 0;
  virtual void Measure(SpanLog& log, int episode) = 0;
  virtual void Teardown() = 0;

  // End-to-end metrics except setup_s and peak_rss_mb, which the main loop
  // measures. Called after the last episode.
  virtual void EndToEnd(Metrics* out) const = 0;
  // Per-layer metrics that do not come from spans.
  virtual void PerLayer(Metrics* out) const = 0;
  // Everything needed to reproduce the run, plus per-metric sample counts
  // and the observed device drift.
  virtual std::string Describe() const = 0;
  // Device numbers must repeat exactly (checked by the main loop against the
  // drift the workload reports).
  virtual bool device_must_repeat() const { return false; }
  // Largest relative difference between the device end-to-end numbers of
  // two runs of identical inputs.
  virtual double device_drift() const = 0;

  const Tally& tally() const { return tally_; }

 protected:
  Tally tally_;
};

std::unique_ptr<Workload> MakeSsbCold(const Config& config);
std::unique_ptr<Workload> MakeServeOpen(const Config& config);
std::unique_ptr<Workload> MakeIngestMixed(const Config& config);

// Derive an independent 64-bit stream seed from (seed, salt).
uint64_t MixSeed(uint64_t seed, uint64_t salt);

}  // namespace perfbench

#endif  // TILECOMP_PERFBENCH_HARNESS_H_

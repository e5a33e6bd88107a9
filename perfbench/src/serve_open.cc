// serve_open: open-loop serving. About 100k lineorder rows encoded as
// GPU-*, served by serve::Server::ServeLoad to a Poisson stream over the 13
// queries (Zipf alpha 1.2) at three fixed absolute offered rates. Each rate
// gets its own server: 4 streams, a bounded shed-low-priority admission
// queue, a tile cache at half the working set and prewarmed hash tables.
// Cache, admission and queueing do the work here; hash builds do none.
//
// The rates and the p99 limit are frozen numbers, chosen once at roughly
// 0.3x, 0.7x and 1.1x of the modeled capacity, so a faster build is not
// offered more load. Each episode draws fresh schedules from (seed,
// episode); device metrics pool the first kDeviceEpisodes episodes, so they
// rest on a fixed 9000 nominal-rate requests (3000 at the other rates)
// whatever the host speed. Episode 0 also replays its 10k q/s schedule on a
// fresh, identical server: the two runs differ only by cache-ordering
// drift, which the workload records. After each leg the table is encoded
// again (kEncodesPerLeg times) to sample encode speed on the served data.
#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <memory>
#include <set>

#include "codec/systems.h"
#include "harness.h"
#include "load/load_gen.h"
#include "serve/server.h"
#include "ssb/generator.h"
#include "ssb/queries.h"

namespace perfbench {
namespace {

namespace serve = tilecomp::serve;
namespace ssb = tilecomp::ssb;
using ssb::QueryId;

constexpr std::array<double, 3> kRatesQps = {10000.0, 25000.0, 40000.0};
constexpr size_t kNominal = 1;  // index of the nominal rate
constexpr double kP99LimitMs = 1.0;
constexpr double kMaxRefusedFrac = 0.01;
constexpr double kZipfAlpha = 1.2;
constexpr int kStreams = 4;
constexpr size_t kQueueCapacity = 16;
// queue_ms + latency_ms must equal e2e_ms within this many ms per request.
constexpr double kPartsToleranceMs = 1e-9;
constexpr int kDeviceEpisodes = 3;
constexpr int kEncodesPerLeg = 6;
// The nominal rate's leg is this many times longer than the others: its
// e2e p99 is the noisiest device metric.
constexpr size_t kNominalLegFactor = 3;
// A server per rate, and in episode 0 one more that replays the first
// rate's schedule.
constexpr size_t kServers = kRatesQps.size() + 1;
constexpr size_t kReplay = kRatesQps.size();
constexpr size_t kReplayed = 0;

// Device-clock outcome of one rate leg.
struct Leg {
  std::vector<double> e2e_ms;  // ok requests
  std::vector<double> queue_ms;
  std::vector<double> service_ms;
  uint64_t offered = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t failed = 0;
  double makespan_ms = 0.0;
  uint64_t max_queue_depth = 0;
  serve::TileCache::Stats cache;

  // Fold another leg at the same rate into this one.
  void Merge(const Leg& o) {
    e2e_ms.insert(e2e_ms.end(), o.e2e_ms.begin(), o.e2e_ms.end());
    queue_ms.insert(queue_ms.end(), o.queue_ms.begin(), o.queue_ms.end());
    service_ms.insert(service_ms.end(), o.service_ms.begin(), o.service_ms.end());
    offered += o.offered;
    ok += o.ok;
    shed += o.shed;
    failed += o.failed;
    makespan_ms += o.makespan_ms;
    max_queue_depth = std::max(max_queue_depth, o.max_queue_depth);
    cache.hits += o.cache.hits;
    cache.prefetch_hits += o.cache.prefetch_hits;
    cache.misses += o.cache.misses;
    cache.evictions += o.cache.evictions;
    cache.saved_bytes += o.cache.saved_bytes;
  }

  double p99() const { return Percentile(e2e_ms, 99); }
  bool meets_limit() const {
    return offered > 0 && p99() <= kP99LimitMs &&
           static_cast<double>(shed + failed) <=
               kMaxRefusedFrac * static_cast<double>(offered);
  }
  double goodput_qps() const { return 1000.0 * ok / makespan_ms; }
  double hit_rate() const {
    const uint64_t lookups = cache.hits + cache.prefetch_hits + cache.misses;
    return lookups == 0 ? 0.0
                        : static_cast<double>(cache.hits + cache.prefetch_hits) /
                              static_cast<double>(lookups);
  }
};

// The goodput of a sweep: ok requests per modeled second at the highest
// offered rate that meets the latency limit (0 when none does).
double SweepGoodput(const std::array<Leg, kRatesQps.size()>& legs) {
  for (size_t i = legs.size(); i-- > 0;) {
    if (legs[i].meets_limit()) return legs[i].goodput_qps();
  }
  return 0.0;
}

class ServeOpen : public Workload {
 public:
  explicit ServeOpen(const Config& config)
      : config_(config),
        row_divisor_(config.quick ? 600 : 60),
        requests_per_rate_(config.quick ? 200 : 1000) {}

  void Setup(SpanLog& log, int episode) override {
    ssb::GeneratorOptions gen;
    gen.seed = config_.seed;
    gen.row_divisor = row_divisor_;
    Timed(log, "ssb::GenerateSsb", "ssb", 0, [&] {
      data_ = std::make_unique<ssb::SsbData>(ssb::GenerateSsb(gen));
    });
    Timed(log, "ssb::EncodeLineorder", "codec", 0, [&] {
      enc_ = std::make_unique<ssb::EncodedLineorder>(
          ssb::EncodeLineorder(*data_, tilecomp::codec::System::kGpuStar));
    });
    {
      ssb::QueryRunner reference(*data_);
      for (QueryId q : ssb::AllQueries()) {
        Timed(log, "QueryRunner::RunHostReference", "ssb",
              static_cast<uint64_t>(q),
              [&] { ref_[q] = reference.RunHostReference(q); });
      }
    }
    for (size_t i = 0; i < kRatesQps.size(); ++i) {
      tilecomp::load::OpenLoopOptions o;
      o.rate_qps = kRatesQps[i];
      o.num_queries =
          requests_per_rate_ * (i == kNominal ? kNominalLegFactor : 1);
      o.zipf_alpha = kZipfAlpha;
      o.seed = MixSeed(config_.seed, 100 * static_cast<uint64_t>(episode) + i);
      Timed(log, "load::GenOpenLoop", "load", i,
            [&] { schedules_[i] = tilecomp::load::GenOpenLoop(o); });
    }

    // Working set: decoded bytes of every lineorder column the mix reads.
    std::set<ssb::LoCol> cols;
    for (QueryId q : ssb::AllQueries()) {
      for (ssb::LoCol c : ssb::QueryColumns(q)) cols.insert(c);
    }
    const uint64_t tiles = (data_->lineorder.size() + 511) / 512;
    working_set_bytes_ = cols.size() * tiles * 512 * sizeof(uint32_t);
    cache_budget_bytes_ = working_set_bytes_ / 2;
    rows_ = data_->lineorder.size();
    uncompressed_bytes_ = rows_ * ssb::kNumLoCols * sizeof(uint32_t);
    stored_bytes_ = enc_->compressed_bytes();

    serve::ServeOptions options;
    options.num_streams = kStreams;
    options.cache_budget_bytes = cache_budget_bytes_;
    options.reuse_hash_tables = true;
    options.admission.policy = serve::AdmissionPolicy::kShedLowPriority;
    options.admission.queue_capacity = kQueueCapacity;
    const size_t servers = episode == 0 ? kServers : kRatesQps.size();
    for (size_t i = 0; i < servers; ++i) {
      devs_[i] = std::make_unique<tilecomp::sim::Device>();
      servers_[i] =
          std::make_unique<serve::Server>(*devs_[i], *data_, *enc_, options);
      Timed(log, "Server::Prewarm", "serve", i,
            [&] { servers_[i]->Prewarm(ssb::AllQueries()); });
    }
  }

  void Measure(SpanLog& log, int episode) override {
    std::array<Leg, kServers> legs;
    const size_t servers = episode == 0 ? kServers : kRatesQps.size();
    for (size_t i = 0; i < servers; ++i) {
      const size_t rate = i == kReplay ? kReplayed : i;
      tilecomp::load::OpenLoopWorkload workload(schedules_[rate],
                                                tilecomp::load::WorkloadSpec());
      serve::ServeReport report;
      const double host_s = Timed(log, "Server::ServeLoad", "serve", i, [&] {
        report = servers_[i]->ServeLoad(workload);
      }).cpu_s;
      ++serve_calls_;
      Timed(log, "verify", "bench", i, [&] { Check(report, &legs[i]); });
      requests_.Add(static_cast<double>(legs[i].ok), host_s);
      if (i != kReplay) {
        for (int k = 0; k < kEncodesPerLeg; ++k) Reencode(log);
      }
      const bool pooled = episode < kDeviceEpisodes && i != kReplay;
      for (const serve::ServedQuery& sq : report.queries) {
        if (sq.status != serve::QueryStatus::kOk) continue;
        serve_blocks_ += GridBlocks(sq.result.launches);
        if (pooled && i == kNominal) device_.Add(sq.result.launches);
      }
      if (pooled) pooled_[i].Merge(legs[i]);
    }
    requests_.EndSample();
    if (episode != 0) return;
    // The replay served the same schedule on an identical server; only
    // cache-ordering drift separates the two.
    const Leg& a = legs[kReplay];
    const Leg& b = legs[kReplayed];
    drift_ = std::max({RelDiff(Percentile(a.e2e_ms, 50), Percentile(b.e2e_ms, 50)),
                       RelDiff(a.p99(), b.p99()),
                       RelDiff(Geomean(a.e2e_ms), Geomean(b.e2e_ms))});
    eviction_drift_ = RelDiff(static_cast<double>(a.cache.evictions),
                              static_cast<double>(b.cache.evictions));
  }

  void Teardown() override {
    for (auto& s : servers_) s.reset();
    for (auto& d : devs_) d.reset();
    ref_.clear();
    enc_.reset();
    data_.reset();
  }

  void EndToEnd(Metrics* out) const override {
    const Leg& nom = pooled_[kNominal];
    out->push_back({"host_qps", requests_.median(), "1/s"});
    out->push_back({"device_geomean_ms", Geomean(nom.e2e_ms), "ms"});
    out->push_back({"device_p50_ms", Percentile(nom.e2e_ms, 50), "ms"});
    out->push_back({"device_p99_ms", nom.p99(), "ms"});
    out->push_back({"goodput_qps", SweepGoodput(pooled_), "1/s"});
    out->push_back({"compression_ratio",
                    static_cast<double>(uncompressed_bytes_) /
                        static_cast<double>(stored_bytes_),
                    "x"});
    out->push_back({"encode_mvals_s", encode_.median(), "Mval/s"});
  }

  void PerLayer(Metrics* out) const override {
    const Leg& nom = pooled_[kNominal];
    const double n = static_cast<double>(nom.ok);
    uint64_t shed = 0, max_depth = 0;
    for (const Leg& leg : pooled_) {
      shed += leg.shed;
      max_depth = std::max(max_depth, leg.max_queue_depth);
    }
    out->push_back({"codec.stored_bytes", static_cast<double>(stored_bytes_), "B"});
    out->push_back({"codec.space_amp", 1.0, "x"});
    out->push_back({"crystal.hash_build_ms", device_.hash_build_ms / n, "ms"});
    out->push_back({"crystal.query_ms", device_.other_ms / n, "ms"});
    out->push_back({"crystal.tiles_decoded", static_cast<double>(device_.tiles_decoded), "count"});
    out->push_back({"crystal.tiles_pruned", static_cast<double>(device_.tiles_pruned), "count"});
    out->push_back({"sim.launches", static_cast<double>(device_.launches), "count"});
    out->push_back({"sim.global_bytes_read", static_cast<double>(device_.global_bytes_read), "B"});
    out->push_back({"sim.host_us_per_block",
                    1e6 * requests_.total_seconds() / static_cast<double>(serve_blocks_),
                    "us"});
    AddLimiterShares(device_, out);
    out->push_back({"serve.cache_hit_rate", nom.hit_rate(), "ratio"});
    out->push_back({"serve.cache_evictions", static_cast<double>(nom.cache.evictions), "count"});
    out->push_back({"serve.cache_saved_bytes", static_cast<double>(nom.cache.saved_bytes), "B"});
    out->push_back({"serve.queue_p99_ms", Percentile(nom.queue_ms, 99), "ms"});
    out->push_back({"serve.service_p99_ms", Percentile(nom.service_ms, 99), "ms"});
    out->push_back({"serve.shed", static_cast<double>(shed), "count"});
    out->push_back({"serve.max_queue_depth", static_cast<double>(max_depth), "count"});
    for (size_t i = 0; i < kRatesQps.size(); ++i) {
      out->push_back({RateMetricName(i), pooled_[i].p99(), "ms"});
    }
    out->push_back({"serve.cache_evictions_drift_frac", eviction_drift_, "ratio"});
  }

  std::string Describe() const override {
    JsonObject legs;
    for (size_t i = 0; i < kRatesQps.size(); ++i) {
      const Leg& leg = pooled_[i];
      legs.Raw(std::to_string(static_cast<int>(kRatesQps[i])),
               JsonObject()
                   .Int("offered", leg.offered)
                   .Int("ok", leg.ok)
                   .Int("shed", leg.shed)
                   .Int("failed", leg.failed)
                   .Num("p50_e2e_ms", Percentile(leg.e2e_ms, 50))
                   .Num("p99_e2e_ms", leg.p99())
                   .Num("makespan_ms", leg.makespan_ms)
                   .Num("goodput_qps", leg.goodput_qps())
                   .Bool("meets_limit", leg.meets_limit())
                   .Num("cache_hit_rate", leg.hit_rate())
                   .Int("cache_evictions", leg.cache.evictions)
                   .str());
    }
    std::vector<double> rates(kRatesQps.begin(), kRatesQps.end());
    return JsonObject()
        .Str("system", "GPU-*")
        .Int("rows", rows_)
        .Int("row_divisor", row_divisor_)
        .Raw("rates_qps", JsonNumberList(rates))
        .Num("nominal_rate_qps", kRatesQps[kNominal])
        .Int("requests_per_leg", requests_per_rate_)
        .Int("nominal_leg_factor", kNominalLegFactor)
        .Int("device_episodes", kDeviceEpisodes)
        .Str("arrivals", "open-loop Poisson, zipf alpha 1.2 over 13 queries")
        .Num("p99_limit_ms", kP99LimitMs)
        .Int("encodes_per_leg", kEncodesPerLeg)
        .Num("max_refused_frac", kMaxRefusedFrac)
        .Int("streams", kStreams)
        .Int("queue_capacity", kQueueCapacity)
        .Str("admission", "shed-low-priority")
        .Int("working_set_bytes", working_set_bytes_)
        .Int("cache_budget_bytes", cache_budget_bytes_)
        .Num("cache_budget_frac", static_cast<double>(cache_budget_bytes_) /
                                      static_cast<double>(working_set_bytes_))
        .Num("parts_tolerance_ms", kPartsToleranceMs)
        .Num("max_parts_residual_ms", max_parts_residual_ms_)
        .Raw("legs", legs.str())
        .Raw("samples", JsonObject()
                            .Int("ok_requests", static_cast<uint64_t>(requests_.total_work()))
                            .Int("device_e2e_ms", pooled_[kNominal].e2e_ms.size())
                            .Int("device_requests_per_rate", pooled_[kNominal].offered)
                            .Int("serve_load_calls", serve_calls_)
                            .Int("encode_calls", encode_calls_)
                            .str())
        .Raw("host_qps_samples", JsonNumberList(requests_.samples()))
        .Raw("encode_mvals_s_samples", JsonNumberList(encode_.samples()))
        .Num("device_drift_frac", drift_)
        .Num("cache_evictions_drift_frac", eviction_drift_)
        .str();
  }

  double device_drift() const override { return drift_; }

 private:
  static std::string RateMetricName(size_t i) {
    return "serve.p99_e2e_ms." + std::to_string(static_cast<int>(kRatesQps[i]));
  }

  // Re-encode the served table between legs, as a periodic refresh would,
  // and check it stores exactly what the first encode did. Serving never
  // sees the copy; this samples encode speed on the serving data.
  void Reencode(SpanLog& log) {
    ssb::EncodedLineorder again;
    const double cpu_s = Timed(log, "ssb::EncodeLineorder", "codec", 0, [&] {
      again = ssb::EncodeLineorder(*data_, tilecomp::codec::System::kGpuStar);
    }).cpu_s;
    encode_.Add(static_cast<double>(rows_ * ssb::kNumLoCols) / 1e6, cpu_s);
    encode_.EndSample();
    ++encode_calls_;
    ++tally_.attempted;
    if (again.compressed_bytes() != enc_->compressed_bytes()) {
      tally_.Fail("serve_open: a repeated EncodeLineorder stored different bytes");
    }
  }

  // Verify every request of one leg and fold it into `leg`.
  void Check(serve::ServeReport& report, Leg* leg) {
    leg->offered = report.queries.size();
    leg->makespan_ms = report.makespan_ms;
    leg->max_queue_depth = report.admission.max_queue_depth;
    leg->cache = report.cache;
    for (serve::ServedQuery& sq : report.queries) {
      ++tally_.attempted;
      if (sq.status == serve::QueryStatus::kShed) {
        ++tally_.refused;
        ++leg->shed;
        continue;
      }
      if (sq.status != serve::QueryStatus::kOk) {
        ++leg->failed;
        tally_.Fail(std::string("serve_open: request status ") +
                    serve::QueryStatusName(sq.status));
        continue;
      }
      if (config_.corrupt && !corrupted_) {
        corrupted_ = true;
        if (sq.result.groups.empty()) {
          sq.result.groups[{0, 0, 0}] = 1;
        } else {
          sq.result.groups.begin()->second += 1;
        }
      }
      if (sq.result.groups != ref_.at(sq.query).groups) {
        ++leg->failed;
        tally_.Fail(std::string("serve_open: ") + ssb::QueryName(sq.query) +
                    " differs from RunHostReference");
        continue;
      }
      // The request's parts must sum to its whole.
      const double residual = std::fabs(sq.queue_ms + sq.latency_ms - sq.e2e_ms);
      max_parts_residual_ms_ = std::max(max_parts_residual_ms_, residual);
      if (residual > kPartsToleranceMs) {
        ++leg->failed;
        tally_.Fail("serve_open: queue_ms + latency_ms != e2e_ms");
        continue;
      }
      ++leg->ok;
      leg->e2e_ms.push_back(sq.e2e_ms);
      leg->queue_ms.push_back(sq.queue_ms);
      leg->service_ms.push_back(sq.latency_ms);
    }
  }

  const Config config_;
  const uint32_t row_divisor_;
  const size_t requests_per_rate_;

  std::unique_ptr<ssb::SsbData> data_;
  std::unique_ptr<ssb::EncodedLineorder> enc_;
  std::map<QueryId, ssb::QueryResult> ref_;
  std::array<tilecomp::load::Schedule, kRatesQps.size()> schedules_;
  std::array<std::unique_ptr<tilecomp::sim::Device>, kServers> devs_;
  std::array<std::unique_ptr<serve::Server>, kServers> servers_;

  bool corrupted_ = false;
  uint64_t rows_ = 0;
  uint64_t working_set_bytes_ = 0;
  uint64_t cache_budget_bytes_ = 0;
  uint64_t uncompressed_bytes_ = 0;
  uint64_t stored_bytes_ = 0;
  RateSamples encode_;    // M values per host second in EncodeLineorder
  uint64_t encode_calls_ = 0;
  RateSamples requests_;  // ok requests per host second in ServeLoad
  uint64_t serve_calls_ = 0;
  uint64_t serve_blocks_ = 0;
  double max_parts_residual_ms_ = 0.0;
  // Device clock, pooled over the first kDeviceEpisodes episodes.
  std::array<Leg, kRatesQps.size()> pooled_;
  DeviceTally device_;
  double drift_ = 0.0;
  double eviction_drift_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> MakeServeOpen(const Config& config) {
  return std::make_unique<ServeOpen>(config);
}

}  // namespace perfbench

// ingest_mixed: writes beside reads. A codec::MutableColumn grows by batched
// Appends whose bit width drifts round to round. Each round then applies
// random Patches that change values and bit widths, runs ReencodeDirty and
// Compact on the caller's thread, and finishes with a wave of range
// count/sum scans served through serve::MutableColumnAccessor and a
// TileCache whose budget holds the whole column. Every scan is checked
// against a host reference answer computed during setup, and the final
// column against the host's copy.
//
// Re-encode runs between waves rather than racing them, so the device
// numbers depend only on the seed and not on host scheduling.
#include <algorithm>
#include <atomic>
#include <memory>
#include <string>

#include "codec/column.h"
#include "codec/mutable_column.h"
#include "common/random.h"
#include "crystal/load_column.h"
#include "harness.h"
#include "serve/mutable_loader.h"
#include "serve/tile_cache.h"
#include "sim/device.h"

namespace perfbench {
namespace {

namespace codec = tilecomp::codec;
namespace crystal = tilecomp::crystal;
namespace serve = tilecomp::serve;

// Compact after every round: at 1.0 the rewrite always runs.
constexpr double kCompactThreshold = 1.0;
// The cache budget, as a multiple of the final column's decoded bytes.
constexpr uint64_t kCacheFactor = 2;

struct Range {
  uint32_t lo = 0;
  uint32_t hi = 0;
};

struct ScanOut {
  uint64_t count = 0;
  uint64_t sum = 0;

  bool operator==(const ScanOut& o) const {
    return count == o.count && sum == o.sum;
  }
};

struct Round {
  std::vector<uint32_t> batch;
  std::vector<std::pair<int64_t, uint32_t>> patches;  // (row, value)
  std::vector<Range> scans;
  std::vector<ScanOut> expected;  // host reference answer of each scan
};

// One range count/sum scan over the first `rows` rows, one block per tile:
// pushdown against the live zone bounds, then a cached or charged decode of
// surviving tiles.
tilecomp::sim::KernelResult Scan(tilecomp::sim::Device& dev,
                                 serve::MutableColumnAccessor& accessor,
                                 codec::ColumnId col_id, int64_t rows,
                                 const Range& q, ScanOut* out) {
  // The accessor reads the mutable store and ignores this argument.
  static const codec::CompressedColumn placeholder;
  const crystal::TilePredicate pred = crystal::TilePredicate::Range(q.lo, q.hi);
  std::atomic<uint64_t> count{0};
  std::atomic<uint64_t> sum{0};
  tilecomp::sim::LaunchConfig lc;
  lc.grid_dim = (rows + crystal::kTileSize - 1) / crystal::kTileSize;
  lc.block_threads = 128;
  lc.smem_bytes_per_block = crystal::kTileSize * 4;
  tilecomp::sim::KernelResult r =
      dev.Launch("ingest.scan", lc, [&](tilecomp::sim::BlockContext& ctx) {
        const int64_t tile = ctx.block_id();
        crystal::TileMask mask = crystal::TileMask::AllSet();
        uint32_t n = accessor.EvaluateOnTile(ctx, placeholder, col_id, tile,
                                             pred, &mask);
        if (!mask.Any()) return;
        uint32_t vals[crystal::kTileSize];
        n = accessor.LoadTile(ctx, placeholder, col_id, tile, vals);
        const int64_t first_row = tile * crystal::kTileSize;
        if (first_row + n > rows) n = static_cast<uint32_t>(rows - first_row);
        uint64_t local_sum = 0;
        uint64_t local_count = 0;
        for (uint32_t i = 0; i < n; ++i) {
          if (!mask.Test(i)) continue;
          local_sum += vals[i];
          ++local_count;
        }
        count.fetch_add(local_count, std::memory_order_relaxed);
        sum.fetch_add(local_sum, std::memory_order_relaxed);
      });
  out->count = count.load();
  out->sum = sum.load();
  return r;
}

ScanOut HostScan(const std::vector<uint32_t>& host, const Range& q) {
  ScanOut out;
  for (uint32_t v : host) {
    if (v >= q.lo && v <= q.hi) {
      ++out.count;
      out.sum += v;
    }
  }
  return out;
}

class IngestMixed : public Workload {
 public:
  explicit IngestMixed(const Config& config)
      : config_(config),
        rounds_(config.quick ? 6 : 24),
        batch_(config.quick ? 2000 : 8000),
        patches_(config.quick ? 64 : 256),
        scans_(config.quick ? 24 : 48) {}

  void Setup(SpanLog& log, int /*episode*/) override {
    // Every input of the episode, drawn from the seed before the first
    // timed operation.
    Timed(log, "generate", "bench", 0, [&] {
      tilecomp::Rng rng(config_.seed);
      inputs_.assign(static_cast<size_t>(rounds_), Round());
      int64_t rows = 0;
      for (int r = 0; r < rounds_; ++r) {
        Round& round = inputs_[static_cast<size_t>(r)];
        const uint32_t bits = 6 + static_cast<uint32_t>((r * 5) % 18);
        round.batch.resize(static_cast<size_t>(batch_));
        for (uint32_t& v : round.batch) {
          v = static_cast<uint32_t>(rng.NextBounded(1ull << bits));
        }
        rows += batch_;
        for (int p = 0; p < patches_; ++p) {
          // A fresh value of a random width, so a patch can widen or
          // narrow its tile.
          const uint32_t width = 4 + static_cast<uint32_t>(rng.NextBounded(25));
          round.patches.emplace_back(
              static_cast<int64_t>(rng.NextBounded(static_cast<uint64_t>(rows))),
              static_cast<uint32_t>(rng.NextBounded(1ull << width)));
        }
        for (int s = 0; s < scans_; ++s) {
          Range q;
          q.lo = static_cast<uint32_t>(rng.NextBounded(1u << 20));
          q.hi = q.lo + static_cast<uint32_t>(rng.NextBounded(1u << 22));
          round.scans.push_back(q);
        }
      }
    });
    // Host reference: replay the rounds on a plain vector and answer every
    // scan from it.
    Timed(log, "host_reference", "bench", 0, [&] {
      host_.clear();
      for (Round& round : inputs_) {
        host_.insert(host_.end(), round.batch.begin(), round.batch.end());
        for (const auto& [row, value] : round.patches) {
          host_[static_cast<size_t>(row)] = value;
        }
        round.expected.clear();
        for (const Range& q : round.scans) {
          round.expected.push_back(HostScan(host_, q));
        }
      }
    });
    final_rows_ = static_cast<uint64_t>(rounds_) * static_cast<uint64_t>(batch_);
    cache_budget_bytes_ = kCacheFactor * ColumnBytes();
    col_ = std::make_unique<codec::MutableColumn>(kColumn);
    cache_ = std::make_unique<serve::TileCache>(cache_budget_bytes_);
    accessor_ = std::make_unique<serve::MutableColumnAccessor>(col_.get(),
                                                               cache_.get());
    dev_ = std::make_unique<tilecomp::sim::Device>();
  }

  void Measure(SpanLog& log, int episode) override {
    std::vector<double> scan_ms;
    std::vector<double> space_amp;
    uint64_t reclaimed = 0;
    DeviceTally device;
    for (int r = 0; r < rounds_; ++r) {
      const Round& round = inputs_[static_cast<size_t>(r)];
      double write_s = Timed(log, "MutableColumn::Append", "codec", r, [&] {
        col_->Append(tilecomp::U32Span(round.batch.data(), round.batch.size()));
      }).cpu_s;
      for (const auto& [row, value] : round.patches) {
        write_s += Timed(log, "MutableColumn::Patch", "codec", r,
                         [&] { col_->Patch(row, value); }).cpu_s;
      }
      write_s += Timed(log, "MutableColumn::ReencodeDirty", "codec", r,
                       [&] { col_->ReencodeDirty(nullptr); }).cpu_s;
      space_amp.push_back(col_->GetStats().space_amplification);
      write_s += Timed(log, "MutableColumn::Compact", "codec", r, [&] {
        reclaimed += col_->Compact(kCompactThreshold);
      }).cpu_s;
      write_rate_.Add(static_cast<double>(round.batch.size() + round.patches.size()) / 1e6,
                  write_s);

      const int64_t rows = col_->size();
      for (size_t s = 0; s < round.scans.size(); ++s) {
        const Range& q = round.scans[s];
        ScanOut got;
        tilecomp::sim::KernelResult k;
        scan_rate_.Add(1, Timed(log, "Device::Launch(ingest.scan)", "sim", r, [&] {
          k = Scan(*dev_, *accessor_, kColumn, rows, q, &got);
        }).cpu_s);
        scan_blocks_ += static_cast<uint64_t>(k.config.grid_dim);
        ++tally_.attempted;
        Timed(log, "verify", "bench", r, [&] {
          if (config_.corrupt && !corrupted_) {
            corrupted_ = true;
            got.count += 1;
          }
          if (!(got == round.expected[s])) {
            tally_.Fail("ingest_mixed: round " + std::to_string(r) + " scan " +
                        std::to_string(s) + " differs from the host reference");
          }
        });
        scan_ms.push_back(k.time_ms);
        device.Add(k);
      }
    }
    ++tally_.attempted;
    Timed(log, "verify", "bench", 0, [&] {
      if (col_->DecodeHost() != host_) {
        tally_.Fail("ingest_mixed: final column differs from the host reference");
      }
    });

    scan_rate_.EndSample();
    write_rate_.EndSample();
    const codec::MutableColumn::Stats st = col_->GetStats();
    const serve::TileCache::Stats cs = cache_->stats();
    if (episode == 0) {
      scan_ms0_ = scan_ms;
      device0_ = device;
      stats0_ = st;
      cache0_ = cs;
      reclaimed0_ = reclaimed;
      space_amp0_ = space_amp;
      side_buffer_loads0_ = accessor_->side_buffer_loads();
      extent_loads0_ = accessor_->extent_loads();
      invalidations0_ = accessor_->invalidations_forwarded();
      return;
    }
    drift_ = std::max({drift_, RelDiff(Percentile(scan_ms, 50), Percentile(scan_ms0_, 50)),
                       RelDiff(Percentile(scan_ms, 99), Percentile(scan_ms0_, 99)),
                       RelDiff(Geomean(scan_ms), Geomean(scan_ms0_)),
                       RelDiff(device.total_ms(), device0_.total_ms())});
    eviction_drift_ =
        std::max(eviction_drift_, RelDiff(static_cast<double>(cs.evictions),
                                          static_cast<double>(cache0_.evictions)));
  }

  void Teardown() override {
    accessor_.reset();  // unregisters from the column
    cache_.reset();
    col_.reset();
    dev_.reset();
  }

  void EndToEnd(Metrics* out) const override {
    out->push_back({"host_qps", scan_rate_.median(), "1/s"});
    out->push_back({"device_geomean_ms", Geomean(scan_ms0_), "ms"});
    out->push_back({"device_p50_ms", Percentile(scan_ms0_, 50), "ms"});
    out->push_back({"device_p99_ms", Percentile(scan_ms0_, 99), "ms"});
    out->push_back({"goodput_qps",
                    1000.0 * static_cast<double>(scan_ms0_.size()) / device0_.total_ms(),
                    "1/s"});
    out->push_back({"compression_ratio",
                    static_cast<double>(stats0_.rows) /
                        static_cast<double>(stats0_.arena_words),
                    "x"});
    out->push_back({"encode_mvals_s", write_rate_.median(), "Mval/s"});
  }

  void PerLayer(Metrics* out) const override {
    const double n = static_cast<double>(scan_ms0_.size());
    double amp = 0.0;
    for (double a : space_amp0_) amp += a;
    const uint64_t lookups = cache0_.hits + cache0_.prefetch_hits + cache0_.misses;
    out->push_back({"codec.stored_bytes", 4.0 * static_cast<double>(stats0_.arena_words), "B"});
    out->push_back({"codec.space_amp", amp / static_cast<double>(space_amp0_.size()), "x"});
    out->push_back({"codec.reencodes", static_cast<double>(stats0_.reencodes), "count"});
    out->push_back({"codec.reclaimed_words", static_cast<double>(reclaimed0_), "count"});
    out->push_back({"crystal.query_ms", device0_.other_ms / n, "ms"});
    out->push_back({"crystal.tiles_decoded", static_cast<double>(device0_.tiles_decoded), "count"});
    out->push_back({"crystal.tiles_pruned", static_cast<double>(device0_.tiles_pruned), "count"});
    out->push_back({"sim.launches", static_cast<double>(device0_.launches), "count"});
    out->push_back({"sim.global_bytes_read", static_cast<double>(device0_.global_bytes_read), "B"});
    out->push_back({"sim.host_us_per_block",
                    1e6 * scan_rate_.total_seconds() / static_cast<double>(scan_blocks_),
                    "us"});
    AddLimiterShares(device0_, out);
    out->push_back({"serve.cache_hit_rate",
                    lookups == 0 ? 0.0
                                 : static_cast<double>(cache0_.hits + cache0_.prefetch_hits) /
                                       static_cast<double>(lookups),
                    "ratio"});
    out->push_back({"serve.cache_evictions", static_cast<double>(cache0_.evictions), "count"});
    out->push_back({"serve.cache_saved_bytes", static_cast<double>(cache0_.saved_bytes), "B"});
    out->push_back({"serve.invalidations", static_cast<double>(invalidations0_), "count"});
    out->push_back({"serve.stale_inserts_refused", static_cast<double>(cache0_.stale_refused), "count"});
    out->push_back({"serve.side_buffer_loads", static_cast<double>(side_buffer_loads0_), "count"});
    out->push_back({"serve.extent_loads", static_cast<double>(extent_loads0_), "count"});
    out->push_back({"serve.cache_evictions_drift_frac", eviction_drift_, "ratio"});
  }

  std::string Describe() const override {
    return JsonObject()
        .Int("rounds", static_cast<uint64_t>(rounds_))
        .Int("batch_rows", static_cast<uint64_t>(batch_))
        .Int("patches_per_round", static_cast<uint64_t>(patches_))
        .Int("scans_per_round", static_cast<uint64_t>(scans_))
        .Int("final_rows", final_rows_)
        .Str("batch_bits", "6 + (5 * round) % 18")
        .Str("patch_bits", "uniform 4..28")
        .Num("compact_threshold", kCompactThreshold)
        .Str("reencode", "ReencodeDirty(nullptr) and Compact on the caller's "
                         "thread, between scan waves")
        .Int("cache_budget_bytes", cache_budget_bytes_)
        .Num("cache_budget_frac", static_cast<double>(cache_budget_bytes_) /
                                      static_cast<double>(ColumnBytes()))
        .Raw("samples", JsonObject()
                            .Int("scans", static_cast<uint64_t>(scan_rate_.total_work()))
                            .Int("device_scan_ms", scan_ms0_.size())
                            .Num("written_mrows", write_rate_.total_work())
                            .str())
        .Raw("host_qps_samples", JsonNumberList(scan_rate_.samples()))
        .Raw("encode_mvals_s_samples", JsonNumberList(write_rate_.samples()))
        .Num("device_drift_frac", drift_)
        .Num("cache_evictions_drift_frac", eviction_drift_)
        .str();
  }

  double device_drift() const override { return drift_; }

 private:
  static constexpr codec::ColumnId kColumn = codec::ColumnId(1);

  // Decoded bytes of the final column, whole tiles.
  uint64_t ColumnBytes() const {
    return (final_rows_ + crystal::kTileSize - 1) / crystal::kTileSize *
           crystal::kTileSize * sizeof(uint32_t);
  }

  const Config config_;
  const int rounds_;
  const int64_t batch_;
  const int patches_;
  const int scans_;

  std::vector<Round> inputs_;
  std::unique_ptr<codec::MutableColumn> col_;
  std::unique_ptr<serve::TileCache> cache_;
  std::unique_ptr<serve::MutableColumnAccessor> accessor_;
  std::unique_ptr<tilecomp::sim::Device> dev_;
  std::vector<uint32_t> host_;  // the final column, per the host reference

  bool corrupted_ = false;
  uint64_t final_rows_ = 0;
  uint64_t cache_budget_bytes_ = 0;
  // M rows appended or patched per host second in Append, Patch,
  // ReencodeDirty and Compact.
  RateSamples write_rate_;
  RateSamples scan_rate_;  // scans per host second in the scan launch
  uint64_t scan_blocks_ = 0;
  // Episode 0.
  std::vector<double> scan_ms0_;
  std::vector<double> space_amp0_;
  DeviceTally device0_;
  codec::MutableColumn::Stats stats0_;
  serve::TileCache::Stats cache0_;
  uint64_t reclaimed0_ = 0;
  uint64_t side_buffer_loads0_ = 0;
  uint64_t extent_loads0_ = 0;
  uint64_t invalidations0_ = 0;
  double drift_ = 0.0;
  double eviction_drift_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> MakeIngestMixed(const Config& config) {
  return std::make_unique<IngestMixed>(config);
}

}  // namespace perfbench

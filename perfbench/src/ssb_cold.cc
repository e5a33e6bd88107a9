// ssb_cold: the paper's Figure 11 path. About 1M lineorder rows encoded as
// GPU-*; all 13 SSB queries run one-shot through QueryRunner::Run (inline
// decode, pushdown on, hash tables built per query) as a closed loop with a
// single caller, in repeated passes, each pass followed by a fresh
// EncodeLineorder of the same table. No cache, queue or mutation is
// involved, so a change to the serving layer should not move this workload.
#include <algorithm>
#include <map>
#include <memory>

#include "codec/systems.h"
#include "harness.h"
#include "ssb/generator.h"
#include "ssb/queries.h"

namespace perfbench {
namespace {

using tilecomp::ssb::QueryId;

class SsbCold : public Workload {
 public:
  explicit SsbCold(const Config& config)
      : config_(config),
        row_divisor_(config.quick ? 60 : 6),
        passes_(config.quick ? 1 : 3) {}

  void Setup(SpanLog& log, int /*episode*/) override {
    tilecomp::ssb::GeneratorOptions gen;
    gen.seed = config_.seed;
    gen.row_divisor = row_divisor_;
    Timed(log, "ssb::GenerateSsb", "ssb", 0, [&] {
      data_ = std::make_unique<tilecomp::ssb::SsbData>(
          tilecomp::ssb::GenerateSsb(gen));
    });
    Timed(log, "ssb::EncodeLineorder", "codec", 0, [&] {
      enc_ = tilecomp::ssb::EncodeLineorder(*data_,
                                            tilecomp::codec::System::kGpuStar);
    });
    runner_ = std::make_unique<tilecomp::ssb::QueryRunner>(*data_);
    for (QueryId q : tilecomp::ssb::AllQueries()) {
      Timed(log, "QueryRunner::RunHostReference", "ssb",
            static_cast<uint64_t>(q),
            [&] { ref_[q] = runner_->RunHostReference(q); });
    }
  }

  void Measure(SpanLog& log, int episode) override {
    const std::vector<QueryId> queries = tilecomp::ssb::AllQueries();
    const uint64_t values = static_cast<uint64_t>(data_->lineorder.size()) *
                            tilecomp::ssb::kNumLoCols;
    for (int pass = 0; pass < passes_; ++pass) {
      // A fresh device per pass puts every pass at the same timeline
      // positions, so its modeled times repeat bit for bit.
      dev_ = std::make_unique<tilecomp::sim::Device>();
      for (QueryId q : queries) {
        tilecomp::ssb::QueryResult r;
        const double host_s =
            Timed(log, "QueryRunner::Run", "ssb", static_cast<uint64_t>(q),
                  [&] { r = runner_->Run(*dev_, enc_, q); }).cpu_s;
        queries_.Add(1, host_s);
        run_blocks_ += GridBlocks(r.launches);
        ++tally_.attempted;
        Timed(log, "verify", "bench", static_cast<uint64_t>(q), [&] {
          if (config_.corrupt && !corrupted_) {
            corrupted_ = true;
            if (r.groups.empty()) {
              r.groups[{0, 0, 0}] = 1;
            } else {
              r.groups.begin()->second += 1;
            }
          }
          if (r.groups != ref_.at(q).groups) {
            tally_.Fail(std::string("ssb_cold: ") + tilecomp::ssb::QueryName(q) +
                        " differs from RunHostReference");
          }
        });
        if (episode == 0) {
          device_ms_.push_back(r.time_ms);
          tally_device_.Add(r.launches);
        }
        if (episode == 0 && pass == 0) {
          first_pass_ms_[q] = r.time_ms;
        } else {
          drift_ = std::max(drift_, RelDiff(r.time_ms, first_pass_ms_.at(q)));
        }
      }

      tilecomp::ssb::EncodedLineorder again;
      const double enc_s = Timed(log, "ssb::EncodeLineorder", "codec", 0, [&] {
        again = tilecomp::ssb::EncodeLineorder(
            *data_, tilecomp::codec::System::kGpuStar);
      }).cpu_s;
      encode_.Add(static_cast<double>(values) / 1e6, enc_s);
      ++encode_calls_;
      ++tally_.attempted;
      // The repeated encode must store exactly what the first one did, and
      // one column per pass (rotating) must decode back to the input.
      Timed(log, "verify", "bench", 0, [&] {
        const int c = static_cast<int>(verify_col_++ % tilecomp::ssb::kNumLoCols);
        const auto col = static_cast<tilecomp::ssb::LoCol>(c);
        bool same = again.compressed_bytes() == enc_.compressed_bytes();
        for (int i = 0; i < tilecomp::ssb::kNumLoCols; ++i) {
          same = same && again.cols[i].compressed_bytes() ==
                             enc_.cols[i].compressed_bytes();
        }
        if (!same || again.col(col).DecodeHost() != data_->lineorder.column(col)) {
          tally_.Fail(std::string("ssb_cold: EncodeLineorder of ") +
                      tilecomp::ssb::LoColName(col) + " does not round-trip");
        }
      });
      queries_.EndSample();
      encode_.EndSample();
    }
    if (episode == 0) {
      rows_ = data_->lineorder.size();
      uncompressed_bytes_ = values * 4;
      stored_bytes_ = enc_.compressed_bytes();
    }
  }

  void Teardown() override {
    dev_.reset();
    runner_.reset();
    ref_.clear();
    enc_ = tilecomp::ssb::EncodedLineorder();
    data_.reset();
  }

  void EndToEnd(Metrics* out) const override {
    std::vector<double> per_query;
    for (const auto& [q, ms] : first_pass_ms_) per_query.push_back(ms);
    const double ok = static_cast<double>(device_ms_.size());
    double sum_ms = 0.0;
    for (double ms : device_ms_) sum_ms += ms;
    out->push_back({"host_qps", queries_.median(), "1/s"});
    out->push_back({"device_geomean_ms", Geomean(per_query), "ms"});
    out->push_back({"device_p50_ms", Percentile(device_ms_, 50), "ms"});
    out->push_back({"device_p99_ms", Percentile(device_ms_, 99), "ms"});
    out->push_back({"goodput_qps", 1000.0 * ok / sum_ms, "1/s"});
    out->push_back({"compression_ratio",
                    static_cast<double>(uncompressed_bytes_) /
                        static_cast<double>(stored_bytes_),
                    "x"});
    out->push_back({"encode_mvals_s", encode_.median(), "Mval/s"});
  }

  void PerLayer(Metrics* out) const override {
    const double n = static_cast<double>(device_ms_.size());
    const DeviceTally& d = tally_device_;
    out->push_back({"codec.stored_bytes", static_cast<double>(stored_bytes_), "B"});
    out->push_back({"codec.space_amp", 1.0, "x"});
    out->push_back({"crystal.hash_build_ms", d.hash_build_ms / n, "ms"});
    out->push_back({"crystal.query_ms", d.other_ms / n, "ms"});
    out->push_back({"crystal.tiles_decoded", static_cast<double>(d.tiles_decoded), "count"});
    out->push_back({"crystal.tiles_pruned", static_cast<double>(d.tiles_pruned), "count"});
    out->push_back({"sim.launches", static_cast<double>(d.launches), "count"});
    out->push_back({"sim.global_bytes_read", static_cast<double>(d.global_bytes_read), "B"});
    out->push_back({"sim.host_us_per_block",
                    1e6 * queries_.total_seconds() / static_cast<double>(run_blocks_),
                    "us"});
    AddLimiterShares(d, out);
  }

  std::string Describe() const override {
    return JsonObject()
        .Str("system", "GPU-*")
        .Int("rows", rows_)
        .Int("row_divisor", row_divisor_)
        .Int("queries_per_pass", 13)
        .Int("passes_per_episode", static_cast<uint64_t>(passes_))
        .Str("loop", "closed, 1 caller, one-shot Run, pushdown on, hash "
                     "tables built per query")
        .Raw("samples",
             JsonObject()
                 .Int("queries", static_cast<uint64_t>(queries_.total_work()))
                 .Int("device_ms", device_ms_.size())
                 .Int("encode_calls", encode_calls_)
                 .str())
        .Num("device_drift_frac", drift_)
        .Raw("host_qps_samples", JsonNumberList(queries_.samples()))
        .Raw("encode_mvals_s_samples", JsonNumberList(encode_.samples()))
        .str();
  }

  bool device_must_repeat() const override { return true; }
  double device_drift() const override { return drift_; }

 private:
  const Config config_;
  const uint32_t row_divisor_;
  const int passes_;

  std::unique_ptr<tilecomp::ssb::SsbData> data_;
  tilecomp::ssb::EncodedLineorder enc_;
  std::unique_ptr<tilecomp::ssb::QueryRunner> runner_;
  std::map<QueryId, tilecomp::ssb::QueryResult> ref_;
  std::unique_ptr<tilecomp::sim::Device> dev_;

  bool corrupted_ = false;
  uint64_t verify_col_ = 0;
  uint64_t rows_ = 0;
  uint64_t uncompressed_bytes_ = 0;
  uint64_t stored_bytes_ = 0;
  RateSamples queries_;  // queries per host second in QueryRunner::Run
  uint64_t run_blocks_ = 0;
  RateSamples encode_;   // M values per host second in EncodeLineorder
  uint64_t encode_calls_ = 0;
  // Device clock, episode 0.
  std::vector<double> device_ms_;
  std::map<QueryId, double> first_pass_ms_;
  DeviceTally tally_device_;
  double drift_ = 0.0;
};

}  // namespace

std::unique_ptr<Workload> MakeSsbCold(const Config& config) {
  return std::make_unique<SsbCold>(config);
}

}  // namespace perfbench

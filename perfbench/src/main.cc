// perfbench: the repository benchmark binary.
//
//   perfbench --workload ssb_cold|serve_open|ingest_mixed --seed N
//             --seconds S --trace 0|1 [--out DIR] [--quick 1] [--corrupt 1]
//
// Runs episodes of the workload until their measured phases have taken S
// seconds of wall time (at least 3 episodes; 4 when traced), verifies every
// answer, and prints a human summary, a `report` line with everything
// needed to reproduce the run, and, as the last line, one JSON object:
//   {"correct":..,"attempted":..,"failed":..,"metrics":{name:{value,unit}}}
// With --trace 0 the metrics are the end-to-end ones. With --trace 1 the
// odd episodes record host spans and the metrics are the per-layer ones;
// the spans are written to DIR at exit. Exit code 0 iff every check held.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness.h"

namespace perfbench {
namespace {

// On each host clock, |Σ per-layer self time − traced episode time| /
// traced episode time must stay below this.
constexpr double kSelfTimeTolerance = 0.01;

struct Args {
  std::string workload;
  std::string out_dir = ".";
  Config config;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string val = argv[i + 1];
    if (key == "--workload") {
      args->workload = val;
    } else if (key == "--seed") {
      args->config.seed = std::strtoull(val.c_str(), nullptr, 10);
      args->have_seed = true;
    } else if (key == "--seconds") {
      args->config.seconds = std::atof(val.c_str());
      args->have_seconds = args->config.seconds > 0.0;
    } else if (key == "--trace") {
      args->config.trace = val == "1";
      args->have_trace = val == "0" || val == "1";
    } else if (key == "--out") {
      args->out_dir = val;
    } else if (key == "--quick") {
      args->config.quick = val == "1";
    } else if (key == "--corrupt") {
      args->config.corrupt = val == "1";
    } else {
      std::fprintf(stderr, "unknown argument %s\n", key.c_str());
      return false;
    }
  }
  return argc % 2 == 1 && args->have_seed && args->have_seconds &&
         args->have_trace && !args->workload.empty();
}

// The per-layer metrics every workload reports, in output order; a metric a
// workload has no layer for reads 0.
const Metrics& PerLayerCatalog() {
  static const Metrics catalog = {
      {"codec.encode_s", 0, "s"},
      {"codec.stored_bytes", 0, "B"},
      {"codec.space_amp", 0, "x"},
      {"codec.append_s", 0, "s"},
      {"codec.patch_s", 0, "s"},
      {"codec.reencode_s", 0, "s"},
      {"codec.compact_s", 0, "s"},
      {"codec.reencodes", 0, "count"},
      {"codec.reclaimed_words", 0, "count"},
      {"codec.self_s", 0, "s"},
      {"crystal.hash_build_ms", 0, "ms"},
      {"crystal.query_ms", 0, "ms"},
      {"crystal.tiles_decoded", 0, "count"},
      {"crystal.tiles_pruned", 0, "count"},
      {"sim.launches", 0, "count"},
      {"sim.global_bytes_read", 0, "B"},
      {"sim.limiter_share.bandwidth", 0, "ratio"},
      {"sim.limiter_share.latency", 0, "ratio"},
      {"sim.limiter_share.scheduling", 0, "ratio"},
      {"sim.limiter_share.shared", 0, "ratio"},
      {"sim.limiter_share.compute", 0, "ratio"},
      {"sim.host_us_per_block", 0, "us"},
      {"sim.device_drift_frac", 0, "ratio"},
      {"sim.self_s", 0, "s"},
      {"ssb.run_host_ms", 0, "ms"},
      {"ssb.self_s", 0, "s"},
      {"load.self_s", 0, "s"},
      {"serve.cache_hit_rate", 0, "ratio"},
      {"serve.cache_evictions", 0, "count"},
      {"serve.cache_saved_bytes", 0, "B"},
      {"serve.cache_evictions_drift_frac", 0, "ratio"},
      {"serve.queue_p99_ms", 0, "ms"},
      {"serve.service_p99_ms", 0, "ms"},
      {"serve.shed", 0, "count"},
      {"serve.max_queue_depth", 0, "count"},
      {"serve.p99_e2e_ms.10000", 0, "ms"},
      {"serve.p99_e2e_ms.25000", 0, "ms"},
      {"serve.p99_e2e_ms.40000", 0, "ms"},
      {"serve.serveload_host_s", 0, "s"},
      {"serve.invalidations", 0, "count"},
      {"serve.stale_inserts_refused", 0, "count"},
      {"serve.side_buffer_loads", 0, "count"},
      {"serve.extent_loads", 0, "count"},
      {"serve.self_s", 0, "s"},
      {"bench.self_s", 0, "s"},
      {"telemetry.overhead_frac", 0, "ratio"},
      {"telemetry.self_time_residual_frac", 0, "ratio"},
  };
  return catalog;
}

void Set(Metrics* metrics, const std::string& name, double value) {
  for (Metric& m : *metrics) {
    if (m.name == name) {
      m.value = value;
      return;
    }
  }
  std::fprintf(stderr, "internal error: metric %s not in the catalog\n",
               name.c_str());
  std::abort();
}

double PerCall(const SpanLog& log, const std::string& name) {
  const size_t n = log.Count(name);
  return n == 0 ? 0.0 : log.TotalCpuSeconds(name) / static_cast<double>(n);
}

int Run(const Args& args) {
  const Config& config = args.config;
  std::unique_ptr<Workload> wl;
  if (args.workload == "ssb_cold") {
    wl = MakeSsbCold(config);
  } else if (args.workload == "serve_open") {
    wl = MakeServeOpen(config);
  } else if (args.workload == "ingest_mixed") {
    wl = MakeIngestMixed(config);
  } else {
    std::fprintf(stderr, "unknown workload %s\n", args.workload.c_str());
    return 2;
  }

  // Untraced runs need 3 episodes for a setup_s median; traced runs
  // alternate untraced (even) and traced (odd) episodes, 2 of each at least.
  const int min_episodes = config.trace ? 4 : 3;
  SpanLog log;
  std::vector<double> setup_s;  // CPU seconds
  std::vector<double> measure_untraced_s, measure_traced_s;  // CPU seconds
  double measured_wall_s = 0.0;
  HostTime traced_total;
  int episodes = 0;
  for (;; ++episodes) {
    const bool traced = config.trace && episodes % 2 == 1;
    log.set_recording(traced);
    const HostTime t0 = HostNow();
    Timed(log, "episode", "bench", static_cast<uint64_t>(episodes), [&] {
      setup_s.push_back(Timed(log, "setup", "bench", 0, [&] {
                          wl->Setup(log, episodes);
                        }).cpu_s);
      const HostTime m = Timed(log, "measure", "bench", 0,
                               [&] { wl->Measure(log, episodes); });
      (traced ? measure_traced_s : measure_untraced_s).push_back(m.cpu_s);
      measured_wall_s += m.wall_s;
      Timed(log, "teardown", "bench", 0, [&] { wl->Teardown(); });
    });
    if (traced) traced_total += HostNow() - t0;
    if (episodes + 1 >= min_episodes && measured_wall_s >= config.seconds) {
      ++episodes;
      break;
    }
  }
  log.set_recording(false);

  const Tally& tally = wl->tally();
  std::vector<std::string> check_failures = tally.errors;
  const double drift = wl->device_drift();
  if (wl->device_must_repeat() && drift != 0.0) {
    check_failures.push_back("device numbers did not repeat across episodes");
  }

  Metrics metrics;
  double self_residual = 0.0;
  if (!config.trace) {
    metrics.push_back({"setup_s", Median(setup_s), "s"});
    wl->EndToEnd(&metrics);
    metrics.push_back({"peak_rss_mb", PeakRssMb(), "MB"});
  } else {
    metrics = PerLayerCatalog();
    Metrics own;
    wl->PerLayer(&own);
    for (const Metric& m : own) Set(&metrics, m.name, m.value);
    Set(&metrics, "sim.device_drift_frac", drift);

    const double traced_eps = static_cast<double>(measure_traced_s.size());
    Set(&metrics, "codec.encode_s", PerCall(log, "ssb::EncodeLineorder"));
    Set(&metrics, "codec.append_s",
        log.TotalCpuSeconds("MutableColumn::Append") / traced_eps);
    Set(&metrics, "codec.patch_s",
        log.TotalCpuSeconds("MutableColumn::Patch") / traced_eps);
    Set(&metrics, "codec.reencode_s",
        log.TotalCpuSeconds("MutableColumn::ReencodeDirty") / traced_eps);
    Set(&metrics, "codec.compact_s",
        log.TotalCpuSeconds("MutableColumn::Compact") / traced_eps);
    Set(&metrics, "ssb.run_host_ms", 1e3 * PerCall(log, "QueryRunner::Run"));
    Set(&metrics, "serve.serveload_host_s",
        log.TotalCpuSeconds("Server::ServeLoad") / traced_eps);

    // Self time per layer; the layers partition the traced episodes' time
    // on both host clocks.
    HostTime self_total;
    for (const auto& [layer, t] : log.SelfTimeByLayer()) {
      Set(&metrics, layer + ".self_s", t.cpu_s / traced_eps);
      self_total += t;
    }
    self_residual = std::max(
        std::fabs(self_total.wall_s - traced_total.wall_s) / traced_total.wall_s,
        std::fabs(self_total.cpu_s - traced_total.cpu_s) / traced_total.cpu_s);
    Set(&metrics, "telemetry.self_time_residual_frac", self_residual);
    if (self_residual > kSelfTimeTolerance) {
      check_failures.push_back("per-layer self times do not sum to the traced "
                               "episodes' host time");
    }
    const double untraced = Median(measure_untraced_s);
    Set(&metrics, "telemetry.overhead_frac",
        (Median(measure_traced_s) - untraced) / untraced);
  }

  const bool correct = check_failures.empty() && tally.failed == 0;
  const double fail_frac =
      static_cast<double>(tally.failed + tally.refused) /
      static_cast<double>(tally.attempted);

  // Human summary.
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d episodes=%d\n",
              args.workload.c_str(), static_cast<unsigned long long>(config.seed),
              config.seconds, config.trace ? 1 : 0, episodes);
  for (const Metric& m : metrics) {
    std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("  attempted %llu, failed %llu, refused %llu, fail_frac %.6f\n",
              static_cast<unsigned long long>(tally.attempted),
              static_cast<unsigned long long>(tally.failed),
              static_cast<unsigned long long>(tally.refused), fail_frac);
  for (const std::string& f : check_failures) {
    std::fprintf(stderr, "CHECK FAILED: %s\n", f.c_str());
  }

  const std::string report =
      JsonObject()
          .Str("schema", "tilecomp.perfbench.report.v1")
          .Str("workload", args.workload)
          .Int("seed", config.seed)
          .Num("seconds", config.seconds)
          .Bool("trace", config.trace)
          .Bool("quick", config.quick)
          .Int("episodes", static_cast<uint64_t>(episodes))
          .Num("measured_wall_s", measured_wall_s)
          .Raw("setup_s_samples", JsonNumberList(setup_s))
          .Raw("workload_config", wl->Describe())
          .Int("attempted", tally.attempted)
          .Int("failed", tally.failed)
          .Int("refused", tally.refused)
          .Num("fail_frac", fail_frac)
          .Num("self_time_tolerance", kSelfTimeTolerance)
          .Bool("correct", correct)
          .Raw("metrics", JsonMetrics(metrics))
          .str();
  std::printf("report %s\n", report.c_str());

  const std::string stem = args.out_dir + "/" + args.workload + "-seed" +
                           std::to_string(config.seed) + "-trace" +
                           (config.trace ? "1" : "0");
  if (std::FILE* f = std::fopen((stem + ".report.json").c_str(), "w")) {
    std::fprintf(f, "%s\n", report.c_str());
    std::fclose(f);
  }
  if (config.trace && !log.WriteJson(stem + ".spans.json")) {
    std::fprintf(stderr, "could not write %s.spans.json\n", stem.c_str());
  }

  std::printf("%s\n", JsonObject()
                          .Bool("correct", correct)
                          .Int("attempted", tally.attempted)
                          .Int("failed", tally.failed)
                          .Raw("metrics", JsonMetrics(metrics))
                          .str()
                          .c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload ssb_cold|serve_open|ingest_mixed "
                 "--seed N --seconds S --trace 0|1 [--out DIR] [--quick 1] "
                 "[--corrupt 1]\n");
    return 2;
  }
  return perfbench::Run(args);
}

// The in-process workloads: paper_1d (the paper's five 1-D queries, each at
// its original bounds and maximally relaxed) and grid_2d (G-SEL / G-LOS over
// the 2-D stack). Queries run one at a time through core::ExecuteQuery on a
// shared 4-thread WorkerPool with no cache.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.h"
#include "core/canonical.h"
#include "core/refiner.h"
#include "data/grid_synthetic.h"
#include "data/queries.h"
#include "data/synthetic.h"
#include "data/waveform.h"
#include "exec/worker_pool.h"
#include "obs/export_chrome.h"
#include "obs/metrics.h"
#include "obs/profile.h"
#include "obs/trace.h"
#include "synopsis/grid_synopsis.h"
#include "synopsis/synopsis.h"

namespace dqr::perfbench {
namespace {

// Engine shape: at most nproc (4) pool threads. One instance (solver +
// validator) per query: with 2 or 4 instances the run-to-run spread of the
// same inputs grew (see README).
constexpr int kPoolThreads = 4;
constexpr int kInstances = 1;
constexpr size_t kWarmupQueries = 10;
// Many small, independently seeded segments keep the per-seed mix of query
// costs steady (README "Workloads"). 1-D: kSegments segments of kLength1d
// cells per data kind; 2-D: kGridSegments grids of kGridSide^2 cells.
constexpr int64_t kLength1d = int64_t{1} << 14;
constexpr int kSegments = 32;
constexpr int64_t kRegionLength = 2048;
constexpr int64_t kGridSide = 32;
constexpr int kGridSegments = 64;
constexpr int64_t kGridRegion = 16;

struct Suite {
  std::vector<CheckedQuery> cases;
  std::function<int64_t()> chunks_read;
  std::function<int64_t()> bound_lookups;
  double synopsis_build_s = 0.0;
  double tail_q = 0.95;
};

int RunSuite(const Args& args, const Suite& suite, exec::WorkerPool* pool,
             double setup_s, Report* report) {
  core::RefineOptions base;
  base.worker_pool = pool;
  base.num_instances = kInstances;

  // Warm-up: the first kWarmupQueries cases once, not reported.
  for (size_t i = 0; i < std::min<size_t>(kWarmupQueries, suite.cases.size());
       ++i) {
    Result<core::RunResult> run = core::ExecuteQuery(suite.cases[i].query, base);
    if (!run.ok() || !run.value().stats.completed) {
      std::fprintf(stderr, "perfbench: %s: warm-up run failed: %s\n",
                   suite.cases[i].name.c_str(),
                   run.ok() ? "not completed" : run.status().ToString().c_str());
      return 1;
    }
  }
  // The first measured answer of each case; every later run must reproduce
  // it, and it is checked against the oracle after the measured phases.
  std::vector<std::vector<core::Solution>> answers(suite.cases.size());
  std::vector<std::optional<std::string>> expected(suite.cases.size());

  int64_t mismatches = 0;
  // Runs whole rounds of every case until `duration` has passed. A traced
  // phase attaches a fresh Trace + Profile per query and folds its spans,
  // counters and bound-latency histogram into `layer`.
  const auto run_phase = [&](double duration, LayerInputs* layer) {
    Phase phase;
    obs::LatencyHistogram bound_latency;
    const int64_t chunks0 = suite.chunks_read();
    const int64_t lookups0 = suite.bound_lookups();
    const Cpu cpu0 = CpuNow();
    std::vector<std::vector<double>> per_case(suite.cases.size());
    const Clock::time_point t0 = Clock::now();
    do {
      for (size_t i = 0; i < suite.cases.size(); ++i) {
        core::RefineOptions opts = base;
        std::unique_ptr<obs::Trace> trace;
        std::unique_ptr<obs::Profile> profile;
        if (layer != nullptr) {
          trace = std::make_unique<obs::Trace>();
          profile = std::make_unique<obs::Profile>();
          opts.trace = trace.get();
          opts.profile = profile.get();
        }
        std::atomic<int64_t> first_ns{0};
        const Clock::time_point start = Clock::now();
        opts.on_result = [&first_ns, start](const core::Solution&) {
          int64_t unset = 0;
          const int64_t ns = std::max<int64_t>(
              1, std::chrono::duration_cast<std::chrono::nanoseconds>(
                     Clock::now() - start)
                     .count());
          first_ns.compare_exchange_strong(unset, ns);
        };
        Result<core::RunResult> run =
            core::ExecuteQuery(suite.cases[i].query, opts);
        const Clock::time_point end = Clock::now();
        ++report->attempted;
        if (!run.ok() || !run.value().stats.completed) {
          ++report->failed;
          continue;
        }
        const double latency = MsBetween(start, end);
        phase.samples.latency_ms.push_back(latency);
        per_case[i].push_back(latency);
        phase.samples.first_ms.push_back(
            first_ns.load() > 0 ? static_cast<double>(first_ns.load()) * 1e-6
                                : latency);
        std::string canonical = core::Canonicalize(run.value().results);
        if (!expected[i]) {
          expected[i] = std::move(canonical);
          answers[i] = run.value().results;
        } else if (canonical != *expected[i]) {
          ++mismatches;
        }
        if (layer != nullptr) {
          const core::RunStats& stats = run.value().stats;
          AddMetricsText(obs::MetricsSnapshot(stats), &layer->counters);
          bound_latency += stats.bound_latency;
          Result<obs::LoadedTrace> loaded =
              obs::ParseChromeTrace(obs::ExportChromeJson(*trace));
          if (loaded.ok()) AddTraceSelfTimes(loaded.value(), &layer->spans);
          ++layer->queries;
        }
      }
    } while (SecondsSince(t0) < duration);
    phase.wall_s = SecondsSince(t0);
    const Cpu cpu1 = CpuNow();
    phase.cpu = {cpu1.user_s - cpu0.user_s, cpu1.sys_s - cpu0.sys_s};
    std::map<std::string, std::vector<double>> by_name;
    for (size_t i = 0; i < suite.cases.size(); ++i) {
      auto& v = by_name[suite.cases[i].name];
      v.insert(v.end(), per_case[i].begin(), per_case[i].end());
    }
    for (const auto& [name, v] : by_name) {
      std::fprintf(stderr, "perfbench: %-16s n=%zu p50=%.3f geomean=%.3f ms\n",
                   name.c_str(), v.size(), Quantile(v, 0.5), GeoMean(v));
    }
    if (layer != nullptr) {
      layer->chunks_read = suite.chunks_read() - chunks0;
      layer->bound_lookups = suite.bound_lookups() - lookups0;
      layer->bound_p50_ns = static_cast<double>(bound_latency.p50_ns());
    }
    return phase;
  };

  LayerInputs layer;
  if (args.trace) {
    const Phase plain = run_phase(args.seconds / 2, nullptr);
    const Phase traced = run_phase(args.seconds / 2, &layer);
    layer.synopsis_build_s = suite.synopsis_build_s;
    layer.sys_cpu_ms_per_query = plain.cpu.sys_s * 1e3 /
        static_cast<double>(std::max<size_t>(plain.samples.latency_ms.size(), 1));
    layer.trace_overhead_ms = GeoMean(traced.samples.latency_ms) -
                              GeoMean(plain.samples.latency_ms);
    AddPerLayer(layer, report);
  } else {
    const Phase phase = run_phase(args.seconds, nullptr);
    AddEndToEnd(phase, setup_s, suite.tail_q, report);
  }

  // Checks, outside every timed phase.
  if (args.corrupt_answer) {
    if (answers[0].empty()) answers[0].emplace_back();
    answers[0][0].values.assign(suite.cases[0].query.constraints.size(), 0.0);
    answers[0][0].values[0] += 1.0;
  }
  bool ok = mismatches == 0;
  if (mismatches > 0) {
    std::fprintf(stderr,
                 "perfbench: %lld measured answers differ from the first "
                 "answer of the same query\n",
                 static_cast<long long>(mismatches));
  }
  ok = CheckAnswers(suite.cases, base, answers) && ok;
  report->correct = ok;
  return 0;
}

}  // namespace

int RunPaper1d(const Args& args, Report* report) {
  exec::WorkerPool pool(kPoolThreads);
  Suite suite;
  std::vector<std::shared_ptr<array::Array>> arrays;
  std::vector<std::shared_ptr<const synopsis::Synopsis>> synopses;
  const auto add_dataset =
      [&](Result<std::shared_ptr<array::Array>> generated) -> bool {
    if (!generated.ok()) {
      std::fprintf(stderr, "perfbench: data generation failed: %s\n",
                   generated.status().ToString().c_str());
      return false;
    }
    const Clock::time_point t = Clock::now();
    auto built = synopsis::Synopsis::Build(*generated.value(),
                                           synopsis::SynopsisOptions{});
    suite.synopsis_build_s += SecondsSince(t);
    if (!built.ok()) {
      std::fprintf(stderr, "perfbench: synopsis build failed: %s\n",
                   built.status().ToString().c_str());
      return false;
    }
    generated.value()->ResetAccessStats();
    arrays.push_back(generated.value());
    synopses.push_back(built.value());
    return true;
  };
  for (int seg = 0; seg < kSegments; ++seg) {
    data::SyntheticOptions synth;
    synth.length = kLength1d;
    synth.seed = Mix(args.seed, 2 * seg + 1);
    synth.region_len = kRegionLength;
    data::WaveformOptions wave;
    wave.length = kLength1d;
    wave.seed = Mix(args.seed, 2 * seg + 2);
    if (!add_dataset(data::GenerateSynthetic(synth)) ||
        !add_dataset(data::GenerateAbpWaveform(wave))) {
      return 1;
    }
  }

  const data::QueryKind kinds[] = {data::QueryKind::kSSel,
                                   data::QueryKind::kSLos,
                                   data::QueryKind::kMSel,
                                   data::QueryKind::kMLos,
                                   data::QueryKind::kMSelPrime};
  std::vector<std::shared_ptr<const std::vector<double>>> cells;
  for (const auto& a : arrays) {
    cells.push_back(std::make_shared<const std::vector<double>>(a->Dump()));
  }
  for (const double fraction : {0.0, 1.0}) {
    for (const data::QueryKind kind : kinds) {
      const bool synthetic =
          kind == data::QueryKind::kSSel || kind == data::QueryKind::kSLos;
      for (int seg = 0; seg < kSegments; ++seg) {
        const size_t d = 2 * seg + (synthetic ? 0 : 1);
        data::QueryTuning tuning;
        tuning.relax_fraction = fraction;
        CheckedQuery c;
        c.name = std::string(data::QueryKindName(kind)) +
                 (fraction == 0.0 ? "/original" : "/relaxed");
        c.query = data::MakeQuery({arrays[d], synopses[d]}, kind, tuning);
        c.recompute = [raw = cells[d]](const std::vector<int64_t>& p) {
          return Recompute1d(*raw, p);
        };
        suite.cases.push_back(std::move(c));
      }
    }
  }
  suite.chunks_read = [&arrays] {
    int64_t n = 0;
    for (const auto& a : arrays) n += a->GetAccessStats().chunks_touched;
    return n;
  };
  suite.bound_lookups = [&synopses] {
    int64_t n = 0;
    for (const auto& s : synopses) n += s->queries_served();
    return n;
  };
  suite.tail_q = 0.95;
  const double setup_s = SecondsSince(g_process_start);
  return RunSuite(args, suite, &pool, setup_s, report);
}

int RunGrid2d(const Args& args, Report* report) {
  exec::WorkerPool pool(kPoolThreads);
  Suite suite;
  std::vector<data::GridBundle> bundles;
  for (int seg = 0; seg < kGridSegments; ++seg) {
    data::GridSyntheticOptions options;
    options.rows = kGridSide;
    options.cols = kGridSide;
    options.region_size = kGridRegion;
    options.seed = Mix(args.seed, 1000 + seg);
    Result<std::shared_ptr<array::Grid>> grid =
        data::GenerateGridSynthetic(options);
    if (!grid.ok()) {
      std::fprintf(stderr, "perfbench: grid generation failed: %s\n",
                   grid.status().ToString().c_str());
      return 1;
    }
    const Clock::time_point t = Clock::now();
    auto built = synopsis::GridSynopsis::Build(
        *grid.value(), synopsis::GridSynopsisOptions{});
    suite.synopsis_build_s += SecondsSince(t);
    if (!built.ok()) {
      std::fprintf(stderr, "perfbench: grid synopsis build failed: %s\n",
                   built.status().ToString().c_str());
      return 1;
    }
    grid.value()->ResetAccessStats();
    bundles.push_back({grid.value(), built.value()});
  }

  for (const bool selective : {true, false}) {
    for (const double fraction : {0.0, 1.0}) {
      for (const data::GridBundle& bundle : bundles) {
        data::GridQueryTuning tuning;
        tuning.selective = selective;
        tuning.relax_fraction = fraction;
        CheckedQuery c;
        c.name = std::string(selective ? "G-SEL" : "G-LOS") +
                 (fraction == 0.0 ? "/original" : "/relaxed");
        c.query = data::MakeGridQuery(bundle, tuning);
        c.recompute = [g = bundle.grid](const std::vector<int64_t>& p) {
          return Recompute2d(*g, p);
        };
        suite.cases.push_back(std::move(c));
      }
    }
  }
  suite.chunks_read = [&bundles] {
    int64_t n = 0;
    for (const auto& b : bundles) n += b.grid->GetAccessStats().chunks_touched;
    return n;
  };
  suite.bound_lookups = [&bundles] {
    int64_t n = 0;
    for (const auto& b : bundles) n += b.synopsis->queries_served();
    return n;
  };
  suite.tail_q = 0.95;
  const double setup_s = SecondsSince(g_process_start);
  return RunSuite(args, suite, &pool, setup_s, report);
}

}  // namespace dqr::perfbench

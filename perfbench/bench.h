#ifndef DQR_PERFBENCH_BENCH_H_
#define DQR_PERFBENCH_BENCH_H_

// Shared plumbing of the benchmark program: arguments, the benchmark's own
// span recorder, per-query sample collection, process resource snapshots
// and the one-line JSON result. The workloads live in direct.cc
// (paper_1d, grid_2d) and serve.cc (explore_serve).

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "array/grid.h"
#include "core/options.h"
#include "core/solution.h"
#include "core/stats.h"
#include "obs/trace_reader.h"
#include "searchlight/query.h"

namespace dqr::perfbench {

using Clock = std::chrono::steady_clock;

// Set by main() as its first statement: set-up is timed from here.
extern Clock::time_point g_process_start;

double SecondsSince(Clock::time_point start);
double MsBetween(Clock::time_point a, Clock::time_point b);

// SplitMix64 finalizer: independent data-set seeds from the run's --seed.
uint64_t Mix(uint64_t seed, uint64_t salt);

// Runs fn(0) .. fn(n - 1) on `threads` threads and joins them.
void ParallelFor(size_t n, int threads,
                 const std::function<void(size_t)>& fn);

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  // Corrupts one checked answer before the checks run (self-test of the
  // checks: the run must then report correct = false).
  bool corrupt_answer = false;
};

// --- the benchmark's own spans ---------------------------------------

// Count and summed self time per span name.
class SpanTotals {
 public:
  void Add(const std::string& name, int64_t count, double self_s);
  void Merge(const SpanTotals& other);
  int64_t count(const std::string& name) const;
  double self_s(const std::string& name) const;

 private:
  std::map<std::string, std::pair<int64_t, double>> by_name_;
};

// Single-threaded nesting span recorder for the benchmark's own spans
// around calls into the program's public functions. A span's self time is
// its duration minus the time its child spans cover; totals accumulate
// per name.
class SpanRecorder {
 public:
  void Begin(const char* name);
  void End();
  const SpanTotals& totals() const { return totals_; }

 private:
  struct Open {
    const char* name;
    Clock::time_point start;
    double child_s;
  };
  std::vector<Open> stack_;
  SpanTotals totals_;
};

// RAII span; a null recorder records nothing (untraced runs).
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, const char* name) : r_(recorder) {
    if (r_ != nullptr) r_->Begin(name);
  }
  ~ScopedSpan() {
    if (r_ != nullptr) r_->End();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* r_;
};

// Adds the self time of every B/E span of an engine flight-recorder trace
// (Chrome JSON as the exporter writes it) to `totals`, per span name.
void AddTraceSelfTimes(const obs::LoadedTrace& trace, SpanTotals* totals);

// --- per-query counters ----------------------------------------------

// Sums of RunStats fields over queries, keyed by their Prometheus sample
// name without the `dqr_` prefix (e.g. "main_search_nodes"). Direct
// workloads feed obs::MetricsSnapshot(stats); explore_serve feeds the
// server's METRICS id= reply, so both read the same field table.
using Counters = std::map<std::string, double>;
void AddMetricsText(const std::string& text, Counters* counters);
double Get(const Counters& counters, const std::string& name);

// --- end-to-end samples ----------------------------------------------

struct Samples {
  std::vector<double> latency_ms;
  std::vector<double> first_ms;  // time to first confirmed result
  void Merge(const Samples& other);
};

struct Cpu {
  double user_s = 0.0;
  double sys_s = 0.0;
};
Cpu CpuNow();
double PeakRssMb();

// One measured phase: what the end-to-end metrics are computed from.
struct Phase {
  Samples samples;
  double wall_s = 0.0;
  Cpu cpu;  // process CPU spent during the phase
};

double GeoMean(const std::vector<double>& v);
double Quantile(std::vector<double> v, double q);

// --- the result line ---------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct Report {
  bool correct = true;
  int64_t attempted = 0;
  int64_t failed = 0;
  std::vector<Metric> metrics;
  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
};

// Appends the eight end-to-end metrics. `tail_q` is the workload's fixed
// tail quantile (the highest one with at least ten samples beyond it at
// the workload's usual sample count); fewer samples than that is reported
// on stderr.
void AddEndToEnd(const Phase& phase, double setup_s, double tail_q,
                 Report* report);

// Per-layer metrics from per-query counters and span self times, averaged
// over `queries` (the traced phase's query count).
struct LayerInputs {
  Counters counters;
  SpanTotals spans;
  int64_t queries = 0;
  double synopsis_build_s = 0.0;
  int64_t bound_lookups = 0;    // synopsis queries served
  double bound_p50_ns = 0.0;    // from the engine's bound_latency histogram
  int64_t chunks_read = 0;      // array chunks / grid tiles touched
  // System CPU per query, from the untraced half of the run.
  double sys_cpu_ms_per_query = 0.0;
  // explore_serve only: the admission, cache and serve metrics below are
  // printed only when `serve` is set.
  bool serve = false;
  double admission_wait_s = 0.0;
  int64_t frames = 0;
  int64_t bytes = 0;
  int64_t exact_hits = 0;
  int64_t subsumption_hits = 0;
  int64_t warm_starts = 0;
  int64_t misses = 0;
  double overhead_s = 0.0;      // client latency minus engine total_s
  // Tracing overhead: traced minus untraced latency geomean.
  double trace_overhead_ms = 0.0;
};
void AddPerLayer(const LayerInputs& in, Report* report);

void PrintReport(const Report& report);

// --- answer checks (check.cc) ------------------------------------------

// A query as the checks see it.
struct CheckedQuery {
  std::string name;
  searchlight::QuerySpec query;
  // Constraint values of an assignment, recomputed from raw cells.
  std::function<std::vector<double>(const std::vector<int64_t>&)> recompute;
};

// avg / left contrast / right contrast of window [x, x + l) over raw cells,
// as the paper's 1-D queries define them.
std::vector<double> Recompute1d(const std::vector<double>& cells,
                                const std::vector<int64_t>& point);
// The 2-D analogue over rectangle rows [y, y + h) x cols [x, x + w).
std::vector<double> Recompute2d(const array::Grid& grid,
                                const std::vector<int64_t>& point);

// Checks `answer` against fuzz::OracleRun and against values recomputed
// from raw cells (including that rp == 0 exactly when every recomputed
// value lies within its constraint's bounds). Returns false, with a note
// on stderr, on any disagreement.
bool CheckAnswer(const CheckedQuery& q, const core::RefineOptions& options,
                 const std::vector<core::Solution>& answer);

// CheckAnswer for every query (answers[i] answers queries[i]), spread over
// a few threads. True when every answer passes.
bool CheckAnswers(const std::vector<CheckedQuery>& queries,
                  const core::RefineOptions& options,
                  const std::vector<std::vector<core::Solution>>& answers);

int RunPaper1d(const Args& args, Report* report);
int RunGrid2d(const Args& args, Report* report);
int RunExploreServe(const Args& args, Report* report);

}  // namespace dqr::perfbench

#endif  // DQR_PERFBENCH_BENCH_H_

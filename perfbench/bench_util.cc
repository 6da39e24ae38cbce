#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <thread>

#include "bench.h"

namespace dqr::perfbench {

Clock::time_point g_process_start;

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double MsBetween(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

uint64_t Mix(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ULL + salt;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

void ParallelFor(size_t n, int threads,
                 const std::function<void(size_t)>& fn) {
  std::atomic<size_t> next{0};
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&] {
      for (size_t i = next++; i < n; i = next++) fn(i);
    });
  }
  for (std::thread& t : pool) t.join();
}

// --- spans -------------------------------------------------------------

void SpanTotals::Add(const std::string& name, int64_t count, double self_s) {
  auto& entry = by_name_[name];
  entry.first += count;
  entry.second += self_s;
}

void SpanTotals::Merge(const SpanTotals& other) {
  for (const auto& [name, entry] : other.by_name_) {
    Add(name, entry.first, entry.second);
  }
}

int64_t SpanTotals::count(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? 0 : it->second.first;
}

double SpanTotals::self_s(const std::string& name) const {
  auto it = by_name_.find(name);
  return it == by_name_.end() ? 0.0 : it->second.second;
}

void SpanRecorder::Begin(const char* name) {
  stack_.push_back({name, Clock::now(), 0.0});
}

void SpanRecorder::End() {
  const Open open = stack_.back();
  stack_.pop_back();
  const double dur = SecondsSince(open.start);
  totals_.Add(open.name, 1, dur - open.child_s);
  if (!stack_.empty()) stack_.back().child_s += dur;
}

void AddTraceSelfTimes(const obs::LoadedTrace& trace, SpanTotals* totals) {
  struct Open {
    const std::string* name;
    double start_us;
    double child_us;
  };
  std::map<std::pair<int64_t, int64_t>, std::vector<Open>> stacks;
  for (const obs::LoadedEvent& e : trace.events) {
    std::vector<Open>& stack = stacks[{e.pid, e.tid}];
    if (e.ph == "B") {
      stack.push_back({&e.name, e.ts_us, 0.0});
    } else if (e.ph == "E" && !stack.empty() && *stack.back().name == e.name) {
      const Open open = stack.back();
      stack.pop_back();
      const double dur_us = e.ts_us - open.start_us;
      totals->Add(e.name, 1, (dur_us - open.child_us) * 1e-6);
      if (!stack.empty()) stack.back().child_us += dur_us;
    }
  }
}

// --- counters ------------------------------------------------------------

void AddMetricsText(const std::string& text, Counters* counters) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' || line.rfind("dqr_", 0) != 0) {
      continue;
    }
    const size_t name_end = line.find_first_of("{ ");
    const size_t value_pos = line.rfind(' ');
    if (name_end == std::string::npos || value_pos == std::string::npos) {
      continue;
    }
    const std::string name = line.substr(4, name_end - 4);
    if (name.find("_bucket") != std::string::npos) continue;
    const double value = std::strtod(line.c_str() + value_pos + 1, nullptr);
    if (std::isfinite(value)) (*counters)[name] += value;
  }
}

double Get(const Counters& counters, const std::string& name) {
  auto it = counters.find(name);
  return it == counters.end() ? 0.0 : it->second;
}

// --- samples -------------------------------------------------------------

void Samples::Merge(const Samples& other) {
  latency_ms.insert(latency_ms.end(), other.latency_ms.begin(),
                    other.latency_ms.end());
  first_ms.insert(first_ms.end(), other.first_ms.begin(),
                  other.first_ms.end());
}

Cpu CpuNow() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  Cpu cpu;
  cpu.user_s = static_cast<double>(ru.ru_utime.tv_sec) +
               static_cast<double>(ru.ru_utime.tv_usec) * 1e-6;
  cpu.sys_s = static_cast<double>(ru.ru_stime.tv_sec) +
              static_cast<double>(ru.ru_stime.tv_usec) * 1e-6;
  return cpu;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double log_sum = 0.0;
  for (double x : v) log_sum += std::log(std::max(x, 1e-9));
  return std::exp(log_sum / static_cast<double>(v.size()));
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

void AddEndToEnd(const Phase& phase, double setup_s, double tail_q,
                 Report* report) {
  const std::vector<double>& lat = phase.samples.latency_ms;
  const double n = static_cast<double>(lat.size());
  const double beyond = n * (1.0 - tail_q);
  if (beyond < 10.0) {
    std::fprintf(stderr,
                 "perfbench: only %.0f samples beyond the p%g tail "
                 "(%zu samples); the tail is not a tail at this count\n",
                 beyond, tail_q * 100.0, lat.size());
  }
  report->Add("setup_s", setup_s, "s");
  report->Add("latency_geomean_ms", GeoMean(lat), "ms");
  report->Add("latency_p50_ms", Quantile(lat, 0.5), "ms");
  report->Add("latency_tail_ms", Quantile(lat, tail_q), "ms");
  report->Add("first_result_geomean_ms", GeoMean(phase.samples.first_ms),
              "ms");
  report->Add("throughput_qps", n / phase.wall_s, "1/s");
  report->Add("cpu_per_query_ms",
              (phase.cpu.user_s + phase.cpu.sys_s) * 1e3 / std::max(n, 1.0),
              "ms");
  report->Add("peak_rss_mb", PeakRssMb(), "MB");
}

void AddPerLayer(const LayerInputs& in, Report* report) {
  const double q = static_cast<double>(std::max<int64_t>(in.queries, 1));
  const Counters& c = in.counters;
  const auto per_q = [&](double v) { return v / q; };
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };

  report->Add("synopsis.bound_lookups",
              per_q(static_cast<double>(in.bound_lookups)), "count");
  report->Add("synopsis.bound_p50_ns", in.bound_p50_ns, "ns");
  report->Add("synopsis.build_s", in.synopsis_build_s, "s");

  report->Add("cp.nodes",
              per_q(Get(c, "main_search_nodes") + Get(c, "replay_search_nodes")),
              "count");
  report->Add("cp.monitor_prunes",
              per_q(Get(c, "main_search_monitor_prunes") +
                    Get(c, "replay_search_monitor_prunes")),
              "count");
  report->Add("cp.shard_busy_s", per_q(in.spans.self_s("shard_execute")),
              "s");

  const double encountered =
      Get(c, "fails_recorded") + Get(c, "fails_discarded_at_record");
  const double discarded =
      Get(c, "fails_discarded_at_record") + Get(c, "fails_discarded_at_pop");
  report->Add("core.fails_recorded", per_q(Get(c, "fails_recorded")),
              "count");
  report->Add("core.replays", per_q(Get(c, "replays")), "count");
  report->Add("core.fails_discarded_ratio", ratio(discarded, encountered),
              "ratio");
  report->Add("core.replay_busy_s", per_q(in.spans.self_s("replay_execute")),
              "s");
  report->Add("core.mrp_updates", per_q(Get(c, "mrp_updates")), "count");
  report->Add("core.mrk_updates", per_q(Get(c, "mrk_updates")), "count");
  report->Add("core.barrier_wait_s", per_q(in.spans.self_s("barrier_wait")),
              "s");
  report->Add("core.peak_fail_bytes", per_q(Get(c, "max_peak_fail_bytes")),
              "B");

  report->Add("searchlight.validated", per_q(Get(c, "validated")), "count");
  report->Add("searchlight.false_positive_ratio",
              ratio(Get(c, "false_positives"), Get(c, "validated")), "ratio");
  report->Add("searchlight.estimator_cache_hit_ratio",
              ratio(Get(c, "estimator_cache_hits"),
                    Get(c, "estimator_cache_hits") +
                        Get(c, "estimator_cache_misses")),
              "ratio");
  report->Add("searchlight.validate_busy_s", per_q(in.spans.self_s("validate")),
              "s");

  report->Add("array.chunks_read", per_q(static_cast<double>(in.chunks_read)),
              "count");

  report->Add("exec.overflow_spawns", per_q(Get(c, "pool_overflow_spawns")),
              "count");
  report->Add("exec.sys_cpu_ms", in.sys_cpu_ms_per_query, "ms");

  report->Add("trace.overhead_ms", in.trace_overhead_ms, "ms");
  if (!in.serve) return;

  report->Add("exec.admission_wait_ms", per_q(in.admission_wait_s * 1e3),
              "ms");
  report->Add("cache.exact_hits", per_q(static_cast<double>(in.exact_hits)),
              "count");
  report->Add("cache.subsumption_hits",
              per_q(static_cast<double>(in.subsumption_hits)), "count");
  report->Add("cache.warm_starts", per_q(static_cast<double>(in.warm_starts)),
              "count");
  report->Add("cache.misses", per_q(static_cast<double>(in.misses)), "count");
  report->Add("cache.shared_memo_hit_ratio",
              ratio(Get(c, "shared_memo_hits"),
                    Get(c, "shared_memo_hits") + Get(c, "shared_memo_misses")),
              "ratio");
  const int64_t lookups = in.spans.count("cache_lookup");
  report->Add("cache.lookup_us",
              lookups > 0 ? in.spans.self_s("cache_lookup") * 1e6 /
                                static_cast<double>(lookups)
                          : 0.0,
              "us");

  const auto mean_ns = [&](const char* span) {
    const int64_t n = in.spans.count(span);
    return n > 0 ? in.spans.self_s(span) * 1e9 / static_cast<double>(n) : 0.0;
  };
  report->Add("serve.frames_per_query", per_q(static_cast<double>(in.frames)),
              "count");
  report->Add("serve.bytes_per_query", per_q(static_cast<double>(in.bytes)),
              "B");
  report->Add("serve.encode_ns", mean_ns("bench.encode_frame"), "ns");
  report->Add("serve.decode_ns", mean_ns("bench.decode_frame"), "ns");
  report->Add("serve.parse_us", mean_ns("bench.parse_query_text") * 1e-3,
              "us");
  report->Add("serve.overhead_ms", per_q(in.overhead_s * 1e3), "ms");
}

void PrintReport(const Report& report) {
  std::string out = "{\"correct\": ";
  out += report.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(report.attempted);
  out += ", \"failed\": " + std::to_string(report.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < report.metrics.size(); ++i) {
    const Metric& m = report.metrics[i];
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    if (i > 0) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + value + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace dqr::perfbench

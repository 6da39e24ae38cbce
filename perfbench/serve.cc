// explore_serve: a closed loop of loopback connections, split across two
// tenants, each replaying seeded, correlated exploration sessions against
// an in-process dqr_serve Server with cached=1. Every FINAL body is checked
// against a direct, uncached core::ExecuteQuery run of the same text, and
// every distinct text against the oracle and raw-cell recomputation.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "core/canonical.h"
#include "core/refiner.h"
#include "data/query_parser.h"
#include "data/queries.h"
#include "data/synthetic.h"
#include "data/waveform.h"
#include "exec/engine_session.h"
#include "exec/worker_pool.h"
#include "obs/trace_reader.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/server.h"
#include "synopsis/synopsis.h"

namespace dqr::perfbench {
namespace {

constexpr int kPoolThreads = 4;
// Two connections, one per tenant; each query runs one engine instance
// (solver + validator), so both connections' queries fit the 4-thread pool.
constexpr int kConnections = 2;
const char* const kTenants[] = {"explorer", "analyst"};
// Data sized so that a cache miss costs a few milliseconds: kSegments
// independently seeded synthetic and waveform segments of kLength cells.
// Many small segments keep the per-seed mix of query costs steady.
constexpr int64_t kLength = int64_t{1} << 12;
constexpr int kSegments = 32;
constexpr int64_t kRegionLength = 2048;  // synthetic regions, as in paper_1d
constexpr int64_t kWidth = 8;  // contrast neighborhood, as in the paper
// Per connection and round: one session per query shape and segment, of
// kSteps queries each.
constexpr int kSteps = 5;

// The paper's query parameters (data/queries.cc): original avg band,
// hard avg range, contrast threshold, hard contrast range.
struct Shape {
  const char* name;
  bool synthetic;
  double avg_lo, avg_hi, avg_range_lo, avg_range_hi;
  double contrast, contrast_range_lo, contrast_range_hi;
};
constexpr Shape kShapes[] = {
    {"S-SEL", true, 150, 200, 140, 210, 126, 72, 134},
    {"S-LOS", true, 150, 200, 50, 250, 126, 0, 200},
    {"M-SEL", false, 150, 200, 138, 212, 122, 70, 130},
    {"M-LOS", false, 150, 200, 50, 250, 122, 0, 200},
    {"M-SEL'", false, 120, 165, 112, 175, 112, 64, 126},
};

struct Bounds {
  double avg_lo, avg_hi, contrast;
};

std::string QueryText(const Shape& s, const Bounds& b) {
  char text[512];
  std::snprintf(text, sizeof(text),
                "k 10\nvar x %lld %lld\nvar lx 8 16\n"
                "avg x lx in %g %g range %g %g\n"
                "contrast_left x lx %lld in %g inf range %g %g\n"
                "contrast_right x lx %lld in %g inf range %g %g\n",
                static_cast<long long>(kWidth),
                static_cast<long long>(kLength - 16 - kWidth - 1), b.avg_lo,
                b.avg_hi, s.avg_range_lo, s.avg_range_hi,
                static_cast<long long>(kWidth), b.contrast,
                s.contrast_range_lo, s.contrast_range_hi,
                static_cast<long long>(kWidth), b.contrast,
                s.contrast_range_lo, s.contrast_range_hi);
  return text;
}

// One step of a session: which text (index into the distinct texts) on
// which data set (2 * segment, + 1 for waveform).
struct Step {
  int text_id = 0;
  int dataset = 0;
};

struct Plan {
  std::vector<std::string> texts;  // distinct query texts
  std::vector<std::vector<Step>> per_connection;  // one round each
};

// Correlated sessions: each starts from a paper query at its original
// bounds and then repeats, tightens, relaxes or shifts the previous step.
// Every connection runs one session per shape and segment, in a seeded
// order, so the mix of query shapes is the same for every seed.
Plan MakePlan(uint64_t seed) {
  Plan plan;
  std::map<std::string, int> ids;
  std::mt19937_64 rng(seed);
  const auto pick = [&](int n) {
    return static_cast<int>(rng() % static_cast<uint64_t>(n));
  };
  for (int c = 0; c < kConnections; ++c) {
    std::vector<std::pair<int, int>> sessions;  // (shape, segment)
    for (int shape = 0; shape < 5; ++shape) {
      for (int seg = 0; seg < kSegments; ++seg) sessions.push_back({shape, seg});
    }
    std::shuffle(sessions.begin(), sessions.end(), rng);
    std::vector<Step> steps;
    for (const auto& [shape_index, seg] : sessions) {
      const Shape& shape = kShapes[shape_index];
      const int dataset = 2 * seg + (shape.synthetic ? 0 : 1);
      Bounds b{shape.avg_lo, shape.avg_hi, shape.contrast};
      for (int k = 0; k < kSteps; ++k) {
        if (k > 0) {
          const double d = 2.0 * (1 + pick(3));
          switch (pick(4)) {
            case 0:  // repeat
              break;
            case 1:  // tighten
              if (b.avg_hi - b.avg_lo > 2 * d + 2) {
                b.avg_lo += d;
                b.avg_hi -= d;
              }
              b.contrast = std::min(shape.contrast_range_hi, b.contrast + d);
              break;
            case 2:  // relax
              b.avg_lo = std::max(shape.avg_range_lo, b.avg_lo - d);
              b.avg_hi = std::min(shape.avg_range_hi, b.avg_hi + d);
              b.contrast = std::max(shape.contrast_range_lo, b.contrast - d);
              break;
            default: {  // shift
              const double shift = pick(2) == 0 ? -d : d;
              if (b.avg_lo + shift >= shape.avg_range_lo &&
                  b.avg_hi + shift <= shape.avg_range_hi) {
                b.avg_lo += shift;
                b.avg_hi += shift;
              }
              break;
            }
          }
        }
        const std::string text = QueryText(shape, b);
        auto [it, inserted] =
            ids.emplace(text, static_cast<int>(plan.texts.size()));
        if (inserted) plan.texts.push_back(text);
        steps.push_back({it->second, dataset});
      }
    }
    plan.per_connection.push_back(std::move(steps));
  }
  return plan;
}

std::string DatasetName(int connection, int dataset) {
  return "c" + std::to_string(connection) + "-d" + std::to_string(dataset);
}

// A distinct query: (dataset, text id).
using QueryKey = std::pair<int, int>;

// What one connection's thread measured.
struct ConnResult {
  Samples samples;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t mismatches = 0;
  std::map<QueryKey, std::string> answers;  // first FINAL body per query
  LayerInputs layer;
  SpanRecorder spans;
};

class Connection {
 public:
  Connection(int index, serve::Server* server, const Plan* plan,
             const data::DatasetBundle* bundles)
      : index_(index), server_(server), plan_(plan), bundles_(bundles) {}

  Status Open() {
    Status st = client_.Connect(server_->port());
    if (!st.ok()) return st;
    return client_.Hello(kTenants[index_ % 2]);
  }

  // Whole rounds until `duration` has passed. Each round re-registers the
  // connection's data sets, which invalidates their cache entries, so
  // every round sees the same mix of misses and hits.
  void RunPhase(double duration, bool traced, ConnResult* out) {
    const Clock::time_point t0 = Clock::now();
    do {
      for (int d = 0; d < 2 * kSegments; ++d) {
        server_->RegisterDataset(DatasetName(index_, d), bundles_[d]);
      }
      for (const Step& step : plan_->per_connection[index_]) {
        RunStep(step, traced, out);
      }
    } while (SecondsSince(t0) < duration);
  }

 private:
  void RunStep(const Step& step, bool traced, ConnResult* out) {
    const std::string id =
        "c" + std::to_string(index_) + "-" + std::to_string(next_id_++);
    serve::Frame query;
    query.type = serve::frame::kQuery;
    query.Set("id", id);
    query.Set("dataset", DatasetName(index_, step.dataset));
    query.Set("cached", "1");
    if (traced) query.Set("trace", "1");
    query.body = plan_->texts[step.text_id];

    ++out->attempted;
    std::vector<serve::Frame> frames;
    std::optional<Clock::time_point> first;
    const Clock::time_point start = Clock::now();
    bool ok = client_.Send(query).ok();
    while (ok) {
      Result<serve::Frame> frame = client_.Receive();
      if (!frame.ok() || frame.value().type == serve::frame::kError) {
        ok = false;
        break;
      }
      const bool final = frame.value().type == serve::frame::kFinal;
      if (!first && (final || frame.value().type == serve::frame::kResult)) {
        first = Clock::now();
      }
      frames.push_back(std::move(frame).value());
      if (final) break;
    }
    const Clock::time_point end = Clock::now();
    if (!ok) {
      ++out->failed;
      return;
    }
    const serve::Frame& final = frames.back();
    out->samples.latency_ms.push_back(MsBetween(start, end));
    out->samples.first_ms.push_back(MsBetween(start, *first));
    auto [it, inserted] =
        out->answers.emplace(QueryKey{step.dataset, step.text_id}, final.body);
    if (!inserted && it->second != final.body) ++out->mismatches;
    if (traced) Attribute(id, query, frames, MsBetween(start, end), out);
  }

  // Traced runs only, outside the latency window: frame sizes and codec
  // costs, query-text parse cost, cache outcome, the engine's own counters
  // and spans (METRICS id= / TRACE id= round trips).
  void Attribute(const std::string& id, const serve::Frame& query,
                 const std::vector<serve::Frame>& frames, double latency_ms,
                 ConnResult* out) {
    LayerInputs& layer = out->layer;
    ++layer.queries;
    layer.frames += static_cast<int64_t>(frames.size());
    std::vector<const serve::Frame*> all = {&query};
    for (const serve::Frame& f : frames) all.push_back(&f);
    for (const serve::Frame* f : all) {
      Result<std::string> wire = InternalError("unset");
      {
        ScopedSpan span(&out->spans, "bench.encode_frame");
        wire = serve::EncodeFrame(*f);
      }
      if (!wire.ok()) continue;
      layer.bytes += static_cast<int64_t>(wire.value().size());
      ScopedSpan span(&out->spans, "bench.decode_frame");
      serve::FrameReader reader;
      std::optional<serve::Frame> decoded;
      if (reader.Feed(wire.value().data(), wire.value().size()).ok()) {
        (void)reader.Poll(&decoded);
      }
    }
    {
      ScopedSpan span(&out->spans, "bench.parse_query_text");
      (void)data::ParseQueryText(query.body);
    }
    const serve::Frame& final = frames.back();
    const std::string* outcome = final.Get("outcome");
    const std::string o = outcome != nullptr ? *outcome : "";
    layer.exact_hits += o == "exact";
    layer.subsumption_hits += o == "subsume";
    layer.warm_starts += o == "warm";
    layer.misses += o == "miss";
    Result<double> wait_s = final.GetDouble("wait_s", 0.0);
    if (wait_s.ok()) layer.admission_wait_s += wait_s.value();

    Result<std::string> metrics = client_.FetchMetrics(id);
    if (metrics.ok()) {
      Counters query_counters;
      AddMetricsText(metrics.value(), &query_counters);
      layer.overhead_s += latency_ms * 1e-3 - Get(query_counters, "total_s");
      for (const auto& [name, value] : query_counters) {
        layer.counters[name] += value;
      }
    }
    // Only cache hits: the TRACE reply of an executed query can exceed the
    // frame size limit, and the server then drops it without a reply.
    if (o != "exact" && o != "subsume") return;
    Result<std::string> trace = client_.FetchTrace(id);
    if (trace.ok()) {
      Result<obs::LoadedTrace> loaded = obs::ParseChromeTrace(trace.value());
      if (loaded.ok()) AddTraceSelfTimes(loaded.value(), &layer.spans);
    }
  }

  const int index_;
  serve::Server* server_;
  const Plan* plan_;
  const data::DatasetBundle* bundles_;
  serve::Client client_;
  int64_t next_id_ = 0;
};

Result<data::DatasetBundle> Bundle(Result<std::shared_ptr<array::Array>> a,
                                   double* build_s) {
  if (!a.ok()) return a.status();
  const Clock::time_point t = Clock::now();
  auto s = synopsis::Synopsis::Build(*a.value(), synopsis::SynopsisOptions{});
  *build_s += SecondsSince(t);
  if (!s.ok()) return s.status();
  a.value()->ResetAccessStats();
  return data::DatasetBundle{a.value(), s.value()};
}

}  // namespace

int RunExploreServe(const Args& args, Report* report) {
  double build_s = 0.0;
  std::vector<data::DatasetBundle> bundles;
  for (int seg = 0; seg < kSegments; ++seg) {
    data::SyntheticOptions synth;
    synth.length = kLength;
    synth.region_len = kRegionLength;
    synth.seed = Mix(args.seed, 2000 + 2 * seg);
    data::WaveformOptions wave;
    wave.length = kLength;
    wave.seed = Mix(args.seed, 2001 + 2 * seg);
    for (auto generated :
         {data::GenerateSynthetic(synth), data::GenerateAbpWaveform(wave)}) {
      Result<data::DatasetBundle> bundle =
          Bundle(std::move(generated), &build_s);
      if (!bundle.ok()) {
        std::fprintf(stderr, "perfbench: data set build failed: %s\n",
                     bundle.status().ToString().c_str());
        return 1;
      }
      bundles.push_back(bundle.value());
    }
  }
  const Plan plan = MakePlan(args.seed);

  exec::WorkerPool pool(kPoolThreads);
  exec::EngineSessionOptions session_options;
  session_options.pool = &pool;
  session_options.max_concurrent_queries = kConnections;
  exec::EngineSession session(session_options);
  serve::ServerOptions server_options;
  server_options.session = &session;
  // Traced runs fetch each query's record right after its FINAL.
  server_options.history_capacity = 2 * kConnections;
  std::vector<std::unique_ptr<Connection>> connections;
  serve::Server server(server_options);
  Status st = server.Start();
  for (int c = 0; st.ok() && c < kConnections; ++c) {
    connections.push_back(
        std::make_unique<Connection>(c, &server, &plan, bundles.data()));
    st = connections.back()->Open();
  }
  if (!st.ok()) {
    std::fprintf(stderr, "perfbench: server start failed: %s\n",
                 st.ToString().c_str());
    return 1;
  }
  const double setup_s = SecondsSince(g_process_start);

  // Runs every connection's loop on its own thread; returns the merged
  // outcome of the phase.
  std::vector<ConnResult> results(kConnections);
  const auto run_phase = [&](double duration, bool traced) {
    std::vector<ConnResult> phase(kConnections);
    const Cpu cpu0 = CpuNow();
    const Clock::time_point t0 = Clock::now();
    std::vector<std::thread> threads;
    for (int c = 0; c < kConnections; ++c) {
      threads.emplace_back([&, c] {
        connections[c]->RunPhase(duration, traced, &phase[c]);
      });
    }
    for (std::thread& t : threads) t.join();
    Phase merged;
    merged.wall_s = SecondsSince(t0);
    const Cpu cpu1 = CpuNow();
    merged.cpu = {cpu1.user_s - cpu0.user_s, cpu1.sys_s - cpu0.sys_s};
    for (int c = 0; c < kConnections; ++c) {
      merged.samples.Merge(phase[c].samples);
      report->attempted += phase[c].attempted;
      report->failed += phase[c].failed;
      results[c].mismatches += phase[c].mismatches;
      results[c].answers.insert(phase[c].answers.begin(),
                                phase[c].answers.end());
      for (const auto& [key, body] : phase[c].answers) {
        if (results[c].answers.at(key) != body) ++results[c].mismatches;
      }
    }
    return std::make_pair(merged, std::move(phase));
  };

  // Warm-up round (not reported).
  {
    const int64_t attempted = report->attempted;
    const int64_t failed = report->failed;
    run_phase(0.0, false);
    if (report->failed != failed) {
      std::fprintf(stderr, "perfbench: warm-up queries failed\n");
      return 1;
    }
    report->attempted = attempted;
  }

  if (args.trace) {
    const auto plain = run_phase(args.seconds / 2, false);
    const auto lookups = [&bundles] {
      int64_t n = 0;
      for (const auto& b : bundles) n += b.synopsis->queries_served();
      return n;
    };
    const auto chunks = [&bundles] {
      int64_t n = 0;
      for (const auto& b : bundles) n += b.array->GetAccessStats().chunks_touched;
      return n;
    };
    const int64_t lookups0 = lookups();
    const int64_t chunks0 = chunks();
    auto traced = run_phase(args.seconds / 2, true);
    LayerInputs layer;
    layer.serve = true;
    layer.bound_lookups = lookups() - lookups0;
    layer.chunks_read = chunks() - chunks0;
    for (ConnResult& r : traced.second) {
      LayerInputs& in = r.layer;
      layer.queries += in.queries;
      layer.frames += in.frames;
      layer.bytes += in.bytes;
      layer.exact_hits += in.exact_hits;
      layer.subsumption_hits += in.subsumption_hits;
      layer.warm_starts += in.warm_starts;
      layer.misses += in.misses;
      layer.admission_wait_s += in.admission_wait_s;
      layer.overhead_s += in.overhead_s;
      for (const auto& [name, value] : in.counters) {
        layer.counters[name] += value;
      }
      layer.spans.Merge(in.spans);
      layer.spans.Merge(r.spans.totals());
    }
    layer.sys_cpu_ms_per_query =
        plain.first.cpu.sys_s * 1e3 /
        static_cast<double>(
            std::max<size_t>(plain.first.samples.latency_ms.size(), 1));
    layer.synopsis_build_s = build_s;
    layer.trace_overhead_ms = GeoMean(traced.first.samples.latency_ms) -
                              GeoMean(plain.first.samples.latency_ms);
    AddPerLayer(layer, report);
  } else {
    const auto measured = run_phase(args.seconds, false);
    AddEndToEnd(measured.first, setup_s, 0.99, report);
  }
  connections.clear();
  server.Stop();

  // Checks, outside every timed phase: each distinct query once, directly
  // and uncached; every FINAL body seen for it must equal the direct
  // answer, which is then checked against the oracle and raw cells.
  std::map<QueryKey, std::string> served;
  int64_t mismatches = 0;
  for (const ConnResult& r : results) {
    mismatches += r.mismatches;
    for (const auto& [key, body] : r.answers) {
      auto [it, inserted] = served.emplace(key, body);
      if (!inserted && it->second != body) ++mismatches;
    }
  }
  if (args.corrupt_answer && !served.empty()) {
    served.begin()->second += "corrupted\n";
  }
  core::RefineOptions options;
  options.worker_pool = &pool;
  std::vector<std::shared_ptr<const std::vector<double>>> cells;
  for (const auto& b : bundles) {
    cells.push_back(
        std::make_shared<const std::vector<double>>(b.array->Dump()));
  }
  bool ok = mismatches == 0;
  std::vector<CheckedQuery> checked;
  std::vector<const std::string*> bodies;
  for (const auto& [key, body] : served) {
    const auto [d, text_id] = key;
    CheckedQuery q;
    q.name = "dataset " + std::to_string(d) + " text " +
             std::to_string(text_id);
    Result<searchlight::QuerySpec> spec =
        data::ParseQuery(plan.texts[text_id], bundles[d]);
    if (!spec.ok()) {
      std::fprintf(stderr, "perfbench: %s does not parse: %s\n",
                   q.name.c_str(), spec.status().ToString().c_str());
      ok = false;
      continue;
    }
    q.query = spec.value();
    q.recompute = [raw = cells[d]](const std::vector<int64_t>& p) {
      return Recompute1d(*raw, p);
    };
    checked.push_back(std::move(q));
    bodies.push_back(&body);
  }
  // Two direct runs at a time: each takes 2 of the pool's 4 threads.
  std::vector<std::vector<core::Solution>> direct_answers(checked.size());
  std::atomic<bool> direct_ok{true};
  ParallelFor(checked.size(), 2, [&](size_t i) {
    Result<core::RunResult> direct =
        core::ExecuteQuery(checked[i].query, options);
    if (!direct.ok() || !direct.value().stats.completed) {
      std::fprintf(stderr, "perfbench: direct run of %s failed\n",
                   checked[i].name.c_str());
      direct_ok = false;
      return;
    }
    if (core::Canonicalize(direct.value().results) != *bodies[i]) {
      std::fprintf(stderr,
                   "perfbench: FINAL body of %s differs from the direct "
                   "answer\n",
                   checked[i].name.c_str());
      direct_ok = false;
    }
    direct_answers[i] = std::move(direct.value().results);
  });
  ok = ok && direct_ok;
  ok = CheckAnswers(checked, options, direct_answers) && ok;
  if (mismatches > 0) {
    std::fprintf(stderr,
                 "perfbench: %lld FINAL bodies differ from an earlier FINAL "
                 "of the same query\n",
                 static_cast<long long>(mismatches));
  }
  report->correct = ok;
  return 0;
}

}  // namespace dqr::perfbench

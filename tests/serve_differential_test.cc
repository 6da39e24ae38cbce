// Server-differential harness (the headline test of the dqr_serve front
// end): seeded generator workloads are shipped to a loopback server as
// text-IR QUERY frames and the streamed FINAL answer must be
// byte-identical — same canonical body, same fingerprint — to a direct
// in-process run of the same query, across pool widths {2, 8} and
// concurrent client counts {1, 4}. The streamed event sequence is also
// checked for protocol shape (ACCEPTED, then phases in order) and bound
// monotonicity (MRP non-increasing, MRK non-decreasing), and cached
// resubmission must produce an exact hit with the identical answer.

#include <gtest/gtest.h>

#include <limits>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/canonical.h"
#include "core/fault.h"
#include "core/refiner.h"
#include "data/queries.h"
#include "exec/engine_session.h"
#include "exec/timer_wheel.h"
#include "exec/worker_pool.h"
#include "serve/client.h"
#include "serve/server.h"
#include "testing/generator.h"

namespace dqr::serve {
namespace {

fuzz::FuzzMode ModeFor(uint64_t seed) {
  switch (seed % 3) {
    case 0:
      return fuzz::FuzzMode::kSkyline;
    case 1:
      return fuzz::FuzzMode::kRelax;
    default:
      return fuzz::FuzzMode::kConstrain;
  }
}

// The QUERY frame a workload maps to: semantic knobs as attributes, the
// text IR as the body. Engine knobs are left at server defaults, which
// match the direct leg's EngineConfig defaults.
Frame QueryFrameFor(const std::string& id, const std::string& dataset,
                    const fuzz::Workload& w, bool cached) {
  Frame q;
  q.type = frame::kQuery;
  q.Set("id", id);
  q.Set("dataset", dataset);
  q.Set("alpha", w.alpha);
  q.Set("constrain", w.constrain == core::ConstrainMode::kNone ? "none"
                     : w.constrain == core::ConstrainMode::kRank
                         ? "rank"
                         : "skyline");
  if (!w.result_spacing.empty()) {
    std::string spacing;
    for (int64_t s : w.result_spacing) {
      if (!spacing.empty()) spacing += ',';
      spacing += std::to_string(s);
    }
    q.Set("spacing", spacing);
    q.Set("divpool", w.diversity_pool_factor);
  }
  if (cached) q.Set("cached", std::string("1"));
  q.body = w.query_text;
  return q;
}

// The direct leg: the exact in-process execution the server performs for
// a default-attribute QUERY frame.
std::string DirectCanonical(const fuzz::Workload& w) {
  core::FaultPlan plan;
  const core::RefineOptions options =
      fuzz::EngineConfig{}.ToOptions(w, &plan);
  Result<core::RunResult> run = core::ExecuteQuery(w.query, options);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  if (!run.ok()) return "<direct leg failed>";
  EXPECT_TRUE(run.value().stats.completed);
  return core::Canonicalize(run.value().results);
}

// Protocol-shape and bound-monotonicity checks over one query's streamed
// frames.
void CheckStream(const QueryRun& run, const std::string& id) {
  ASSERT_FALSE(run.events.empty()) << id;
  EXPECT_EQ(run.events.front().type, frame::kAccepted) << id;
  int collecting_at = -1;
  int constraining_at = -1;
  double last_mrp = std::numeric_limits<double>::infinity();
  double last_mrk = -std::numeric_limits<double>::infinity();
  for (size_t i = 0; i < run.events.size(); ++i) {
    const Frame& f = run.events[i];
    ASSERT_NE(f.Get("id"), nullptr);
    EXPECT_EQ(*f.Get("id"), id);
    if (f.type == frame::kAccepted) {
      EXPECT_EQ(i, 0u) << id;
    } else if (f.type == frame::kPhase) {
      ASSERT_NE(f.Get("phase"), nullptr);
      if (*f.Get("phase") == "collecting") {
        collecting_at = static_cast<int>(i);
      } else {
        ASSERT_EQ(*f.Get("phase"), "constraining");
        constraining_at = static_cast<int>(i);
      }
    } else if (f.type == frame::kBound) {
      ASSERT_NE(f.Get("bound"), nullptr);
      Result<double> value = f.GetDouble("value", 0.0);
      ASSERT_TRUE(value.ok());
      if (*f.Get("bound") == "mrp") {
        EXPECT_LE(value.value(), last_mrp) << id << " event " << i;
        last_mrp = value.value();
      } else {
        ASSERT_EQ(*f.Get("bound"), "mrk");
        EXPECT_GE(value.value(), last_mrk) << id << " event " << i;
        last_mrk = value.value();
      }
    } else {
      ASSERT_EQ(f.type, frame::kResult) << id << " event " << i;
      EXPECT_FALSE(f.body.empty());
    }
  }
  // The admission phase always fires once, before any constraining flip.
  ASSERT_GE(collecting_at, 0) << id;
  if (constraining_at >= 0) {
    EXPECT_LT(collecting_at, constraining_at);
  }
}

struct Expected {
  fuzz::Workload workload;
  std::string canonical;
};

// The matrix cell: `clients` concurrent connections, each running every
// seeded workload against `server`, all answers checked byte-for-byte
// against the precomputed direct leg.
void RunClients(Server& server, const std::vector<Expected>& expected,
                int clients) {
  std::vector<std::thread> threads;
  std::mutex failures_mu;
  std::vector<std::string> failures;
  for (int t = 0; t < clients; ++t) {
    threads.emplace_back([&, t] {
      const auto record = [&](const std::string& what) {
        std::lock_guard<std::mutex> lock(failures_mu);
        failures.push_back(what);
      };
      Client client;
      Status st = client.Connect(server.port());
      if (st.ok()) st = client.Hello("client" + std::to_string(t));
      if (!st.ok()) {
        record("connect: " + st.ToString());
        return;
      }
      for (size_t i = 0; i < expected.size(); ++i) {
        const std::string id =
            "c" + std::to_string(t) + "q" + std::to_string(i);
        const std::string dataset =
            "w" + std::to_string(expected[i].workload.seed);
        Result<QueryRun> run = client.RunQuery(
            QueryFrameFor(id, dataset, expected[i].workload, false));
        if (!run.ok()) {
          record(id + ": " + run.status().ToString());
          continue;
        }
        if (run.value().canonical() != expected[i].canonical) {
          record(id + ": canonical body diverged from direct run");
        }
        if (run.value().fingerprint() !=
            core::CanonicalFingerprint(run.value().canonical())) {
          record(id + ": fingerprint does not match body");
        }
        CheckStream(run.value(), id);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  for (const std::string& f : failures) ADD_FAILURE() << f;
}

TEST(ServeDifferential, StreamedAnswersMatchDirectRunsUnderConcurrency) {
  // Precompute workloads + direct-leg answers once; reused across every
  // (pool width, clients) cell so divergence isolates the serve path.
  std::vector<Expected> expected;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Expected e;
    e.workload = fuzz::MakeWorkload(seed, ModeFor(seed));
    e.canonical = DirectCanonical(e.workload);
    expected.push_back(std::move(e));
  }

  for (const int pool_width : {2, 8}) {
    exec::WorkerPool pool(pool_width);
    exec::TimerWheel wheel;
    exec::EngineSessionOptions session_options;
    session_options.pool = &pool;
    session_options.wheel = &wheel;
    session_options.max_concurrent_queries = 4;
    exec::EngineSession session(session_options);

    ServerOptions options;
    options.session = &session;
    Server server(options);
    ASSERT_TRUE(server.Start().ok());
    for (const Expected& e : expected) {
      ASSERT_TRUE(server
                      .RegisterDataset("w" + std::to_string(e.workload.seed),
                                       data::DatasetBundle{
                                           e.workload.array,
                                           e.workload.synopsis})
                      .ok());
    }

    for (const int clients : {1, 4}) {
      RunClients(server, expected, clients);
    }

    const ServerStats stats = server.stats();
    EXPECT_EQ(stats.queries_failed, 0) << "pool=" << pool_width;
    EXPECT_EQ(stats.queries_completed,
              static_cast<int64_t>((1 + 4) * expected.size()))
        << "pool=" << pool_width;
    server.Stop();
  }
}

TEST(ServeDifferential, CachedResubmissionHitsExactlyWithSameAnswer) {
  const fuzz::Workload w = fuzz::MakeWorkload(2, fuzz::FuzzMode::kRelax);
  const std::string direct = DirectCanonical(w);

  Server server;
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(
      server.RegisterDataset("d", data::DatasetBundle{w.array, w.synopsis})
          .ok());
  Client client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  ASSERT_TRUE(client.Hello("cachetest").ok());

  Result<QueryRun> first =
      client.RunQuery(QueryFrameFor("q1", "d", w, true));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_NE(first.value().final.Get("outcome"), nullptr);
  EXPECT_EQ(*first.value().final.Get("outcome"), "miss");
  EXPECT_EQ(first.value().canonical(), direct);

  Result<QueryRun> second =
      client.RunQuery(QueryFrameFor("q2", "d", w, true));
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  ASSERT_NE(second.value().final.Get("outcome"), nullptr);
  EXPECT_EQ(*second.value().final.Get("outcome"), "exact");
  EXPECT_EQ(second.value().canonical(), direct);
  EXPECT_EQ(second.value().fingerprint(), first.value().fingerprint());

  server.Stop();
}

TEST(ServeDifferential, MetricsAndTraceEndpointsServeCompletedQueries) {
  const fuzz::Workload w = fuzz::MakeWorkload(3, fuzz::FuzzMode::kConstrain);

  Server server;
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(
      server.RegisterDataset("d", data::DatasetBundle{w.array, w.synopsis})
          .ok());
  Client client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  ASSERT_TRUE(client.Hello("obs").ok());

  Frame query = QueryFrameFor("traced", "d", w, false);
  query.Set("trace", std::string("1"));
  Result<QueryRun> run = client.RunQuery(query);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  // Aggregate exposition carries engine, serve, tenant and session
  // samples with the dqr_ prefix.
  Result<std::string> metrics = client.FetchMetrics();
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_NE(metrics.value().find("dqr_serve_queries_completed"),
            std::string::npos);
  EXPECT_NE(metrics.value().find("tenant=\"obs\""), std::string::npos);
  EXPECT_NE(metrics.value().find("dqr_serve_session_queries_admitted"),
            std::string::npos);

  // Per-query metrics and the Chrome trace are fetchable by id.
  Result<std::string> per_query = client.FetchMetrics("traced");
  ASSERT_TRUE(per_query.ok()) << per_query.status().ToString();
  EXPECT_NE(per_query.value().find("query=\"traced\""), std::string::npos);
  Result<std::string> trace = client.FetchTrace("traced");
  ASSERT_TRUE(trace.ok()) << trace.status().ToString();
  EXPECT_NE(trace.value().find("traceEvents"), std::string::npos);

  // Precise errors for unknown ids and untraced queries.
  Result<std::string> missing = client.FetchTrace("nope");
  ASSERT_FALSE(missing.ok());
  EXPECT_NE(missing.status().message().find(
                "no completed query with id 'nope'"),
            std::string::npos);

  server.Stop();
}

// A reply too large for one frame — here the Chrome trace of an
// over-constrained query on a waveform, well over kMaxFramePayload — is
// answered with ERROR code=too_large carrying the request's id instead of
// being dropped (which left the client blocked forever), and the
// connection keeps serving later requests.
TEST(ServeDifferential, OversizedReplyIsAnErrorAndTheConnectionSurvives) {
  Result<data::DatasetBundle> bundle =
      data::MakeWaveformDataset(int64_t{1} << 16, 5);
  ASSERT_TRUE(bundle.ok());
  Server server;
  ASSERT_TRUE(server.Start().ok());
  ASSERT_TRUE(server.RegisterDataset("wave", bundle.value()).ok());
  Client client;
  ASSERT_TRUE(client.Connect(server.port()).ok());
  ASSERT_TRUE(client.Hello("obs").ok());

  Frame query;
  query.type = frame::kQuery;
  query.Set("id", std::string("big"));
  query.Set("dataset", std::string("wave"));
  query.Set("inst", static_cast<int64_t>(4));
  query.Set("trace", std::string("1"));
  query.body =
      "k 10\nvar x 8 65511\nvar lx 8 16\n"
      "avg x lx in 150 200 range 50 250\n"
      "contrast_left x lx 8 in 122 inf range 0 200\n"
      "contrast_right x lx 8 in 122 inf range 0 200\n";
  Result<QueryRun> run = client.RunQuery(query);
  ASSERT_TRUE(run.ok()) << run.status().ToString();

  Frame fetch;
  fetch.type = frame::kTrace;
  fetch.Set("id", std::string("big"));
  ASSERT_TRUE(client.Send(fetch).ok());
  Result<Frame> reply = client.Receive();
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply.value().type, frame::kError) << reply.value().body.size();
  ASSERT_NE(reply.value().Get("id"), nullptr);
  EXPECT_EQ(*reply.value().Get("id"), "big");
  ASSERT_NE(reply.value().Get("code"), nullptr);
  EXPECT_EQ(*reply.value().Get("code"), "too_large");
  EXPECT_NE(reply.value().body.find("exceeds limit " +
                                    std::to_string(kMaxFramePayload)),
            std::string::npos)
      << reply.value().body;

  // The same connection still answers the next request.
  Result<std::string> metrics = client.FetchMetrics("big");
  ASSERT_TRUE(metrics.ok()) << metrics.status().ToString();
  EXPECT_NE(metrics.value().find("query=\"big\""), std::string::npos);

  server.Stop();
}

}  // namespace
}  // namespace dqr::serve

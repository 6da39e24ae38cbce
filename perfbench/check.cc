// Answer checks shared by every workload: the brute-force oracle and a
// recomputation of each returned solution's constraint values from raw
// cells. Neither shares code with the engine's search.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench.h"
#include "core/canonical.h"
#include "testing/oracle.h"

namespace dqr::perfbench {
namespace {

// Neighborhood widths of the canned queries (data::QueryTuning,
// data::GridQueryTuning defaults; explore_serve's texts use the 1-D one).
constexpr int64_t kWidth1d = 8;
constexpr int64_t kWidth2d = 4;
// The oracle enumerates every assignment; the largest query here is far
// below this cap.
constexpr int64_t kOracleMaxSpace = int64_t{1} << 26;
// The oracle is single-threaded; the checks spread queries over nproc (4)
// threads.
constexpr int kCheckThreads = 4;

bool Close(double a, double b) {
  return std::abs(a - b) <= 1e-9 * std::max(1.0, std::abs(b));
}

}  // namespace

// avg / left contrast / right contrast of window [x, x + l), as
// searchlight's AvgFunction and NeighborhoodContrastFunction define them.
std::vector<double> Recompute1d(const std::vector<double>& cells,
                                const std::vector<int64_t>& point) {
  const int64_t n = static_cast<int64_t>(cells.size());
  const int64_t x = point[0];
  const int64_t hi = std::min(n, x + point[1]);
  double sum = 0.0;
  double mx = -INFINITY;
  for (int64_t i = x; i < hi; ++i) {
    sum += cells[i];
    mx = std::max(mx, cells[i]);
  }
  const auto contrast = [&](int64_t lo, int64_t end) {
    if (lo >= end) return 0.0;
    double nb = -INFINITY;
    for (int64_t i = lo; i < end; ++i) nb = std::max(nb, cells[i]);
    return std::abs(mx - nb);
  };
  return {sum / static_cast<double>(hi - x),
          contrast(std::max<int64_t>(0, x - kWidth1d), x),
          contrast(hi, std::min(n, hi + kWidth1d))};
}

// The 2-D analogue over rectangle rows [y, y + h) x cols [x, x + w), with
// the contrast neighborhoods to the left and right of the rectangle.
std::vector<double> Recompute2d(const array::Grid& grid,
                                const std::vector<int64_t>& point) {
  const int64_t rows = grid.rows();
  const int64_t cols = grid.cols();
  const int64_t y = point[0];
  const int64_t x = point[1];
  const int64_t r1 = std::min(rows, y + point[2]);
  const int64_t c1 = std::min(cols, x + point[3]);
  const auto max_over = [&](int64_t c_lo, int64_t c_hi) {
    double m = -INFINITY;
    for (int64_t r = y; r < r1; ++r) {
      for (int64_t c = c_lo; c < c_hi; ++c) m = std::max(m, grid.At(r, c));
    }
    return m;
  };
  double sum = 0.0;
  for (int64_t r = y; r < r1; ++r) {
    for (int64_t c = x; c < c1; ++c) sum += grid.At(r, c);
  }
  const double mx = max_over(x, c1);
  const auto contrast = [&](int64_t lo, int64_t end) {
    return lo >= end ? 0.0 : std::abs(mx - max_over(lo, end));
  };
  return {sum / static_cast<double>((r1 - y) * (c1 - x)),
          contrast(std::max<int64_t>(0, x - kWidth2d), x),
          contrast(c1, std::min(cols, c1 + kWidth2d))};
}

// Checks one answer against the oracle's and against values recomputed
// from raw cells; returns false (with a note on stderr) on any mismatch.
bool CheckAnswer(const CheckedQuery& c, const core::RefineOptions& options,
                 const std::vector<core::Solution>& answer) {
  bool ok = true;
  Result<fuzz::OracleResult> oracle =
      fuzz::OracleRun(c.query, options, kOracleMaxSpace);
  if (!oracle.ok()) {
    std::fprintf(stderr, "perfbench: %s: oracle failed: %s\n",
                 c.name.c_str(), oracle.status().ToString().c_str());
    return false;
  }
  if (core::Canonicalize(oracle.value().results) !=
      core::Canonicalize(answer)) {
    std::fprintf(stderr, "perfbench: %s: answer differs from the oracle's\n",
                 c.name.c_str());
    ok = false;
  }
  for (const core::Solution& s : answer) {
    const std::vector<double> values = c.recompute(s.point);
    bool in_bounds = true;
    for (size_t i = 0; i < values.size(); ++i) {
      if (i >= s.values.size() || !Close(s.values[i], values[i])) {
        std::fprintf(stderr,
                     "perfbench: %s: %s: constraint %zu is %.17g from raw "
                     "cells\n",
                     c.name.c_str(), s.ToString().c_str(), i, values[i]);
        ok = false;
      }
      in_bounds = in_bounds && c.query.constraints[i].bounds.Contains(values[i]);
    }
    if ((s.rp == 0.0) != in_bounds) {
      std::fprintf(stderr,
                   "perfbench: %s: %s: rp disagrees with the recomputed "
                   "values (in bounds: %d)\n",
                   c.name.c_str(), s.ToString().c_str(), in_bounds ? 1 : 0);
      ok = false;
    }
  }
  return ok;
}

bool CheckAnswers(const std::vector<CheckedQuery>& queries,
                  const core::RefineOptions& options,
                  const std::vector<std::vector<core::Solution>>& answers) {
  std::atomic<bool> ok{true};
  ParallelFor(queries.size(), kCheckThreads, [&](size_t i) {
    if (!CheckAnswer(queries[i], options, answers[i])) ok = false;
  });
  return ok;
}

}  // namespace dqr::perfbench

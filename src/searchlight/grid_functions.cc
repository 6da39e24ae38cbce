#include "searchlight/grid_functions.h"

#include "obs/histogram.h"

#include <algorithm>
#include <cmath>

#include "common/check.h"

namespace dqr::searchlight {
namespace {

// Cache kinds for rectangle lookups (distinct from the 1-D kinds, which
// live in separate function instances anyway).
constexpr int kKindRectValue = 10;
constexpr int kKindRectMax = 11;

// Packs a rectangle into the BoundsCache's (lo, hi) key pair. Extents are
// checked to fit 31 bits at construction.
int64_t Pack(int64_t a, int64_t b) { return (a << 32) | b; }

GridFunctionContext WithContrastDefaultRange(GridFunctionContext ctx) {
  if (ctx.value_range.empty() && ctx.synopsis != nullptr) {
    ctx.value_range =
        Interval(0.0, ctx.synopsis->global_value_range().width());
  }
  return ctx;
}

}  // namespace

RectFunction::RectFunction(GridFunctionContext ctx)
    : ctx_(std::move(ctx)),
      cache_(BoundsCache::ForFunction(ctx_.estimate_cost_ns,
                                      /*latency=*/false, ctx_.shared_memo,
                                      ctx_.shared_memo_key)) {
  DQR_CHECK(ctx_.grid != nullptr && ctx_.synopsis != nullptr);
  DQR_CHECK(ctx_.grid->rows() < (int64_t{1} << 31) &&
            ctx_.grid->cols() < (int64_t{1} << 31));
  value_range_ = ctx_.value_range.empty()
                     ? ctx_.synopsis->global_value_range()
                     : ctx_.value_range;
}

std::unique_ptr<cp::FunctionState> RectFunction::SaveState(
    const cp::DomainBox& box) const {
  (void)box;
  return cache_.SaveRecent();
}

void RectFunction::RestoreState(const cp::FunctionState& state) {
  cache_.Restore(state);
}

void RectFunction::ClearState() { cache_.Clear(); }

RectFunction::RectBox RectFunction::ReadRect(
    const cp::DomainBox& box) const {
  const auto dom = [&](int var) -> const cp::IntDomain& {
    DQR_CHECK(var >= 0 && static_cast<size_t>(var) < box.size());
    return box[static_cast<size_t>(var)];
  };
  const cp::IntDomain& y = dom(ctx_.y_var);
  const cp::IntDomain& x = dom(ctx_.x_var);
  const cp::IntDomain& h = dom(ctx_.h_var);
  const cp::IntDomain& w = dom(ctx_.w_var);
  DQR_CHECK(y.lo >= 0 && y.hi < grid_rows());
  DQR_CHECK(x.lo >= 0 && x.hi < grid_cols());
  DQR_CHECK(h.lo >= 1 && w.lo >= 1);

  RectBox r;
  r.y_lo = y.lo;
  r.y_hi = y.hi;
  r.x_lo = x.lo;
  r.x_hi = x.hi;
  r.h_lo = h.lo;
  r.h_hi = h.hi;
  r.w_lo = w.lo;
  r.w_hi = w.hi;
  r.span_r1 = std::min(grid_rows(), y.hi + h.hi);
  r.span_c1 = std::min(grid_cols(), x.hi + w.hi);
  r.bound = y.IsBound() && x.IsBound() && h.IsBound() && w.IsBound();
  return r;
}

int RectFunction::EstimateLevel(const std::vector<int64_t>& point) const {
  const auto read = [&point](int var, int64_t* out) {
    if (var < 0 || static_cast<size_t>(var) >= point.size()) return false;
    *out = point[static_cast<size_t>(var)];
    return true;
  };
  int64_t y = 0, x = 0, h = 0, w = 0;
  if (!read(ctx_.y_var, &y) || !read(ctx_.x_var, &x) ||
      !read(ctx_.h_var, &h) || !read(ctx_.w_var, &w)) {
    return -1;
  }
  const int64_t r1 = std::min(grid_rows(), y + h);
  const int64_t c1 = std::min(grid_cols(), x + w);
  if (y < 0 || x < 0 || r1 <= y || c1 <= x) return -1;
  return static_cast<int>(ctx_.synopsis->PickLevelIndex(y, r1, x, c1));
}

Interval RectFunction::CachedValueBounds(int64_t r0, int64_t r1,
                                         int64_t c0, int64_t c1) {
  return cache_.GetOrCompute(
      kKindRectValue, Pack(r0, r1), Pack(c0, c1),
      [&] { return synopsis().ValueBounds(r0, r1, c0, c1); });
}

Interval RectFunction::CachedMaxBounds(int64_t r0, int64_t r1, int64_t c0,
                                       int64_t c1) {
  return cache_.GetOrCompute(
      kKindRectMax, Pack(r0, r1), Pack(c0, c1),
      [&] { return synopsis().MaxBounds(r0, r1, c0, c1); });
}

Interval RectFunction::MaxOverRects(int64_t y_lo, int64_t y_hi,
                                    int64_t x_lo, int64_t x_hi,
                                    int64_t h_lo, int64_t h_hi,
                                    int64_t w_lo, int64_t w_hi) {
  const int64_t rows = grid_rows();
  const int64_t cols = grid_cols();
  DQR_CHECK(0 <= y_lo && y_lo <= y_hi && y_hi < rows);
  DQR_CHECK(0 <= x_lo && x_lo <= x_hi && x_hi < cols);
  DQR_CHECK(1 <= h_lo && h_lo <= h_hi && 1 <= w_lo && w_lo <= w_hi);

  if (y_lo == y_hi && x_lo == x_hi) {
    // Fixed origin: max over a clipped rectangle is monotone in both
    // extents, so the smallest and largest rectangles bound all others.
    const Interval small = CachedMaxBounds(
        y_lo, std::min(rows, y_lo + h_lo), x_lo,
        std::min(cols, x_lo + w_lo));
    const Interval large =
        (h_lo == h_hi && w_lo == w_hi)
            ? small
            : CachedMaxBounds(y_lo, std::min(rows, y_lo + h_hi), x_lo,
                              std::min(cols, x_lo + w_hi));
    return Interval(small.lo, large.hi);
  }

  const int64_t span_r1 = std::min(rows, y_hi + h_hi);
  const int64_t span_c1 = std::min(cols, x_hi + w_hi);
  const Interval span_values =
      CachedValueBounds(y_lo, span_r1, x_lo, span_c1);
  // The common core is contained in every rectangle of the box.
  const int64_t core_r0 = y_hi;
  const int64_t core_r1 = std::min(rows, y_lo + h_lo);
  const int64_t core_c0 = x_hi;
  const int64_t core_c1 = std::min(cols, x_lo + w_lo);
  double lower = span_values.lo;
  if (core_r0 < core_r1 && core_c0 < core_c1) {
    lower = std::max(
        lower, CachedMaxBounds(core_r0, core_r1, core_c0, core_c1).lo);
  }
  return Interval(lower, span_values.hi);
}

// ---------------------------------------------------------------------
// RectAvgFunction

Interval RectAvgFunction::Estimate(const cp::DomainBox& box) {
  const RectBox r = ReadRect(box);
  if (r.bound) {
    const int64_t r1 = std::min(grid_rows(), r.y_lo + r.h_lo);
    const int64_t c1 = std::min(grid_cols(), r.x_lo + r.w_lo);
    DQR_CHECK(r1 > r.y_lo && c1 > r.x_lo);
    const obs::ScopedSinkTimer bound_timer;
    ChargeEstimateCost(ctx().estimate_cost_ns, /*latency=*/false);
    return synopsis().AvgBounds(r.y_lo, r1, r.x_lo, c1);
  }
  return CachedValueBounds(r.y_lo, r.span_r1, r.x_lo, r.span_c1);
}

double RectAvgFunction::Evaluate(const std::vector<int64_t>& point) {
  const int64_t y = point[static_cast<size_t>(ctx().y_var)];
  const int64_t x = point[static_cast<size_t>(ctx().x_var)];
  const int64_t h = point[static_cast<size_t>(ctx().h_var)];
  const int64_t w = point[static_cast<size_t>(ctx().w_var)];
  const int64_t r1 = std::min(grid_rows(), y + h);
  const int64_t c1 = std::min(grid_cols(), x + w);
  DQR_CHECK(r1 > y && c1 > x);
  return grid().AggregateRect(y, r1, x, c1).avg();
}

// ---------------------------------------------------------------------
// RectMaxFunction

Interval RectMaxFunction::Estimate(const cp::DomainBox& box) {
  const RectBox r = ReadRect(box);
  return MaxOverRects(r.y_lo, r.y_hi, r.x_lo, r.x_hi, r.h_lo, r.h_hi,
                      r.w_lo, r.w_hi);
}

double RectMaxFunction::Evaluate(const std::vector<int64_t>& point) {
  const int64_t y = point[static_cast<size_t>(ctx().y_var)];
  const int64_t x = point[static_cast<size_t>(ctx().x_var)];
  const int64_t h = point[static_cast<size_t>(ctx().h_var)];
  const int64_t w = point[static_cast<size_t>(ctx().w_var)];
  const int64_t r1 = std::min(grid_rows(), y + h);
  const int64_t c1 = std::min(grid_cols(), x + w);
  DQR_CHECK(r1 > y && c1 > x);
  return grid().MaxOver(y, r1, x, c1);
}

void RectMaxFunction::EvaluateBatch(
    const std::vector<const std::vector<int64_t>*>& points, double* out) {
  const size_t n = points.size();
  std::vector<int64_t> r0(n), r1(n), c0(n), c1(n);
  for (size_t i = 0; i < n; ++i) {
    const std::vector<int64_t>& point = *points[i];
    const int64_t y = point[static_cast<size_t>(ctx().y_var)];
    const int64_t x = point[static_cast<size_t>(ctx().x_var)];
    const int64_t h = point[static_cast<size_t>(ctx().h_var)];
    const int64_t w = point[static_cast<size_t>(ctx().w_var)];
    r0[i] = y;
    r1[i] = std::min(grid_rows(), y + h);
    c0[i] = x;
    c1[i] = std::min(grid_cols(), x + w);
    DQR_CHECK(r1[i] > y && c1[i] > x);
  }
  grid().MaxOverRectsBatch(r0.data(), r1.data(), c0.data(), c1.data(),
                           static_cast<int64_t>(n), out);
}

// ---------------------------------------------------------------------
// RectContrastFunction

RectContrastFunction::RectContrastFunction(GridFunctionContext ctx,
                                           Side side, int64_t width)
    : RectFunction(WithContrastDefaultRange(std::move(ctx))),
      side_(side),
      width_(width) {
  DQR_CHECK(width_ >= 1);
}

std::pair<int64_t, int64_t> RectContrastFunction::NeighborhoodCols(
    int64_t x, int64_t w) const {
  if (side_ == Side::kLeft) {
    return {std::max<int64_t>(0, x - width_), x};
  }
  const int64_t end = std::min(grid_cols(), x + w);
  return {end, std::min(grid_cols(), end + width_)};
}

Interval RectContrastFunction::Estimate(const cp::DomainBox& box) {
  const RectBox r = ReadRect(box);
  const Interval main = MaxOverRects(r.y_lo, r.y_hi, r.x_lo, r.x_hi,
                                     r.h_lo, r.h_hi, r.w_lo, r.w_hi);

  // Bounds on max(neighborhood band) over all assignments, handling
  // column truncation at the grid edges soundly (see the 1-D analogue in
  // NeighborhoodContrastFunction::Estimate).
  const int64_t rows = grid_rows();
  const int64_t cols = grid_cols();
  const int64_t row_span_r1 = std::min(rows, r.y_hi + r.h_hi);
  Interval nbhd = Interval::Empty();
  bool can_be_empty = false;
  if (side_ == Side::kLeft) {
    if (r.x_hi == 0) {
      can_be_empty = true;
    } else if (r.x_lo >= width_) {
      nbhd = MaxOverRects(r.y_lo, r.y_hi, r.x_lo - width_,
                          r.x_hi - width_, r.h_lo, r.h_hi, width_, width_);
    } else {
      nbhd = CachedValueBounds(r.y_lo, row_span_r1, 0, r.x_hi);
      can_be_empty = r.x_lo == 0;
    }
  } else {
    const int64_t e_lo = std::min(cols, r.x_lo + r.w_lo);
    const int64_t e_hi = std::min(cols, r.x_hi + r.w_hi);
    if (e_lo >= cols) {
      can_be_empty = true;
    } else if (e_hi + width_ <= cols) {
      nbhd = MaxOverRects(r.y_lo, r.y_hi, e_lo, e_hi, r.h_lo, r.h_hi,
                          width_, width_);
    } else {
      nbhd = CachedValueBounds(r.y_lo, row_span_r1, e_lo, cols);
      can_be_empty = e_hi >= cols;
    }
  }

  Interval estimate = nbhd.empty() ? Interval::Empty() : Abs(main - nbhd);
  if (can_be_empty) {
    estimate = estimate.Union(Interval::Point(0.0));
  }
  DQR_CHECK(!estimate.empty());
  return estimate;
}

double RectContrastFunction::Evaluate(const std::vector<int64_t>& point) {
  const int64_t y = point[static_cast<size_t>(ctx().y_var)];
  const int64_t x = point[static_cast<size_t>(ctx().x_var)];
  const int64_t h = point[static_cast<size_t>(ctx().h_var)];
  const int64_t w = point[static_cast<size_t>(ctx().w_var)];
  const int64_t r1 = std::min(grid_rows(), y + h);
  const int64_t c1 = std::min(grid_cols(), x + w);
  DQR_CHECK(r1 > y && c1 > x);
  const double main = grid().MaxOver(y, r1, x, c1);
  const auto [nb_c0, nb_c1] = NeighborhoodCols(x, w);
  if (nb_c0 >= nb_c1) return 0.0;
  const double nbhd = grid().MaxOver(y, r1, nb_c0, nb_c1);
  return std::abs(main - nbhd);
}

void RectContrastFunction::EvaluateBatch(
    const std::vector<const std::vector<int64_t>*>& points, double* out) {
  const size_t n = points.size();
  std::vector<int64_t> mr0(n), mr1(n), mc0(n), mc1(n);
  std::vector<int64_t> nr0, nr1, nc0, nc1;
  std::vector<size_t> nb_owner;  // point index of each neighborhood band
  for (size_t i = 0; i < n; ++i) {
    const std::vector<int64_t>& point = *points[i];
    const int64_t y = point[static_cast<size_t>(ctx().y_var)];
    const int64_t x = point[static_cast<size_t>(ctx().x_var)];
    const int64_t h = point[static_cast<size_t>(ctx().h_var)];
    const int64_t w = point[static_cast<size_t>(ctx().w_var)];
    mr0[i] = y;
    mr1[i] = std::min(grid_rows(), y + h);
    mc0[i] = x;
    mc1[i] = std::min(grid_cols(), x + w);
    DQR_CHECK(mr1[i] > y && mc1[i] > x);
    const auto [nb_c0, nb_c1] = NeighborhoodCols(x, w);
    if (nb_c0 < nb_c1) {
      nr0.push_back(y);
      nr1.push_back(mr1[i]);
      nc0.push_back(nb_c0);
      nc1.push_back(nb_c1);
      nb_owner.push_back(i);
    }
  }
  // The scalar path reads the main rectangle even when the band is empty
  // (and then returns 0), so the batch must charge it for every point.
  std::vector<double> main_max(n);
  grid().MaxOverRectsBatch(mr0.data(), mr1.data(), mc0.data(), mc1.data(),
                           static_cast<int64_t>(n), main_max.data());
  std::fill(out, out + n, 0.0);
  if (nb_owner.empty()) return;
  std::vector<double> nb_max(nb_owner.size());
  grid().MaxOverRectsBatch(nr0.data(), nr1.data(), nc0.data(), nc1.data(),
                           static_cast<int64_t>(nb_owner.size()),
                           nb_max.data());
  for (size_t k = 0; k < nb_owner.size(); ++k) {
    out[nb_owner[k]] = std::abs(main_max[nb_owner[k]] - nb_max[k]);
  }
}

}  // namespace dqr::searchlight

#ifndef DQR_SEARCHLIGHT_GRID_FUNCTIONS_H_
#define DQR_SEARCHLIGHT_GRID_FUNCTIONS_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "array/grid.h"
#include "common/interval.h"
#include "cp/function.h"
#include "searchlight/functions.h"
#include "synopsis/grid_synopsis.h"

namespace dqr::searchlight {

// Shared construction context of a 2-D rectangle aggregate function. The
// search rectangle is rows [y, y+h) x cols [x, x+w) over four decision
// variables.
struct GridFunctionContext {
  std::shared_ptr<const array::Grid> grid;
  std::shared_ptr<const synopsis::GridSynopsis> synopsis;
  int y_var = 0;
  int x_var = 1;
  int h_var = 2;
  int w_var = 3;
  // Static range of the function value; empty => synopsis global range.
  Interval value_range = Interval::Empty();
  // Artificial per-uncached-lookup cost, as in WindowFunctionContext;
  // > 0 (or a shared memo) makes the function memoize its lookups.
  int64_t estimate_cost_ns = 0;
  // Optional cross-query shared bounds memo (L2), as in
  // WindowFunctionContext. Clones inherit the attachment.
  cache::SharedBoundsMemo* shared_memo = nullptr;
  uint64_t shared_memo_key = 0;
};

// Base class for 2-D rectangle aggregates: geometry, synopsis lookups
// (rect-keyed, memoized when charged or shared), and fail-time state
// snapshots — the 2-D counterpart of WindowFunction. The refinement
// framework above is dimension-agnostic; these functions are all it
// takes to run the full relax/constrain machinery on Searchlight's
// multidimensional workloads.
class RectFunction : public cp::ConstraintFunction {
 public:
  explicit RectFunction(GridFunctionContext ctx);

  Interval value_range() const override { return value_range_; }

  // Synopsis level the estimator consults for the candidate's own
  // rectangle — the profiler's per-level accuracy attribution.
  int EstimateLevel(const std::vector<int64_t>& point) const override;

  std::unique_ptr<cp::FunctionState> SaveState(
      const cp::DomainBox& box) const override;
  void RestoreState(const cp::FunctionState& state) override;
  void ClearState() override;

  cp::FunctionMemoStats memo_stats() const override {
    return cache_.stats();
  }

 protected:
  struct RectBox {
    int64_t y_lo, y_hi, x_lo, x_hi;
    int64_t h_lo, h_hi, w_lo, w_hi;
    // Union of all rectangles, clipped to the grid.
    int64_t span_r1, span_c1;
    bool bound;
  };
  RectBox ReadRect(const cp::DomainBox& box) const;

  // Sound bounds on max over every rectangle [y, y+h) x [x, x+w) with
  // the given variable ranges; clipped to the grid, memoized.
  Interval MaxOverRects(int64_t y_lo, int64_t y_hi, int64_t x_lo,
                        int64_t x_hi, int64_t h_lo, int64_t h_hi,
                        int64_t w_lo, int64_t w_hi);

  // Memoized synopsis primitives over rectangles.
  Interval CachedValueBounds(int64_t r0, int64_t r1, int64_t c0,
                             int64_t c1);
  Interval CachedMaxBounds(int64_t r0, int64_t r1, int64_t c0, int64_t c1);

  int64_t grid_rows() const { return ctx_.grid->rows(); }
  int64_t grid_cols() const { return ctx_.grid->cols(); }
  const array::Grid& grid() const { return *ctx_.grid; }
  const synopsis::GridSynopsis& synopsis() const { return *ctx_.synopsis; }
  const GridFunctionContext& ctx() const { return ctx_; }

 private:
  GridFunctionContext ctx_;
  Interval value_range_;
  BoundsCache cache_;
};

// avg over the rectangle.
class RectAvgFunction : public RectFunction {
 public:
  explicit RectAvgFunction(GridFunctionContext ctx)
      : RectFunction(std::move(ctx)) {}

  std::string name() const override { return "rect_avg"; }
  Interval Estimate(const cp::DomainBox& box) override;
  double Evaluate(const std::vector<int64_t>& point) override;
  std::unique_ptr<cp::ConstraintFunction> Clone() const override {
    return std::make_unique<RectAvgFunction>(ctx());
  }
};

// max over the rectangle.
class RectMaxFunction : public RectFunction {
 public:
  explicit RectMaxFunction(GridFunctionContext ctx)
      : RectFunction(std::move(ctx)) {}

  std::string name() const override { return "rect_max"; }
  Interval Estimate(const cp::DomainBox& box) override;
  double Evaluate(const std::vector<int64_t>& point) override;
  // Batched rectangles share one SIMD pass over the base grid.
  void EvaluateBatch(const std::vector<const std::vector<int64_t>*>& points,
                     double* out) override;
  std::unique_ptr<cp::ConstraintFunction> Clone() const override {
    return std::make_unique<RectMaxFunction>(ctx());
  }
};

// |max(rect) - max(neighborhood)| where the neighborhood is the
// `width`-column band immediately left/right of the rectangle, over the
// same rows — the 2-D analogue of the paper's c2/c3.
class RectContrastFunction : public RectFunction {
 public:
  enum class Side { kLeft, kRight };

  RectContrastFunction(GridFunctionContext ctx, Side side, int64_t width);

  std::string name() const override {
    return side_ == Side::kLeft ? "rect_contrast_left"
                                : "rect_contrast_right";
  }
  Interval Estimate(const cp::DomainBox& box) override;
  double Evaluate(const std::vector<int64_t>& point) override;
  // Main rectangles and non-empty neighborhood bands are gathered into
  // one SIMD batch each; empty bands keep their scalar value of 0.
  void EvaluateBatch(const std::vector<const std::vector<int64_t>*>& points,
                     double* out) override;
  std::unique_ptr<cp::ConstraintFunction> Clone() const override {
    return std::make_unique<RectContrastFunction>(ctx(), side_, width_);
  }

 private:
  // Neighborhood columns for a bound (x, w); may collapse at grid edges.
  std::pair<int64_t, int64_t> NeighborhoodCols(int64_t x, int64_t w) const;

  Side side_;
  int64_t width_;
};

}  // namespace dqr::searchlight

#endif  // DQR_SEARCHLIGHT_GRID_FUNCTIONS_H_

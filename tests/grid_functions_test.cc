#include "searchlight/grid_functions.h"

#include <gtest/gtest.h>

#include <cstring>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "data/grid_synthetic.h"

namespace dqr::searchlight {
namespace {

data::GridBundle MakeBundle(int64_t rows, int64_t cols, uint64_t seed) {
  return data::MakeGridDataset(rows, cols, seed).value();
}

GridFunctionContext Ctx(const data::GridBundle& bundle) {
  GridFunctionContext ctx;
  ctx.grid = bundle.grid;
  ctx.synopsis = bundle.synopsis;
  return ctx;
}

// A charged lookup: the function memoizes its rectangle bounds and saves
// them at fails (uncharged functions read the synopsis directly).
GridFunctionContext ChargedCtx(const data::GridBundle& bundle) {
  GridFunctionContext ctx = Ctx(bundle);
  ctx.estimate_cost_ns = 1;
  return ctx;
}

TEST(GridFunctionsTest, EvaluateMatchesNaive) {
  const auto bundle = MakeBundle(60, 80, 11);
  RectAvgFunction avg(Ctx(bundle));
  RectMaxFunction mx(Ctx(bundle));
  RectContrastFunction left(Ctx(bundle),
                            RectContrastFunction::Side::kLeft, 4);
  RectContrastFunction right(Ctx(bundle),
                             RectContrastFunction::Side::kRight, 4);

  Rng rng(5);
  for (int iter = 0; iter < 150; ++iter) {
    const int64_t y = rng.UniformInt(0, 58);
    const int64_t x = rng.UniformInt(0, 78);
    const int64_t h = rng.UniformInt(1, 6);
    const int64_t w = rng.UniformInt(1, 6);
    const std::vector<int64_t> point = {y, x, h, w};
    const int64_t r1 = std::min<int64_t>(60, y + h);
    const int64_t c1 = std::min<int64_t>(80, x + w);

    EXPECT_NEAR(avg.Evaluate(point),
                bundle.grid->AggregateRect(y, r1, x, c1).avg(), 1e-9);
    EXPECT_DOUBLE_EQ(mx.Evaluate(point),
                     bundle.grid->MaxOver(y, r1, x, c1));

    const double main = bundle.grid->MaxOver(y, r1, x, c1);
    const double expected_left =
        x == 0 ? 0.0
               : std::abs(main - bundle.grid->MaxOver(
                                     y, r1, std::max<int64_t>(0, x - 4),
                                     x));
    EXPECT_DOUBLE_EQ(left.Evaluate(point), expected_left);
    const double expected_right =
        c1 >= 80 ? 0.0
                 : std::abs(main - bundle.grid->MaxOver(
                                       y, r1, c1,
                                       std::min<int64_t>(80, c1 + 4)));
    EXPECT_DOUBLE_EQ(right.Evaluate(point), expected_right);
  }
}

// The load-bearing property in 2-D: estimates contain the exact value at
// every assignment of the box, including grid edges.
class GridFunctionSoundnessTest
    : public ::testing::TestWithParam<uint64_t> {};

TEST_P(GridFunctionSoundnessTest, EstimateContainsAllExactValues) {
  const auto bundle = MakeBundle(48, 64, GetParam());
  std::vector<std::unique_ptr<cp::ConstraintFunction>> fns;
  fns.push_back(std::make_unique<RectAvgFunction>(Ctx(bundle)));
  fns.push_back(std::make_unique<RectMaxFunction>(Ctx(bundle)));
  fns.push_back(std::make_unique<RectContrastFunction>(
      Ctx(bundle), RectContrastFunction::Side::kLeft, 3));
  fns.push_back(std::make_unique<RectContrastFunction>(
      Ctx(bundle), RectContrastFunction::Side::kRight, 3));

  Rng rng(GetParam() ^ 0x7777);
  for (int iter = 0; iter < 60; ++iter) {
    const int64_t y_lo = rng.UniformInt(0, 46);
    const int64_t y_hi = rng.UniformInt(y_lo, std::min<int64_t>(47, y_lo + 10));
    const int64_t x_lo = rng.UniformInt(0, 62);
    const int64_t x_hi = rng.UniformInt(x_lo, std::min<int64_t>(63, x_lo + 10));
    const int64_t h_lo = rng.UniformInt(1, 4);
    const int64_t h_hi = h_lo + rng.UniformInt(0, 3);
    const int64_t w_lo = rng.UniformInt(1, 4);
    const int64_t w_hi = w_lo + rng.UniformInt(0, 3);
    const cp::DomainBox box = {
        cp::IntDomain(y_lo, y_hi), cp::IntDomain(x_lo, x_hi),
        cp::IntDomain(h_lo, h_hi), cp::IntDomain(w_lo, w_hi)};

    for (auto& fn : fns) {
      const Interval estimate = fn->Estimate(box);
      ASSERT_FALSE(estimate.empty());
      for (int64_t y = y_lo; y <= y_hi; ++y) {
        for (int64_t x = x_lo; x <= x_hi; ++x) {
          for (int64_t h = h_lo; h <= h_hi; ++h) {
            for (int64_t w = w_lo; w <= w_hi; ++w) {
              const double exact = fn->Evaluate({y, x, h, w});
              ASSERT_TRUE(estimate.Contains(exact))
                  << fn->name() << " at (" << y << "," << x << "," << h
                  << "," << w << ") exact=" << exact
                  << " est=" << estimate.ToString();
            }
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GridFunctionSoundnessTest,
                         ::testing::Values(2u, 4u, 6u, 21u));

TEST(GridFunctionsTest, StateSaveRestoreRoundTrip) {
  const auto bundle = MakeBundle(64, 64, 31);
  RectMaxFunction mx(ChargedCtx(bundle));
  const cp::DomainBox box = {cp::IntDomain(10, 20), cp::IntDomain(5, 25),
                             cp::IntDomain(2, 4), cp::IntDomain(2, 4)};
  const Interval before = mx.Estimate(box);
  auto state = mx.SaveState(box);
  ASSERT_NE(state, nullptr);
  mx.ClearState();
  mx.RestoreState(*state);
  EXPECT_EQ(mx.Estimate(box), before);
}

TEST(GridFunctionsTest, BoundRectTighterThanRoot) {
  const auto bundle = MakeBundle(64, 64, 41);
  RectMaxFunction mx(Ctx(bundle));
  const Interval root =
      mx.Estimate({cp::IntDomain(0, 50), cp::IntDomain(0, 50),
                   cp::IntDomain(2, 6), cp::IntDomain(2, 6)});
  const Interval leaf =
      mx.Estimate({cp::IntDomain(20, 20), cp::IntDomain(20, 20),
                   cp::IntDomain(3, 3), cp::IntDomain(3, 3)});
  EXPECT_LE(root.lo, leaf.lo);
  EXPECT_GE(root.hi, leaf.hi);
}

bool SameBits(const Interval& a, const Interval& b) {
  return std::memcmp(&a.lo, &b.lo, sizeof(double)) == 0 &&
         std::memcmp(&a.hi, &b.hi, sizeof(double)) == 0;
}

bool IsZero(const cp::FunctionMemoStats& s) {
  return s.hits == 0 && s.misses == 0 && s.evictions == 0 &&
         s.restore_evictions == 0 && s.shared_hits == 0 &&
         s.shared_misses == 0 && s.shared_evictions == 0;
}

// 2-D counterpart of FunctionsTest.DirectReadMatchesMemoizedBitForBit:
// uncharged (direct synopsis read) and charged (memoized) estimates are
// bit-identical for every rectangle kind, and the uncharged function
// keeps no state.
TEST(GridFunctionsTest, DirectReadMatchesMemoizedBitForBit) {
  for (uint64_t seed : {5u, 23u}) {
    const auto bundle = MakeBundle(48, 64, seed);
    const auto make = [](const GridFunctionContext& ctx) {
      std::vector<std::unique_ptr<cp::ConstraintFunction>> fns;
      fns.push_back(std::make_unique<RectAvgFunction>(ctx));
      fns.push_back(std::make_unique<RectMaxFunction>(ctx));
      fns.push_back(std::make_unique<RectContrastFunction>(
          ctx, RectContrastFunction::Side::kLeft, 3));
      fns.push_back(std::make_unique<RectContrastFunction>(
          ctx, RectContrastFunction::Side::kRight, 3));
      return fns;
    };
    auto direct = make(Ctx(bundle));
    auto memo = make(ChargedCtx(bundle));

    // A small pool of boxes, drawn with replacement, so lookups repeat.
    Rng rng(seed * 6151);
    std::vector<cp::DomainBox> pool;
    for (int i = 0; i < 30; ++i) {
      const bool bound = rng.Bernoulli(0.3);
      const int64_t y_lo = rng.UniformInt(0, 47);
      const int64_t y_hi =
          bound ? y_lo : rng.UniformInt(y_lo, std::min<int64_t>(47, y_lo + 12));
      const int64_t x_lo = rng.UniformInt(0, 63);
      const int64_t x_hi =
          bound ? x_lo : rng.UniformInt(x_lo, std::min<int64_t>(63, x_lo + 12));
      const int64_t h_lo = rng.UniformInt(1, 6);
      const int64_t h_hi = bound ? h_lo : h_lo + rng.UniformInt(0, 6);
      const int64_t w_lo = rng.UniformInt(1, 6);
      const int64_t w_hi = bound ? w_lo : w_lo + rng.UniformInt(0, 6);
      pool.push_back({cp::IntDomain(y_lo, y_hi), cp::IntDomain(x_lo, x_hi),
                      cp::IntDomain(h_lo, h_hi), cp::IntDomain(w_lo, w_hi)});
    }
    for (int iter = 0; iter < 300; ++iter) {
      const cp::DomainBox& box =
          pool[static_cast<size_t>(rng.UniformInt(0, 29))];
      for (size_t k = 0; k < direct.size(); ++k) {
        const Interval a = direct[k]->Estimate(box);
        const Interval b = memo[k]->Estimate(box);
        ASSERT_TRUE(SameBits(a, b))
            << memo[k]->name() << " seed=" << seed << " iter=" << iter
            << " direct=" << a.ToString() << " memo=" << b.ToString();
        EXPECT_EQ(direct[k]->SaveState(box), nullptr) << direct[k]->name();
        if (iter % 50 == 49) {
          auto state = memo[k]->SaveState(box);
          memo[k]->ClearState();
          if (state != nullptr) memo[k]->RestoreState(*state);
        }
      }
    }
    for (size_t k = 0; k < direct.size(); ++k) {
      EXPECT_TRUE(IsZero(direct[k]->memo_stats())) << direct[k]->name();
      EXPECT_GT(memo[k]->memo_stats().hits, 0) << memo[k]->name();
    }
  }
}

}  // namespace
}  // namespace dqr::searchlight

#include "searchlight/functions.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "common/rng.h"
#include "synopsis/synopsis.h"

namespace dqr::searchlight {
namespace {

struct Fixture {
  std::shared_ptr<array::Array> array;
  std::shared_ptr<synopsis::Synopsis> synopsis;
  std::vector<double> data;

  WindowFunctionContext Ctx() const {
    WindowFunctionContext ctx;
    ctx.array = array;
    ctx.synopsis = synopsis;
    ctx.x_var = 0;
    ctx.len_var = 1;
    return ctx;
  }

  // A charged lookup: the function memoizes its window bounds and saves
  // them at fails (uncharged functions read the synopsis directly).
  WindowFunctionContext ChargedCtx() const {
    WindowFunctionContext ctx = Ctx();
    ctx.estimate_cost_ns = 1;
    return ctx;
  }
};

Fixture MakeFixture(int64_t n, uint64_t seed) {
  Fixture f;
  Rng rng(seed);
  f.data.resize(static_cast<size_t>(n));
  for (size_t i = 0; i < f.data.size(); ++i) {
    f.data[i] = rng.Uniform(50, 250);
    // Occasional plateaus exercise the max-witness logic.
    if (rng.Bernoulli(0.05)) f.data[i] = 240.0;
  }
  array::ArraySchema schema;
  schema.name = "fn_test";
  schema.length = n;
  schema.chunk_size = 32;
  f.array = array::Array::FromData(schema, f.data).value();
  f.synopsis =
      synopsis::Synopsis::Build(*f.array,
                                synopsis::SynopsisOptions{{64, 8}, 16})
          .value();
  return f;
}

double NaiveMax(const std::vector<double>& data, int64_t lo, int64_t hi) {
  double mx = data[static_cast<size_t>(lo)];
  for (int64_t i = lo; i < hi; ++i) {
    mx = std::max(mx, data[static_cast<size_t>(i)]);
  }
  return mx;
}

double NaiveAvg(const std::vector<double>& data, int64_t lo, int64_t hi) {
  double sum = 0.0;
  for (int64_t i = lo; i < hi; ++i) sum += data[static_cast<size_t>(i)];
  return sum / static_cast<double>(hi - lo);
}

TEST(FunctionsTest, EvaluateMatchesNaive) {
  Fixture f = MakeFixture(300, 21);
  AvgFunction avg(f.Ctx());
  MaxFunction mx(f.Ctx());
  MinFunction mn(f.Ctx());
  NeighborhoodContrastFunction left(
      f.Ctx(), NeighborhoodContrastFunction::Side::kLeft, 8);
  NeighborhoodContrastFunction right(
      f.Ctx(), NeighborhoodContrastFunction::Side::kRight, 8);

  Rng rng(5);
  for (int iter = 0; iter < 200; ++iter) {
    const int64_t x = rng.UniformInt(0, 299);
    const int64_t l = rng.UniformInt(1, 20);
    const int64_t hi = std::min<int64_t>(300, x + l);
    const std::vector<int64_t> point = {x, l};

    EXPECT_NEAR(avg.Evaluate(point), NaiveAvg(f.data, x, hi), 1e-9);
    EXPECT_DOUBLE_EQ(mx.Evaluate(point), NaiveMax(f.data, x, hi));

    const double expected_left =
        x == 0 ? 0.0
               : std::abs(NaiveMax(f.data, x, hi) -
                          NaiveMax(f.data, std::max<int64_t>(0, x - 8), x));
    EXPECT_DOUBLE_EQ(left.Evaluate(point), expected_left);

    const double expected_right =
        hi >= 300
            ? 0.0
            : std::abs(NaiveMax(f.data, x, hi) -
                       NaiveMax(f.data, hi, std::min<int64_t>(300, hi + 8)));
    EXPECT_DOUBLE_EQ(right.Evaluate(point), expected_right);

    (void)mn;
  }
}

// The load-bearing property: for every box, the estimate contains the
// exact value at every assignment in the box (including array edges).
class FunctionSoundnessTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FunctionSoundnessTest, EstimateContainsAllExactValues) {
  Fixture f = MakeFixture(200, GetParam());
  std::vector<std::unique_ptr<cp::ConstraintFunction>> fns;
  fns.push_back(std::make_unique<AvgFunction>(f.Ctx()));
  fns.push_back(std::make_unique<MaxFunction>(f.Ctx()));
  fns.push_back(std::make_unique<MinFunction>(f.Ctx()));
  fns.push_back(std::make_unique<NeighborhoodContrastFunction>(
      f.Ctx(), NeighborhoodContrastFunction::Side::kLeft, 6));
  fns.push_back(std::make_unique<NeighborhoodContrastFunction>(
      f.Ctx(), NeighborhoodContrastFunction::Side::kRight, 6));

  Rng rng(GetParam() ^ 0x9999);
  for (int iter = 0; iter < 120; ++iter) {
    const int64_t x_lo = rng.UniformInt(0, 198);
    const int64_t x_hi = rng.UniformInt(x_lo, std::min<int64_t>(199, x_lo + 40));
    const int64_t l_lo = rng.UniformInt(1, 10);
    const int64_t l_hi = rng.UniformInt(l_lo, l_lo + 8);
    const cp::DomainBox box = {cp::IntDomain(x_lo, x_hi),
                               cp::IntDomain(l_lo, l_hi)};

    for (auto& fn : fns) {
      const Interval estimate = fn->Estimate(box);
      ASSERT_FALSE(estimate.empty());
      for (int64_t x = x_lo; x <= x_hi; ++x) {
        for (int64_t l = l_lo; l <= l_hi; ++l) {
          const double exact = fn->Evaluate({x, l});
          EXPECT_TRUE(estimate.Contains(exact))
              << fn->name() << " box=(" << x_lo << ".." << x_hi << ", "
              << l_lo << ".." << l_hi << ") point=(" << x << "," << l
              << ") exact=" << exact << " est=" << estimate.ToString();
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FunctionSoundnessTest,
                         ::testing::Values(1u, 2u, 3u, 5u, 8u, 13u));

TEST(FunctionsTest, BoundWindowEstimatesAreTighterThanRootEstimates) {
  Fixture f = MakeFixture(256, 31);
  MaxFunction mx(f.Ctx());
  const Interval root =
      mx.Estimate({cp::IntDomain(0, 200), cp::IntDomain(4, 16)});
  const Interval leaf =
      mx.Estimate({cp::IntDomain(100, 100), cp::IntDomain(8, 8)});
  EXPECT_LE(root.lo, leaf.lo);
  EXPECT_GE(root.hi, leaf.hi);
  EXPECT_LT(leaf.width(), root.width());
}

TEST(FunctionsTest, StateSaveRestoreRoundTrip) {
  Fixture f = MakeFixture(256, 41);
  MaxFunction mx(f.ChargedCtx());
  const cp::DomainBox box = {cp::IntDomain(50, 80), cp::IntDomain(4, 8)};
  const Interval before = mx.Estimate(box);

  auto state = mx.SaveState(box);
  ASSERT_NE(state, nullptr);
  EXPECT_GT(state->SizeBytes(), 0);

  mx.ClearState();
  mx.RestoreState(*state);
  const Interval after = mx.Estimate(box);
  EXPECT_EQ(before, after);

  // Cloned states are independent.
  auto clone = state->Clone();
  EXPECT_EQ(clone->SizeBytes(), state->SizeBytes());
}

TEST(FunctionsTest, SaveStateStaysSmallUnderHeavyUse) {
  // Fail-time snapshots capture only the recently touched window bounds,
  // so their size stays bounded no matter how much the search estimated —
  // the paper reports ~80 bytes per saved aggregate state.
  Fixture f = MakeFixture(512, 43);
  MaxFunction mx(f.ChargedCtx());
  Rng rng(3);
  for (int i = 0; i < 500; ++i) {
    const int64_t lo = rng.UniformInt(0, 480);
    (void)mx.Estimate({cp::IntDomain(lo, lo + 16), cp::IntDomain(4, 8)});
  }
  auto state = mx.SaveState({cp::IntDomain(0, 500), cp::IntDomain(4, 16)});
  ASSERT_NE(state, nullptr);
  EXPECT_LE(state->SizeBytes(), 6 * 64);
}

TEST(FunctionsTest, CloneIsIndependent) {
  Fixture f = MakeFixture(128, 51);
  AvgFunction avg(f.Ctx());
  auto clone = avg.Clone();
  const cp::DomainBox box = {cp::IntDomain(5, 20), cp::IntDomain(2, 6)};
  EXPECT_EQ(avg.Estimate(box), clone->Estimate(box));
  EXPECT_EQ(avg.value_range(), clone->value_range());
}

TEST(FunctionsTest, ContrastDefaultValueRangeSpansGlobalWidth) {
  Fixture f = MakeFixture(128, 61);
  NeighborhoodContrastFunction fn(
      f.Ctx(), NeighborhoodContrastFunction::Side::kLeft, 4);
  EXPECT_DOUBLE_EQ(fn.value_range().lo, 0.0);
  EXPECT_DOUBLE_EQ(fn.value_range().hi,
                   f.synopsis->global_value_range().width());
}

// ---------------------------------------------------------------------
// BoundsCache eviction policy.

TEST(BoundsCacheTest, EvictsIncrementallyNeverWholesale) {
  BoundsCache cache(/*capacity=*/16);
  for (int64_t i = 0; i < 200; ++i) {
    cache.Insert(0, i, i + 1, Interval(0.0, static_cast<double>(i)));
    // The old policy cleared the whole map when full, dropping the size
    // to 1 right after crossing capacity; second-chance FIFO keeps the
    // cache pinned at capacity instead.
    EXPECT_LE(cache.size(), 16u);
    if (i >= 16) EXPECT_EQ(cache.size(), 16u);
  }
  const cp::FunctionMemoStats stats = cache.stats();
  EXPECT_EQ(stats.evictions, 200 - 16);
  EXPECT_EQ(stats.restore_evictions, 0);
}

TEST(BoundsCacheTest, RecentlyTouchedEntriesSurviveEviction) {
  BoundsCache cache(/*capacity=*/16);
  // Fill, then keep one entry hot by touching it while a stream of cold
  // inserts forces evictions: the hot entry must survive (it is what
  // SaveRecent would snapshot).
  for (int64_t i = 0; i < 16; ++i) {
    cache.Insert(0, i, i + 1, Interval(0.0, 1.0));
  }
  for (int64_t i = 16; i < 200; ++i) {
    ASSERT_NE(cache.Find(0, 0, 1), nullptr) << "hot entry evicted at " << i;
    cache.Insert(0, i, i + 1, Interval(0.0, 1.0));
  }
  EXPECT_NE(cache.Find(0, 0, 1), nullptr);
}

TEST(BoundsCacheTest, SaveRecentSurvivesInsertStorm) {
  Fixture f = MakeFixture(512, 43);
  MaxFunction mx(f.ChargedCtx());
  const cp::DomainBox box = {cp::IntDomain(50, 80), cp::IntDomain(4, 8)};
  const Interval before = mx.Estimate(box);
  auto state = mx.SaveState(box);
  ASSERT_NE(state, nullptr);

  // Hammer the function with other windows, then restore: the snapshot
  // must land regardless of how full the cache got in between.
  Rng rng(9);
  for (int i = 0; i < 2000; ++i) {
    const int64_t lo = rng.UniformInt(0, 480);
    (void)mx.Estimate({cp::IntDomain(lo, lo + 16), cp::IntDomain(4, 8)});
  }
  mx.ClearState();
  mx.RestoreState(*state);
  EXPECT_EQ(mx.Estimate(box), before);
}

TEST(BoundsCacheTest, RestoreAlwaysLandsAndCountsEvictions) {
  BoundsCache donor(/*capacity=*/16);
  donor.Insert(0, 1000, 1001, Interval(1.0, 2.0));
  donor.Insert(0, 2000, 2001, Interval(3.0, 4.0));
  auto snapshot = donor.SaveRecent();
  ASSERT_NE(snapshot, nullptr);

  BoundsCache cache(/*capacity=*/16);
  for (int64_t i = 0; i < 16; ++i) {
    cache.Insert(0, i, i + 1, Interval(0.0, 1.0));
  }
  ASSERT_EQ(cache.size(), 16u);
  cache.Restore(*snapshot);
  // Both snapshot entries landed (the old policy silently dropped them
  // when the cache was full), displacing cold entries one-for-one.
  EXPECT_NE(cache.Find(0, 1000, 1001), nullptr);
  EXPECT_NE(cache.Find(0, 2000, 2001), nullptr);
  EXPECT_EQ(cache.size(), 16u);
  EXPECT_EQ(cache.stats().restore_evictions, 2);
  EXPECT_EQ(cache.stats().evictions, 0);
}

TEST(BoundsCacheTest, StatsCountHitsAndMisses) {
  BoundsCache cache;
  EXPECT_EQ(cache.Find(0, 0, 8), nullptr);
  cache.Insert(0, 0, 8, Interval(0.0, 1.0));
  EXPECT_NE(cache.Find(0, 0, 8), nullptr);
  EXPECT_NE(cache.Find(0, 0, 8), nullptr);
  const cp::FunctionMemoStats stats = cache.stats();
  EXPECT_EQ(stats.hits, 2);
  EXPECT_EQ(stats.misses, 1);
}

TEST(FunctionsTest, MemoStatsExposeCacheCounters) {
  Fixture f = MakeFixture(256, 77);
  MaxFunction mx(f.ChargedCtx());
  const cp::DomainBox box = {cp::IntDomain(10, 40), cp::IntDomain(4, 8)};
  (void)mx.Estimate(box);
  (void)mx.Estimate(box);  // same box: pure cache hits
  const cp::FunctionMemoStats stats = mx.memo_stats();
  EXPECT_GT(stats.misses, 0);
  EXPECT_GT(stats.hits, 0);
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

// An uncharged function reads the synopsis directly; a charged one
// memoizes. Both must produce bit-identical estimates for every kind, on
// repeated boxes (memo hits), fresh boxes (misses) and after fail-state
// save/clear/restore cycles; the uncharged one keeps no state at all.
TEST(FunctionsTest, DirectReadMatchesMemoizedBitForBit) {
  for (uint64_t seed : {3u, 17u, 29u}) {
    Fixture f = MakeFixture(400, seed);
    const auto make = [](const WindowFunctionContext& ctx) {
      std::vector<std::unique_ptr<cp::ConstraintFunction>> fns;
      fns.push_back(std::make_unique<AvgFunction>(ctx));
      fns.push_back(std::make_unique<MaxFunction>(ctx));
      fns.push_back(std::make_unique<MinFunction>(ctx));
      fns.push_back(std::make_unique<NeighborhoodContrastFunction>(
          ctx, NeighborhoodContrastFunction::Side::kLeft, 7));
      fns.push_back(std::make_unique<NeighborhoodContrastFunction>(
          ctx, NeighborhoodContrastFunction::Side::kRight, 7));
      return fns;
    };
    auto direct = make(f.Ctx());
    auto memo = make(f.ChargedCtx());

    // A small pool of boxes, drawn with replacement, so lookups repeat.
    Rng rng(seed * 7919);
    std::vector<cp::DomainBox> pool;
    for (int i = 0; i < 40; ++i) {
      const int64_t x_lo = rng.UniformInt(0, 399);
      const int64_t x_hi =
          rng.Bernoulli(0.3)
              ? x_lo
              : rng.UniformInt(x_lo, std::min<int64_t>(399, x_lo + 60));
      const int64_t l_lo = rng.UniformInt(1, 24);
      const int64_t l_hi = rng.Bernoulli(0.3) ? l_lo : l_lo + 16;
      pool.push_back({cp::IntDomain(x_lo, x_hi), cp::IntDomain(l_lo, l_hi)});
    }
    for (int iter = 0; iter < 400; ++iter) {
      const cp::DomainBox& box =
          pool[static_cast<size_t>(rng.UniformInt(0, 39))];
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

#ifndef DQR_SEARCHLIGHT_FUNCTIONS_H_
#define DQR_SEARCHLIGHT_FUNCTIONS_H_

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "array/array.h"
#include "common/interval.h"
#include "cp/function.h"
#include "obs/histogram.h"
#include "synopsis/synopsis.h"

namespace dqr::cache {
class SharedBoundsMemo;
}  // namespace dqr::cache

namespace dqr::searchlight {

// Charges `ns` of modeled cost for one uncached lookup: spins, or sleeps
// when `latency` (see WindowFunctionContext::cost_is_latency).
void ChargeEstimateCost(int64_t ns, bool latency);

// Memoized window-bound lookups shared by the aggregate functions below.
// Keys are (lo, hi) windows; values are synopsis intervals together with
// the "support" information that makes re-derivation unnecessary. This is
// the state captured by the UDF-state-saving optimization (§4.2): fails
// snapshot the cache, replays restore it and skip recomputation.
//
// A synopsis bound is an O(1) read, cheaper than the probe, insert and
// eviction that would memoize it, so a function memoizes only when its
// lookups are *charged* (modeled estimation cost > 0) or *shared* (an
// attached SharedBoundsMemo); otherwise its cache is a pass-through that
// stays empty, saves nothing at fails and counts nothing.
//
// Eviction is second-chance FIFO: when the cache is full, the oldest
// entry is evicted — unless it sits in the recency ring, in which case it
// is given a second chance (rotated to the back) so the working set that
// SaveRecent snapshots survives. The cache never drops everything at
// once, and Restore always lands every snapshot entry, evicting cold
// entries to make room if necessary.
class BoundsCache {
 public:
  // Saved snapshot of a cache (a cp::FunctionState).
  class Snapshot;

  explicit BoundsCache(size_t capacity = 4096) : capacity_(capacity) {}

  // The cache of a window or rectangle function whose lookups cost
  // `cost_ns` (see ChargeEstimateCost): memoizing, behind `shared` when
  // non-null, if charged or shared; else a pass-through.
  static BoundsCache ForFunction(int64_t cost_ns, bool latency,
                                 cache::SharedBoundsMemo* shared,
                                 uint64_t shared_space);

  // Attaches the process-wide cross-query memo as an L2 behind this
  // cache: local misses probe it under `space` before recomputing, and
  // fresh local inserts publish to it. Restore never publishes (snapshot
  // entries were published when first derived). The L2 is thread-safe;
  // this cache remains single-owner.
  void AttachShared(cache::SharedBoundsMemo* shared, uint64_t space) {
    shared_ = shared;
    shared_space_ = space;
  }

  // Returns the cached interval for (kind, lo, hi) or nullptr. Touched
  // keys (hits and inserts) are remembered in a small recency ring. An
  // attached-L2 hit counts as a hit (no recomputation, no miss cost) and
  // is adopted locally without republishing.
  const Interval* Find(int kind, int64_t lo, int64_t hi);
  void Insert(int kind, int64_t lo, int64_t hi, const Interval& value);

  // The memoized bounds for (kind, lo, hi), else `read()` — charged the
  // lookup cost and timed by the sampled bound-latency sink — memoized.
  template <typename Read>
  Interval GetOrCompute(int kind, int64_t lo, int64_t hi, Read&& read) {
    if (memoize_) {
      if (const Interval* hit = Find(kind, lo, hi)) return *hit;
    }
    Interval result;
    {
      const obs::ScopedSinkTimer bound_timer;
      ChargeEstimateCost(cost_ns_, cost_is_latency_);
      result = read();
    }
    if (memoize_) Insert(kind, lo, hi, result);
    return result;
  }

  // Snapshot of the recently touched entries — the window bounds (with
  // their support information) that the most recent Estimate calls used.
  // O(recency ring) in time and size: this is what a fail record saves.
  std::unique_ptr<cp::FunctionState> SaveRecent() const;
  // Inserts every snapshot entry, evicting cold (non-recent) entries when
  // the cache is full — restored UDF state always lands.
  void Restore(const cp::FunctionState& state);

  size_t size() const { return map_.size(); }
  void Clear();

  // Cumulative counters since construction (Clear does not reset them):
  // `evictions` counts Insert-path evictions, `restore_evictions` the
  // cold entries displaced to make room during Restore.
  cp::FunctionMemoStats stats() const { return stats_; }

 private:
  struct Key {
    int kind;
    int64_t lo;
    int64_t hi;
    bool operator==(const Key&) const = default;
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      uint64_t h = static_cast<uint64_t>(k.kind) * 0x9e3779b97f4a7c15ULL;
      h ^= static_cast<uint64_t>(k.lo) + 0x9e3779b97f4a7c15ULL + (h << 6);
      h ^= static_cast<uint64_t>(k.hi) + 0x9e3779b97f4a7c15ULL + (h << 6);
      return static_cast<size_t>(h);
    }
  };

  void Touch(const Key& key);
  bool IsRecent(const Key& key) const;
  // Evicts exactly one entry (second-chance FIFO). Precondition: the map
  // is non-empty.
  void EvictOne();

  size_t capacity_;
  bool memoize_ = true;
  int64_t cost_ns_ = 0;
  bool cost_is_latency_ = false;
  cache::SharedBoundsMemo* shared_ = nullptr;
  uint64_t shared_space_ = 0;
  std::unordered_map<Key, Interval, KeyHash> map_;
  // Insertion-order queue over the map's keys (each key appears exactly
  // once); front = eviction candidate, second-chance rotations move
  // recently used keys to the back.
  std::deque<Key> fifo_;
  // Ring of recently touched keys; bounds the cost and size of per-fail
  // state snapshots and marks the entries eviction must protect.
  static constexpr size_t kRecentCapacity = 6;
  std::vector<Key> recent_;
  size_t recent_next_ = 0;
  cp::FunctionMemoStats stats_;
};

// Shared construction context of a window aggregate function.
struct WindowFunctionContext {
  std::shared_ptr<const array::Array> array;
  std::shared_ptr<const synopsis::Synopsis> synopsis;
  // Indices of the decision variables: window start x and length lx.
  int x_var = 0;
  int len_var = 1;
  // Static range of the function value (normalization + hard relaxation
  // limit). Empty => derive from the synopsis global value range.
  Interval value_range = Interval::Empty();
  // Artificial per-synopsis-lookup cost in ns on cache misses; models
  // expensive UDF estimation so that the optimizations of §4.2 reproduce
  // their measured effects at laptop scale. 0 by default. Only charged
  // (> 0) or shared lookups are memoized and saved at fails (BoundsCache).
  int64_t estimate_cost_ns = 0;
  // How the miss cost is charged. false (default) spins, modeling
  // CPU-bound estimation. true sleeps, modeling latency-bound misses
  // (cold chunk fetches from disk/network-backed arrays, the dominant
  // cost in the paper's SciDB deployment) — sleeping threads overlap, so
  // scheduling quality shows up in wall clock even on few cores.
  bool cost_is_latency = false;
  // Optional cross-query shared bounds memo (L2 behind the per-function
  // BoundsCache); see cache/bounds_memo.h. The key must identify the
  // (dataset, synopsis configuration, epoch) these bounds are valid for.
  // Null disables sharing. Clones inherit the attachment.
  cache::SharedBoundsMemo* shared_memo = nullptr;
  uint64_t shared_memo_key = 0;
};

// Base class implementing the window geometry shared by the concrete
// aggregates: the window is [x, x + lx) for decision variables x, lx.
class WindowFunction : public cp::ConstraintFunction {
 public:
  explicit WindowFunction(WindowFunctionContext ctx);

  Interval value_range() const override { return value_range_; }

  // Synopsis level the estimator consults for the candidate's own window
  // — the profiler's per-level accuracy attribution.
  int EstimateLevel(const std::vector<int64_t>& point) const override;

  std::unique_ptr<cp::FunctionState> SaveState(
      const cp::DomainBox& box) const override;
  void RestoreState(const cp::FunctionState& state) override;
  void ClearState() override;

  // Number of exact (Validator-side) evaluations performed.
  int64_t evaluate_calls() const { return evaluate_calls_; }

  cp::FunctionMemoStats memo_stats() const override {
    return cache_.stats();
  }

 protected:
  // Window start/length domains from the box, with the window end clamped
  // to the array length.
  struct WindowBox {
    int64_t x_lo, x_hi;    // start domain
    int64_t l_lo, l_hi;    // length domain
    int64_t span_lo, span_hi;  // union of all windows, clamped
    bool bound;            // both variables bound
  };
  WindowBox ReadWindow(const cp::DomainBox& box) const;

  // Sound bounds on max over every window [s, s+l), s in [s_lo, s_hi],
  // l in [l_lo, l_hi]; memoized, clamped to the array.
  Interval MaxOverWindows(int64_t s_lo, int64_t s_hi, int64_t l_lo,
                          int64_t l_hi);

  // Memoized synopsis primitives (kind-tagged cache entries).
  Interval CachedValueBounds(int64_t lo, int64_t hi);
  Interval CachedMaxBounds(int64_t lo, int64_t hi);
  Interval CachedMinBounds(int64_t lo, int64_t hi);

  int64_t array_length() const { return ctx_.array->length(); }
  const array::Array& array() const { return *ctx_.array; }
  const synopsis::Synopsis& synopsis() const { return *ctx_.synopsis; }
  const WindowFunctionContext& ctx() const { return ctx_; }

  void CountEvaluate() { ++evaluate_calls_; }

 private:
  WindowFunctionContext ctx_;
  Interval value_range_;
  BoundsCache cache_;
  int64_t evaluate_calls_ = 0;
};

// avg(x, x + lx) — the paper's c1-style amplitude constraint.
class AvgFunction : public WindowFunction {
 public:
  explicit AvgFunction(WindowFunctionContext ctx)
      : WindowFunction(std::move(ctx)) {}

  std::string name() const override { return "avg"; }
  Interval Estimate(const cp::DomainBox& box) override;
  double Evaluate(const std::vector<int64_t>& point) override;
  std::unique_ptr<cp::ConstraintFunction> Clone() const override {
    return std::make_unique<AvgFunction>(ctx());
  }
};

// max(x, x + lx).
class MaxFunction : public WindowFunction {
 public:
  explicit MaxFunction(WindowFunctionContext ctx)
      : WindowFunction(std::move(ctx)) {}

  std::string name() const override { return "max"; }
  Interval Estimate(const cp::DomainBox& box) override;
  double Evaluate(const std::vector<int64_t>& point) override;
  // Batched windows share one SIMD pass over the base array.
  void EvaluateBatch(const std::vector<const std::vector<int64_t>*>& points,
                     double* out) override;
  std::unique_ptr<cp::ConstraintFunction> Clone() const override {
    return std::make_unique<MaxFunction>(ctx());
  }
};

// min(x, x + lx).
class MinFunction : public WindowFunction {
 public:
  explicit MinFunction(WindowFunctionContext ctx)
      : WindowFunction(std::move(ctx)) {}

  std::string name() const override { return "min"; }
  Interval Estimate(const cp::DomainBox& box) override;
  double Evaluate(const std::vector<int64_t>& point) override;
  // Batched windows share one SIMD pass over the base array.
  void EvaluateBatch(const std::vector<const std::vector<int64_t>*>& points,
                     double* out) override;
  std::unique_ptr<cp::ConstraintFunction> Clone() const override {
    return std::make_unique<MinFunction>(ctx());
  }
};

// |max(x, x + lx) - max(neighborhood)| — the paper's c2/c3 neighborhood
// contrast. The neighborhood is the `width`-cell window immediately left
// of the interval (kLeft) or right of it (kRight), clamped to the array.
class NeighborhoodContrastFunction : public WindowFunction {
 public:
  enum class Side { kLeft, kRight };

  NeighborhoodContrastFunction(WindowFunctionContext ctx, Side side,
                               int64_t width);

  std::string name() const override {
    return side_ == Side::kLeft ? "contrast_left" : "contrast_right";
  }
  Interval Estimate(const cp::DomainBox& box) override;
  double Evaluate(const std::vector<int64_t>& point) override;
  // Main windows and non-empty neighborhoods are gathered into one SIMD
  // batch each; empty neighborhoods keep their scalar value of 0.
  void EvaluateBatch(const std::vector<const std::vector<int64_t>*>& points,
                     double* out) override;
  std::unique_ptr<cp::ConstraintFunction> Clone() const override {
    return std::make_unique<NeighborhoodContrastFunction>(ctx(), side_,
                                                          width_);
  }

 private:
  // Neighborhood window for a bound (x, l); empty (lo == hi) possible at
  // array edges, where the contrast degenerates to max(main) - max(main).
  std::pair<int64_t, int64_t> NeighborhoodFor(int64_t x, int64_t l) const;

  Side side_;
  int64_t width_;
};

}  // namespace dqr::searchlight

#endif  // DQR_SEARCHLIGHT_FUNCTIONS_H_

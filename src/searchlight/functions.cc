#include "searchlight/functions.h"

#include "obs/histogram.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

#include "cache/bounds_memo.h"
#include "common/check.h"

namespace dqr::searchlight {
namespace {

// Cache entry kinds; part of the memo key.
constexpr int kKindValue = 0;
constexpr int kKindMax = 1;
constexpr int kKindMin = 2;

// Picks the default value range for a contrast function: differences of
// values within the global range span [0, range width].
WindowFunctionContext WithContrastDefaultRange(WindowFunctionContext ctx) {
  if (ctx.value_range.empty() && ctx.synopsis != nullptr) {
    ctx.value_range =
        Interval(0.0, ctx.synopsis->global_value_range().width());
  }
  return ctx;
}

}  // namespace

void ChargeEstimateCost(int64_t ns, bool latency) {
  if (ns <= 0) return;
  if (latency) {
    std::this_thread::sleep_for(std::chrono::nanoseconds(ns));
    return;
  }
  const auto start = std::chrono::steady_clock::now();
  while (std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - start)
             .count() < ns) {
  }
}

// ---------------------------------------------------------------------
// BoundsCache

BoundsCache BoundsCache::ForFunction(int64_t cost_ns, bool latency,
                                     cache::SharedBoundsMemo* shared,
                                     uint64_t shared_space) {
  BoundsCache cache;
  cache.memoize_ = cost_ns > 0 || shared != nullptr;
  cache.cost_ns_ = cost_ns;
  cache.cost_is_latency_ = latency;
  if (shared != nullptr) cache.AttachShared(shared, shared_space);
  return cache;
}

class BoundsCache::Snapshot : public cp::FunctionState {
 public:
  explicit Snapshot(std::unordered_map<Key, Interval, KeyHash> map)
      : map_(std::move(map)) {}

  std::unique_ptr<cp::FunctionState> Clone() const override {
    return std::make_unique<Snapshot>(map_);
  }

  int64_t SizeBytes() const override {
    // Key (kind + window coordinates) + interval + the support coordinates
    // a real aggregate keeps; comparable to the ~80 bytes/save the paper
    // reports for 2-D aggregate states.
    return static_cast<int64_t>(map_.size()) *
           static_cast<int64_t>(sizeof(Key) + sizeof(Interval) +
                                2 * sizeof(int64_t));
  }

  const std::unordered_map<Key, Interval, KeyHash>& map() const {
    return map_;
  }

 private:
  std::unordered_map<Key, Interval, KeyHash> map_;
};

void BoundsCache::Touch(const Key& key) {
  if (recent_.size() < kRecentCapacity) {
    recent_.push_back(key);
    return;
  }
  recent_[recent_next_] = key;
  recent_next_ = (recent_next_ + 1) % kRecentCapacity;
}

bool BoundsCache::IsRecent(const Key& key) const {
  for (const Key& r : recent_) {
    if (r == key) return true;
  }
  return false;
}

void BoundsCache::EvictOne() {
  // Second-chance FIFO: rotate recency-protected keys to the back, evict
  // the first unprotected one. If one full pass finds only protected keys
  // (tiny capacities), fall through and evict the oldest anyway — the
  // cache must shrink, just never wholesale.
  for (size_t guard = fifo_.size(); guard > 0; --guard) {
    const Key key = fifo_.front();
    fifo_.pop_front();
    if (IsRecent(key)) {
      fifo_.push_back(key);
      continue;
    }
    map_.erase(key);
    return;
  }
  if (!fifo_.empty()) {
    map_.erase(fifo_.front());
    fifo_.pop_front();
  }
}

const Interval* BoundsCache::Find(int kind, int64_t lo, int64_t hi) {
  const Key key{kind, lo, hi};
  const auto it = map_.find(key);
  if (it != map_.end()) {
    ++stats_.hits;
    Touch(it->first);
    return &it->second;
  }
  if (shared_ != nullptr) {
    Interval value;
    if (shared_->Lookup(shared_space_, kind, lo, hi, &value)) {
      // Adopt the L2 entry locally without republishing it. Serving the
      // lookup from the memo means the caller skips recomputation and the
      // artificial miss cost — the cross-query perf lever.
      ++stats_.shared_hits;
      const auto [ins, inserted] = map_.emplace(key, value);
      if (inserted) fifo_.push_back(key);
      Touch(key);
      while (map_.size() > capacity_) {
        EvictOne();
        ++stats_.evictions;
      }
      return &ins->second;
    }
    ++stats_.shared_misses;
  }
  ++stats_.misses;
  return nullptr;
}

void BoundsCache::Insert(int kind, int64_t lo, int64_t hi,
                         const Interval& value) {
  const Key key{kind, lo, hi};
  const auto [it, inserted] = map_.emplace(key, value);
  (void)it;
  if (inserted) fifo_.push_back(key);
  Touch(key);
  if (shared_ != nullptr &&
      shared_->Insert(shared_space_, kind, lo, hi, value)) {
    ++stats_.shared_evictions;
  }
  while (map_.size() > capacity_) {
    EvictOne();
    ++stats_.evictions;
  }
}

std::unique_ptr<cp::FunctionState> BoundsCache::SaveRecent() const {
  std::unordered_map<Key, Interval, KeyHash> subset;
  for (const Key& key : recent_) {
    const auto it = map_.find(key);
    if (it != map_.end()) subset.emplace(it->first, it->second);
  }
  if (subset.empty()) return nullptr;
  return std::make_unique<Snapshot>(std::move(subset));
}

void BoundsCache::Restore(const cp::FunctionState& state) {
  const auto* snapshot = dynamic_cast<const Snapshot*>(&state);
  DQR_CHECK_MSG(snapshot != nullptr, "foreign function state");
  for (const auto& [key, value] : snapshot->map()) {
    const auto [it, inserted] = map_.emplace(key, value);
    (void)it;
    if (!inserted) continue;
    fifo_.push_back(key);
    // Restored entries sit at the back of the FIFO, so the evictions
    // making room for them hit the coldest entries first; a restore is
    // never silently truncated.
    while (map_.size() > capacity_) {
      EvictOne();
      ++stats_.restore_evictions;
    }
  }
}

void BoundsCache::Clear() {
  map_.clear();
  fifo_.clear();
  recent_.clear();
  recent_next_ = 0;
}

// ---------------------------------------------------------------------
// WindowFunction

WindowFunction::WindowFunction(WindowFunctionContext ctx)
    : ctx_(std::move(ctx)),
      cache_(BoundsCache::ForFunction(ctx_.estimate_cost_ns,
                                      ctx_.cost_is_latency,
                                      ctx_.shared_memo,
                                      ctx_.shared_memo_key)) {
  DQR_CHECK(ctx_.array != nullptr && ctx_.synopsis != nullptr);
  DQR_CHECK(ctx_.x_var != ctx_.len_var);
  value_range_ = ctx_.value_range.empty()
                     ? ctx_.synopsis->global_value_range()
                     : ctx_.value_range;
}

std::unique_ptr<cp::FunctionState> WindowFunction::SaveState(
    const cp::DomainBox& box) const {
  // The recently touched entries are exactly the window bounds the failed
  // node's estimate derived (the search checks constraints on `box` right
  // before a fail is recorded), so no box-based filtering is needed.
  (void)box;
  return cache_.SaveRecent();
}

void WindowFunction::RestoreState(const cp::FunctionState& state) {
  cache_.Restore(state);
}

void WindowFunction::ClearState() { cache_.Clear(); }

WindowFunction::WindowBox WindowFunction::ReadWindow(
    const cp::DomainBox& box) const {
  DQR_CHECK(ctx_.x_var >= 0 &&
            static_cast<size_t>(ctx_.x_var) < box.size());
  DQR_CHECK(ctx_.len_var >= 0 &&
            static_cast<size_t>(ctx_.len_var) < box.size());
  const cp::IntDomain& x = box[static_cast<size_t>(ctx_.x_var)];
  const cp::IntDomain& l = box[static_cast<size_t>(ctx_.len_var)];
  DQR_CHECK(x.lo >= 0 && x.hi < array_length());
  DQR_CHECK(l.lo >= 1);

  WindowBox w;
  w.x_lo = x.lo;
  w.x_hi = x.hi;
  w.l_lo = l.lo;
  w.l_hi = l.hi;
  w.span_lo = x.lo;
  w.span_hi = std::min(array_length(), x.hi + l.hi);
  w.bound = x.IsBound() && l.IsBound();
  return w;
}

int WindowFunction::EstimateLevel(const std::vector<int64_t>& point) const {
  if (ctx_.x_var < 0 || static_cast<size_t>(ctx_.x_var) >= point.size() ||
      ctx_.len_var < 0 ||
      static_cast<size_t>(ctx_.len_var) >= point.size()) {
    return -1;
  }
  const int64_t x = point[static_cast<size_t>(ctx_.x_var)];
  const int64_t l = point[static_cast<size_t>(ctx_.len_var)];
  const int64_t hi = std::min(array_length(), x + l);
  if (x < 0 || hi <= x) return -1;
  return static_cast<int>(ctx_.synopsis->PickLevelIndex(x, hi));
}

Interval WindowFunction::CachedValueBounds(int64_t lo, int64_t hi) {
  return cache_.GetOrCompute(kKindValue, lo, hi,
                             [&] { return synopsis().ValueBounds(lo, hi); });
}

Interval WindowFunction::CachedMaxBounds(int64_t lo, int64_t hi) {
  return cache_.GetOrCompute(kKindMax, lo, hi,
                             [&] { return synopsis().MaxBounds(lo, hi); });
}

Interval WindowFunction::CachedMinBounds(int64_t lo, int64_t hi) {
  return cache_.GetOrCompute(kKindMin, lo, hi,
                             [&] { return synopsis().MinBounds(lo, hi); });
}

Interval WindowFunction::MaxOverWindows(int64_t s_lo, int64_t s_hi,
                                        int64_t l_lo, int64_t l_hi) {
  const int64_t n = array_length();
  DQR_CHECK(0 <= s_lo && s_lo <= s_hi && s_hi < n);
  DQR_CHECK(1 <= l_lo && l_lo <= l_hi);
  if (s_lo == s_hi) {
    // Fixed start: the max over [s, s+l) (clamped to the array) is
    // monotone in l, so the shortest and longest windows bound every
    // window in between.
    const int64_t short_hi = std::min(n, s_lo + l_lo);
    const int64_t long_hi = std::min(n, s_lo + l_hi);
    const Interval small = CachedMaxBounds(s_lo, short_hi);
    const Interval large =
        long_hi == short_hi ? small : CachedMaxBounds(s_lo, long_hi);
    return Interval(small.lo, large.hi);
  }

  const int64_t span_hi = std::min(n, s_hi + l_hi);
  const Interval span_values = CachedValueBounds(s_lo, span_hi);
  // Every window contains the common core [s_hi, s_lo + l_lo) when that
  // range is non-empty, so the core's max bounds every window max from
  // below.
  const int64_t core_lo = s_hi;
  const int64_t core_hi = std::min(n, s_lo + l_lo);
  double lower = span_values.lo;
  if (core_lo < core_hi) {
    lower = std::max(lower, CachedMaxBounds(core_lo, core_hi).lo);
  }
  return Interval(lower, span_values.hi);
}

// ---------------------------------------------------------------------
// AvgFunction

Interval AvgFunction::Estimate(const cp::DomainBox& box) {
  const WindowBox w = ReadWindow(box);
  if (w.bound) {
    const int64_t hi = std::min(array_length(), w.x_lo + w.l_lo);
    DQR_CHECK(hi > w.x_lo);
    // Window sums are keyed by (x, l) pairs that rarely repeat, so they
    // are not memoized; the estimation cost is charged directly.
    const obs::ScopedSinkTimer bound_timer;
    ChargeEstimateCost(ctx().estimate_cost_ns, ctx().cost_is_latency);
    return synopsis().AvgBounds(w.x_lo, hi);
  }
  return CachedValueBounds(w.span_lo, w.span_hi);
}

double AvgFunction::Evaluate(const std::vector<int64_t>& point) {
  CountEvaluate();
  const int64_t x = point[static_cast<size_t>(ctx().x_var)];
  const int64_t l = point[static_cast<size_t>(ctx().len_var)];
  const int64_t hi = std::min(array_length(), x + l);
  DQR_CHECK(x >= 0 && hi > x);
  return array().AggregateWindow(x, hi).avg();
}

// ---------------------------------------------------------------------
// MaxFunction

Interval MaxFunction::Estimate(const cp::DomainBox& box) {
  const WindowBox w = ReadWindow(box);
  return MaxOverWindows(w.x_lo, w.x_hi, w.l_lo, w.l_hi);
}

double MaxFunction::Evaluate(const std::vector<int64_t>& point) {
  CountEvaluate();
  const int64_t x = point[static_cast<size_t>(ctx().x_var)];
  const int64_t l = point[static_cast<size_t>(ctx().len_var)];
  const int64_t hi = std::min(array_length(), x + l);
  DQR_CHECK(x >= 0 && hi > x);
  return array().MaxOver(x, hi);
}

void MaxFunction::EvaluateBatch(
    const std::vector<const std::vector<int64_t>*>& points, double* out) {
  const int64_t n = static_cast<int64_t>(points.size());
  std::vector<int64_t> lo(points.size());
  std::vector<int64_t> hi(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    CountEvaluate();
    const std::vector<int64_t>& point = *points[i];
    const int64_t x = point[static_cast<size_t>(ctx().x_var)];
    const int64_t l = point[static_cast<size_t>(ctx().len_var)];
    const int64_t end = std::min(array_length(), x + l);
    DQR_CHECK(x >= 0 && end > x);
    lo[i] = x;
    hi[i] = end;
  }
  array().MaxOverBatch(lo.data(), hi.data(), n, out);
}

// ---------------------------------------------------------------------
// MinFunction

Interval MinFunction::Estimate(const cp::DomainBox& box) {
  const WindowBox w = ReadWindow(box);
  const int64_t n = array_length();
  if (w.bound) {
    const int64_t hi = std::min(n, w.x_lo + w.l_lo);
    DQR_CHECK(hi > w.x_lo);
    return CachedMinBounds(w.x_lo, hi);
  }
  const Interval span_values = CachedValueBounds(w.span_lo, w.span_hi);
  // Mirror of MaxOverWindows: the common core bounds the min from above.
  const int64_t core_lo = w.x_hi;
  const int64_t core_hi = std::min(n, w.x_lo + w.l_lo);
  double upper = span_values.hi;
  if (core_lo < core_hi) {
    upper = std::min(upper, CachedMinBounds(core_lo, core_hi).hi);
  }
  return Interval(span_values.lo, upper);
}

double MinFunction::Evaluate(const std::vector<int64_t>& point) {
  CountEvaluate();
  const int64_t x = point[static_cast<size_t>(ctx().x_var)];
  const int64_t l = point[static_cast<size_t>(ctx().len_var)];
  const int64_t hi = std::min(array_length(), x + l);
  DQR_CHECK(x >= 0 && hi > x);
  return array().AggregateWindow(x, hi).min;
}

void MinFunction::EvaluateBatch(
    const std::vector<const std::vector<int64_t>*>& points, double* out) {
  const int64_t n = static_cast<int64_t>(points.size());
  std::vector<int64_t> lo(points.size());
  std::vector<int64_t> hi(points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    CountEvaluate();
    const std::vector<int64_t>& point = *points[i];
    const int64_t x = point[static_cast<size_t>(ctx().x_var)];
    const int64_t l = point[static_cast<size_t>(ctx().len_var)];
    const int64_t end = std::min(array_length(), x + l);
    DQR_CHECK(x >= 0 && end > x);
    lo[i] = x;
    hi[i] = end;
  }
  array().MinOverBatch(lo.data(), hi.data(), n, out);
}

// ---------------------------------------------------------------------
// NeighborhoodContrastFunction

NeighborhoodContrastFunction::NeighborhoodContrastFunction(
    WindowFunctionContext ctx, Side side, int64_t width)
    : WindowFunction(WithContrastDefaultRange(std::move(ctx))),
      side_(side),
      width_(width) {
  DQR_CHECK(width_ >= 1);
}

std::pair<int64_t, int64_t> NeighborhoodContrastFunction::NeighborhoodFor(
    int64_t x, int64_t l) const {
  const int64_t n = array_length();
  if (side_ == Side::kLeft) {
    return {std::max<int64_t>(0, x - width_), x};
  }
  const int64_t end = std::min(n, x + l);
  return {end, std::min(n, end + width_)};
}

Interval NeighborhoodContrastFunction::Estimate(const cp::DomainBox& box) {
  const WindowBox w = ReadWindow(box);
  const int64_t n = array_length();
  const Interval main = MaxOverWindows(w.x_lo, w.x_hi, w.l_lo, w.l_hi);

  // Bounds on max(neighborhood) over every (x, l) in the box, handling
  // edge truncation soundly. `can_be_empty` marks boxes containing at
  // least one assignment whose neighborhood collapses entirely, where the
  // function value degenerates to 0.
  Interval nbhd = Interval::Empty();
  bool can_be_empty = false;
  if (side_ == Side::kLeft) {
    if (w.x_hi == 0) {
      can_be_empty = true;  // the only neighborhood is empty
    } else if (w.x_lo >= width_) {
      // No truncation: a fixed-length window sliding with x.
      nbhd = MaxOverWindows(w.x_lo - width_, w.x_hi - width_, width_,
                            width_);
    } else {
      // Truncated near the left edge: the neighborhood is some non-empty
      // sub-window of [0, x_hi) for x > 0; value bounds over that span
      // are sound for its max.
      nbhd = CachedValueBounds(0, w.x_hi);
      can_be_empty = w.x_lo == 0;
    }
  } else {
    const int64_t e_lo = std::min(n, w.x_lo + w.l_lo);
    const int64_t e_hi = std::min(n, w.x_hi + w.l_hi);
    if (e_lo >= n) {
      can_be_empty = true;  // every neighborhood starts past the end
    } else if (e_hi + width_ <= n) {
      // No truncation: a fixed-length window sliding with the window end.
      nbhd = MaxOverWindows(e_lo, e_hi, width_, width_);
    } else {
      nbhd = CachedValueBounds(e_lo, n);
      can_be_empty = e_hi >= n;
    }
  }

  Interval estimate =
      nbhd.empty() ? Interval::Empty() : Abs(main - nbhd);
  if (can_be_empty) {
    // Assignments with an empty neighborhood evaluate to exactly 0.
    estimate = estimate.Union(Interval::Point(0.0));
  }
  DQR_CHECK(!estimate.empty());
  return estimate;
}

double NeighborhoodContrastFunction::Evaluate(
    const std::vector<int64_t>& point) {
  CountEvaluate();
  const int64_t x = point[static_cast<size_t>(ctx().x_var)];
  const int64_t l = point[static_cast<size_t>(ctx().len_var)];
  const int64_t hi = std::min(array_length(), x + l);
  DQR_CHECK(x >= 0 && hi > x);
  const double main = array().MaxOver(x, hi);
  const auto [nb_lo, nb_hi] = NeighborhoodFor(x, l);
  if (nb_lo >= nb_hi) return 0.0;
  const double nbhd = array().MaxOver(nb_lo, nb_hi);
  return std::abs(main - nbhd);
}

void NeighborhoodContrastFunction::EvaluateBatch(
    const std::vector<const std::vector<int64_t>*>& points, double* out) {
  const size_t n = points.size();
  std::vector<int64_t> main_lo(n);
  std::vector<int64_t> main_hi(n);
  std::vector<int64_t> nb_lo;
  std::vector<int64_t> nb_hi;
  std::vector<size_t> nb_owner;  // point index of each neighborhood window
  for (size_t i = 0; i < n; ++i) {
    CountEvaluate();
    const std::vector<int64_t>& point = *points[i];
    const int64_t x = point[static_cast<size_t>(ctx().x_var)];
    const int64_t l = point[static_cast<size_t>(ctx().len_var)];
    const int64_t end = std::min(array_length(), x + l);
    DQR_CHECK(x >= 0 && end > x);
    main_lo[i] = x;
    main_hi[i] = end;
    const auto [b, e] = NeighborhoodFor(x, l);
    if (b < e) {
      nb_lo.push_back(b);
      nb_hi.push_back(e);
      nb_owner.push_back(i);
    }
  }
  // The scalar path reads the main window even when the neighborhood is
  // empty (and then returns 0), so the batch must charge it for every
  // point too.
  std::vector<double> main_max(n);
  array().MaxOverBatch(main_lo.data(), main_hi.data(),
                       static_cast<int64_t>(n), main_max.data());
  std::fill(out, out + n, 0.0);
  if (nb_lo.empty()) return;
  std::vector<double> nb_max(nb_lo.size());
  array().MaxOverBatch(nb_lo.data(), nb_hi.data(),
                       static_cast<int64_t>(nb_lo.size()), nb_max.data());
  for (size_t k = 0; k < nb_owner.size(); ++k) {
    out[nb_owner[k]] = std::abs(main_max[nb_owner[k]] - nb_max[k]);
  }
}

}  // namespace dqr::searchlight

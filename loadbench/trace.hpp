// In-memory span recorder and sample statistics for the load generator.
//
// Spans are taken from OUTSIDE the program, around each public call the
// load generator makes: the run's workload span, then one span per step
// (one unit of simulated time on the immediate plane, one admission epoch on
// the batched plane), then one leaf span per call()/hangup()/submit()/
// drain_all()/apply()/scrape. Leaf spans have no children, so a leaf's self
// time is its duration; a step's self time is the load generator's own
// work. Everything stays in memory until the run ends and is then written
// out as CSV.
#pragma once

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace loadbench {

using Clock = std::chrono::steady_clock;

inline double micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}
inline double secs(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Nearest-rank quantile (q in (0, 1]); 0 for an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t idx = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(idx),
                   v.end());
  return v[idx];
}

inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}

/// Timing samples cut into slices (a span of wall time, or a run of
/// events). Each closed slice keeps its own mean and p99; a run reports the
/// median over its slices, so a burst of interference from outside the
/// program moves a few slices and not the result. Samples are dropped when
/// their slice closes, so memory does not grow with throughput.
class SliceStats {
 public:
  void add(double v) { cur_.push_back(v); }
  [[nodiscard]] std::size_t pending() const noexcept { return cur_.size(); }
  void close() {
    if (cur_.empty()) return;
    double sum = 0.0;
    for (double v : cur_) sum += v;
    means_.push_back(sum / static_cast<double>(cur_.size()));
    p50s_.push_back(quantile(cur_, 0.50));
    p99s_.push_back(quantile(cur_, 0.99));
    cur_.clear();
  }
  /// Drops the samples of an unfinished slice.
  void discard() { cur_.clear(); }
  [[nodiscard]] std::size_t slices() const noexcept { return means_.size(); }
  [[nodiscard]] double mean() const { return median(means_); }
  [[nodiscard]] double p50() const { return median(p50s_); }
  [[nodiscard]] double p99() const { return median(p99s_); }

 private:
  std::vector<double> cur_, means_, p50s_, p99s_;
};

enum class Op : std::uint8_t {
  kCall, kHangup, kSubmit, kDrainAll, kApply, kScrape,  // leaves
  kStep, kWorkload,
};
inline constexpr std::size_t kLeafOps = 6;
inline constexpr const char* kOpNames[] = {
    "call", "hangup", "submit", "drain_all", "apply", "scrape", "step",
    "workload"};

class Tracer {
 public:
  struct Span {
    std::int64_t start_ns = 0, end_ns = 0;  // relative to the run's origin
    std::uint32_t id = 0, parent = 0;
    Op op = Op::kCall;
    bool window = false;  // inside the measured traffic window
  };

  Tracer(bool enabled, std::uint64_t run_id)
      : enabled_(enabled), run_id_(run_id), origin_(Clock::now()) {
    if (enabled_) spans_.reserve(1u << 20);
  }

  [[nodiscard]] bool enabled() const noexcept { return enabled_; }
  /// True while spans are being recorded (a traced block or a probe).
  [[nodiscard]] bool on() const noexcept { return on_; }

  /// Opens a step span at `t` (closing the open one, if any). Recording is
  /// on for the step iff `record`; `window` tags it as measured traffic.
  void step(Clock::time_point t, bool record, bool window) {
    close_step(t);
    on_ = enabled_ && record;
    if (!on_) return;
    step_idx_ = spans_.size();
    spans_.push_back(
        {ns(t), ns(t), next_id_++, kWorkloadId, Op::kStep, window});
  }
  void close_step(Clock::time_point t) {
    if (!on_) return;
    Span& s = spans_[step_idx_];
    s.end_ns = ns(t);
    if (s.window) {
      window_wall_s_ += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
      for (std::size_t k = 0; k < kLeafOps; ++k)
        window_self_s_[k] += step_self_[k];
    }
    step_self_.fill(0.0);
    on_ = false;
  }

  void leaf(Op op, Clock::time_point a, Clock::time_point b) {
    if (!on_) return;
    const Span& st = spans_[step_idx_];
    spans_.push_back({ns(a), ns(b), next_id_++, st.id, op, st.window});
    step_self_[static_cast<std::size_t>(op)] += secs(a, b);
  }

  /// Leaf durations (µs) of one op over every recorded span.
  [[nodiscard]] std::vector<double> durations_us(Op op) const {
    std::vector<double> out;
    for (const Span& s : spans_)
      if (s.op == op)
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    return out;
  }
  /// Self time of a leaf op summed over the traced window steps.
  [[nodiscard]] double window_self_s(Op op) const {
    return window_self_s_[static_cast<std::size_t>(op)];
  }
  /// Wall time covered by the traced window steps.
  [[nodiscard]] double window_wall_s() const noexcept { return window_wall_s_; }
  [[nodiscard]] std::size_t span_count() const noexcept {
    return spans_.size();
  }

  /// Writes every span as CSV (run id, span id, parent id, name, start and
  /// end in ns since the run's origin), under one workload root span.
  bool write_csv(const std::string& path, const std::string& workload,
                 Clock::time_point end) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    std::fprintf(f, "run_id,span_id,parent_id,name,start_ns,end_ns,window\n");
    std::fprintf(f, "%016llx,%u,0,%s:%s,0,%lld,0\n",
                 static_cast<unsigned long long>(run_id_), kWorkloadId,
                 kOpNames[static_cast<std::size_t>(Op::kWorkload)],
                 workload.c_str(), static_cast<long long>(ns(end)));
    for (const Span& s : spans_)
      std::fprintf(f, "%016llx,%u,%u,%s,%lld,%lld,%d\n",
                   static_cast<unsigned long long>(run_id_), s.id, s.parent,
                   kOpNames[static_cast<std::size_t>(s.op)],
                   static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.window ? 1 : 0);
    return std::fclose(f) == 0;
  }

 private:
  static constexpr std::uint32_t kWorkloadId = 1;
  [[nodiscard]] std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - origin_)
        .count();
  }

  bool enabled_;
  bool on_ = false;
  std::uint64_t run_id_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
  std::size_t step_idx_ = 0;
  std::uint32_t next_id_ = kWorkloadId + 1;
  std::array<double, kLeafOps> step_self_{};
  std::array<double, kLeafOps> window_self_s_{};
  double window_wall_s_ = 0.0;
};

}  // namespace loadbench

// Admission policies for the Exchange's batched front-end.
//
// Submitted requests queue until a drain() epoch admits a window of them
// onto the engine. The policy decides two things: how many queued requests
// enter the epoch about to run (epoch_window), and how deep the queue may
// grow before further submissions are Refused outright (max_queue_depth).
// Requests that stay queued past an epoch are Deferred — they keep their
// place and their deferral count is surfaced in the eventual Outcome.
//
// ConflictAdaptiveAdmission closes the loop the ROADMAP asked for: it sizes
// the window from the router's measured claim_conflicts rate
// (AIMD — halve on a contended epoch, grow additively on a clean one), so
// the batch size settles where optimistic path-claiming stops paying for
// retries.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>

namespace ftcs::svc {

/// What the policy sees before each epoch: queue pressure plus the
/// previous epoch's engine feedback (deltas, not totals).
struct EpochFeedback {
  std::uint64_t epoch = 0;       // index of the epoch about to run
  std::size_t queued = 0;        // requests currently waiting
  std::size_t sessions = 1;      // engine parallelism available to the batch
  std::size_t admitted_last = 0; // requests admitted into the previous epoch
  std::uint64_t claim_conflicts_last = 0;      // engine CAS conflicts, delta
  std::uint64_t rejected_contention_last = 0;  // retry-budget rejects, delta
  double last_epoch_seconds = 0.0;  // wall time the previous epoch spent
                                    // routing (0 before the first epoch)
  // Fault-plane health, read at the epoch boundary (overlay-aware policies):
  std::size_t failed_switches = 0;  // switches currently down, either mode
  std::size_t stuck_switches = 0;   // the welded (stuck-on) subset
  std::uint64_t overlay_conflicts_last = 0;  // searches that aborted on the
                                             // liveness overlay, delta
};

class AdmissionPolicy {
 public:
  virtual ~AdmissionPolicy() = default;
  /// Maximum number of queued requests to admit into the epoch about to
  /// run. May use feedback state; called once per drain().
  [[nodiscard]] virtual std::size_t epoch_window(const EpochFeedback& fb) = 0;
  /// Queue cap: a submit() that would grow the queue past this depth is
  /// Refused with RejectReason::kRefused. 0 = unbounded.
  [[nodiscard]] virtual std::size_t max_queue_depth() const noexcept {
    return 0;
  }
};

/// Admit everything that is queued, every epoch. No overload protection.
class UnboundedAdmission final : public AdmissionPolicy {
 public:
  [[nodiscard]] std::size_t epoch_window(const EpochFeedback& fb) override {
    return fb.queued;
  }
};

/// Fixed per-epoch window with an optional queue cap: the classic
/// rate-limiter. Requests beyond the window wait (Deferred); submissions
/// beyond the cap bounce (Refused).
class FixedWindowAdmission final : public AdmissionPolicy {
 public:
  explicit FixedWindowAdmission(std::size_t window, std::size_t max_queue = 0)
      : window_(window), max_queue_(max_queue) {}
  [[nodiscard]] std::size_t epoch_window(const EpochFeedback&) override {
    return window_;
  }
  [[nodiscard]] std::size_t max_queue_depth() const noexcept override {
    return max_queue_;
  }

 private:
  std::size_t window_;
  std::size_t max_queue_;
};

/// AIMD window driven by the router's claim_conflicts counters:
/// an epoch whose conflicts-per-admitted-call exceed `high_rate` halves the
/// window (contention means too many calls raced in one batch); an epoch
/// below `low_rate` grows it by a quarter (the engine has headroom). A
/// retry-budget rejection (rejected_contention) always halves — the engine
/// actually failed a call. Window stays within [min_window, max_window].
class ConflictAdaptiveAdmission final : public AdmissionPolicy {
 public:
  explicit ConflictAdaptiveAdmission(std::size_t initial = 64,
                                     std::size_t min_window = 8,
                                     std::size_t max_window = 4096,
                                     double high_rate = 0.10,
                                     double low_rate = 0.02,
                                     std::size_t max_queue = 0)
      : window_(std::clamp(initial, min_window, max_window)),
        min_(min_window),
        max_(max_window),
        high_(high_rate),
        low_(low_rate),
        max_queue_(max_queue) {}

  [[nodiscard]] std::size_t epoch_window(const EpochFeedback& fb) override {
    if (fb.admitted_last > 0) {
      const double rate = static_cast<double>(fb.claim_conflicts_last) /
                          static_cast<double>(fb.admitted_last);
      if (fb.rejected_contention_last > 0 || rate > high_) {
        window_ = std::max(min_, window_ / 2);
      } else if (rate < low_) {
        window_ = std::min(max_, window_ + std::max<std::size_t>(1, window_ / 4));
      }
    }
    return window_;
  }
  [[nodiscard]] std::size_t max_queue_depth() const noexcept override {
    return max_queue_;
  }
  [[nodiscard]] std::size_t current_window() const noexcept { return window_; }

 private:
  std::size_t window_;
  std::size_t min_, max_;
  double high_, low_;
  std::size_t max_queue_;
};

/// Latency-aware window: each epoch has a wall-clock deadline budget. An
/// epoch that overran shrinks the next window proportionally (window *
/// deadline / observed — one overrun corrects in one step instead of
/// halving repeatedly); an epoch comfortably inside the budget (below
/// `grow_below` of it) grows the window by a quarter. Per-class SLAs
/// reduce to one exchange per class with its own deadline.
class DeadlineAdmission final : public AdmissionPolicy {
 public:
  explicit DeadlineAdmission(double deadline_seconds,
                             std::size_t initial = 64,
                             std::size_t min_window = 8,
                             std::size_t max_window = 4096,
                             double grow_below = 0.5,
                             std::size_t max_queue = 0)
      : deadline_(deadline_seconds),
        window_(std::clamp(initial, min_window, max_window)),
        min_(min_window),
        max_(max_window),
        grow_below_(grow_below),
        max_queue_(max_queue) {}

  [[nodiscard]] std::size_t epoch_window(const EpochFeedback& fb) override {
    if (fb.admitted_last > 0 && fb.last_epoch_seconds > 0.0 &&
        deadline_ > 0.0) {
      if (fb.last_epoch_seconds > deadline_) {
        const double scale = deadline_ / fb.last_epoch_seconds;
        window_ = std::max(
            min_, static_cast<std::size_t>(static_cast<double>(window_) * scale));
      } else if (fb.last_epoch_seconds < grow_below_ * deadline_) {
        window_ = std::min(max_, window_ + std::max<std::size_t>(1, window_ / 4));
      }
    }
    return window_;
  }
  [[nodiscard]] std::size_t max_queue_depth() const noexcept override {
    return max_queue_;
  }
  [[nodiscard]] std::size_t current_window() const noexcept { return window_; }

 private:
  double deadline_;
  std::size_t window_;
  std::size_t min_, max_;
  double grow_below_;
  std::size_t max_queue_;
};

/// Overlay-aware decorator: wraps any inner policy and derates its window
/// while the TOPOLOGY is degraded, instead of discovering rejects the hard
/// way. Two signals, both from the fault plane at the epoch boundary:
///   - failed_switches: each down switch derates the inner window by
///     (1 - per_fault_shrink), compounding, floored at min_scale — a
///     storm-damaged network is offered proportionally less work, and the
///     surplus stays queued (Deferred) for post-repair epochs rather than
///     burning searches into dead topology.
///   - overlay_conflicts delta: searches that actually hit the liveness
///     overlay last epoch above `conflict_high_rate` per admitted call
///     halve the window once more — the damage is in the traffic's way,
///     not just on the books.
/// The window never drops below 1 (a non-empty queue always drains) and
/// recovers automatically as repair() brings failed_switches down. Composes
/// with ConflictAdaptiveAdmission / DeadlineAdmission as the inner policy:
/// their AIMD / deadline feedback still governs the healthy-topology window.
class OverlayAdaptiveAdmission final : public AdmissionPolicy {
 public:
  explicit OverlayAdaptiveAdmission(std::unique_ptr<AdmissionPolicy> inner,
                                    double per_fault_shrink = 0.05,
                                    double min_scale = 1.0 / 16.0,
                                    double conflict_high_rate = 0.05)
      : inner_(std::move(inner)),
        per_fault_shrink_(per_fault_shrink),
        min_scale_(min_scale),
        high_(conflict_high_rate) {}
  /// Convenience: overlay-aware fixed window (the bench's static baseline
  /// with derating bolted on).
  explicit OverlayAdaptiveAdmission(std::size_t window,
                                    double per_fault_shrink = 0.05,
                                    double min_scale = 1.0 / 16.0,
                                    double conflict_high_rate = 0.05)
      : OverlayAdaptiveAdmission(
            std::make_unique<FixedWindowAdmission>(window), per_fault_shrink,
            min_scale, conflict_high_rate) {}

  [[nodiscard]] std::size_t epoch_window(const EpochFeedback& fb) override {
    std::size_t w = inner_->epoch_window(fb);
    if (fb.failed_switches > 0 && w > 1) {
      double scale = std::pow(1.0 - per_fault_shrink_,
                              static_cast<double>(fb.failed_switches));
      scale = std::max(scale, min_scale_);
      w = static_cast<std::size_t>(static_cast<double>(w) * scale);
    }
    if (fb.admitted_last > 0) {
      const double rate = static_cast<double>(fb.overlay_conflicts_last) /
                          static_cast<double>(fb.admitted_last);
      if (rate > high_) w /= 2;
    }
    return std::max<std::size_t>(1, w);
  }
  [[nodiscard]] std::size_t max_queue_depth() const noexcept override {
    return inner_->max_queue_depth();
  }
  [[nodiscard]] AdmissionPolicy& inner() noexcept { return *inner_; }

 private:
  std::unique_ptr<AdmissionPolicy> inner_;
  double per_fault_shrink_;
  double min_scale_;
  double high_;
};

}  // namespace ftcs::svc

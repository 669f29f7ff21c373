#include "search/scheduler.hpp"

#include <cmath>

namespace qarch::search {

bool deadline_passed(double deadline_at, double now) {
  return deadline_at > 0.0 && now >= deadline_at;
}

double job_cost(std::size_t budget, std::size_t done) {
  return static_cast<double>(budget > done ? budget - done : 1);
}

std::optional<double> retry_delay(int attempts, int max_retries,
                                  double base) {
  if (attempts >= max_retries) return std::nullopt;
  return base * std::ldexp(1.0, attempts);
}

SliceVerdict SliceProbe::verdict(std::size_t evaluations, double now,
                                 bool draining,
                                 const std::function<bool()>& contended) {
  acc_evals_ += evaluations >= last_evals_ ? evaluations - last_evals_
                                           : evaluations;
  last_evals_ = evaluations;
  if (draining) return SliceVerdict::Park;
  if (deadline_passed(limits_.deadline_at, now)) return SliceVerdict::Expire;
  if (limits_.max_eval_seconds > 0.0 &&
      run_before_ + (now - slice_start_) >= limits_.max_eval_seconds)
    return SliceVerdict::Expire;
  if (limits_.checkpoint_evals > 0 &&
      acc_evals_ >= limits_.checkpoint_evals) {
    acc_evals_ = 0;
    return SliceVerdict::Checkpoint;
  }
  if (limits_.quantum > 0.0 && now - slice_start_ >= limits_.quantum &&
      now >= next_probe_) {
    // Park only for ANOTHER client's work: preempting for the job's own
    // queue would thrash (the round robin already ordered it), and an
    // uncontended service runs every job straight through. Nobody waiting:
    // probe again half a quantum later rather than at every safe point.
    if (contended()) return SliceVerdict::Park;
    next_probe_ = now + limits_.quantum * 0.5;
  }
  return SliceVerdict::Run;
}

}  // namespace qarch::search

#include "search/fault.hpp"

#include <chrono>
#include <cstdlib>
#include <thread>

#include "common/error.hpp"
#include "common/json.hpp"

namespace qarch::search {

namespace {

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Deterministic uniform in [0, 1) from (key, seed, attempt, salt). Pure —
/// the verdict for a given evaluation never depends on thread interleaving.
double verdict(const std::string& key, std::uint64_t seed,
               std::uint64_t attempt, std::uint64_t salt) {
  std::uint64_t h = splitmix64(seed ^ salt);
  for (unsigned char c : key) h = splitmix64(h ^ c);
  h = splitmix64(h ^ attempt);
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

double parse_double(const std::string& s, const std::string& what) {
  try {
    std::size_t used = 0;
    const double v = std::stod(s, &used);
    QARCH_REQUIRE(used == s.size(), "trailing junk");
    return v;
  } catch (const std::exception&) {
    QARCH_REQUIRE(false, "QARCH_FAULT: bad number for " + what + ": " + s);
  }
  return 0.0;
}

std::uint64_t parse_u64(const std::string& s, const std::string& what) {
  try {
    return json::parse_u64(s, what);
  } catch (const std::exception&) {
    QARCH_REQUIRE(false, "QARCH_FAULT: bad integer for " + what + ": " + s);
  }
  return 0;
}

}  // namespace

FaultPlan parse_fault_plan(const std::string& spec) {
  FaultPlan plan;
  std::size_t pos = 0;
  while (pos < spec.size()) {
    std::size_t comma = spec.find(',', pos);
    if (comma == std::string::npos) comma = spec.size();
    const std::string item = spec.substr(pos, comma - pos);
    pos = comma + 1;
    if (item.empty()) continue;
    const std::size_t eq = item.find('=');
    QARCH_REQUIRE(eq != std::string::npos,
                  "QARCH_FAULT: expected key=value, got: " + item);
    const std::string key = item.substr(0, eq);
    const std::string value = item.substr(eq + 1);
    if (key == "fail") {
      plan.fail_rate = parse_double(value, "fail");
      QARCH_REQUIRE(plan.fail_rate >= 0.0 && plan.fail_rate <= 1.0,
                    "QARCH_FAULT: fail rate must be in [0, 1]");
    } else if (key == "seed") {
      plan.seed = parse_u64(value, "seed");
    } else if (key == "failfirst") {
      plan.fail_first = parse_u64(value, "failfirst");
    } else if (key == "delay") {
      // delay=<seconds>[@<rate>], rate defaults to 1.
      const std::size_t at = value.find('@');
      if (at == std::string::npos) {
        plan.delay_seconds = parse_double(value, "delay");
        plan.delay_rate = 1.0;
      } else {
        plan.delay_seconds = parse_double(value.substr(0, at), "delay");
        plan.delay_rate = parse_double(value.substr(at + 1), "delay rate");
      }
      QARCH_REQUIRE(plan.delay_seconds >= 0.0, "QARCH_FAULT: negative delay");
      QARCH_REQUIRE(plan.delay_rate >= 0.0 && plan.delay_rate <= 1.0,
                    "QARCH_FAULT: delay rate must be in [0, 1]");
    } else if (key == "drop") {
      plan.drop_rate = parse_double(value, "drop");
      QARCH_REQUIRE(plan.drop_rate >= 0.0 && plan.drop_rate <= 1.0,
                    "QARCH_FAULT: drop rate must be in [0, 1]");
    } else if (key == "crash") {
      // crash=<point>[:<nth visit>], visit defaults to 1.
      const std::size_t colon = value.find(':');
      if (colon == std::string::npos) {
        plan.crash_point = value;
        plan.crash_after = 1;
      } else {
        plan.crash_point = value.substr(0, colon);
        plan.crash_after = parse_u64(value.substr(colon + 1), "crash visit");
      }
      QARCH_REQUIRE(!plan.crash_point.empty() && plan.crash_after >= 1,
                    "QARCH_FAULT: crash needs point[:visit >= 1]");
    } else {
      QARCH_REQUIRE(false, "QARCH_FAULT: unknown key: " + key);
    }
  }
  return plan;
}

FaultInjector& FaultInjector::instance() {
  static FaultInjector injector;
  return injector;
}

FaultInjector::FaultInjector() {
  FaultPlan plan;
  if (const char* env = std::getenv("QARCH_FAULT"); env != nullptr && *env)
    plan = parse_fault_plan(env);
  configure(plan);
}

void FaultInjector::configure(const FaultPlan& plan) {
  LockGuard lock(mutex_);
  plan_ = plan;
  armed_.store(plan.enabled(), std::memory_order_release);
  failures_ = 0;
  delays_ = 0;
  drops_ = 0;
  point_visits_.clear();
}

void FaultInjector::reset() {
  FaultPlan plan;
  if (const char* env = std::getenv("QARCH_FAULT"); env != nullptr && *env)
    plan = parse_fault_plan(env);
  configure(plan);
}

FaultPlan FaultInjector::plan() const {
  LockGuard lock(mutex_);
  return plan_;
}

void FaultInjector::on_evaluation(const std::string& key,
                                  std::uint64_t attempt) {
  // Fast path: plan_ is only readable under mutex_ (configure() can swap it
  // from another thread), but the unset-QARCH_FAULT case must stay one
  // branch per evaluation — the armed_ atomic carries exactly that bit.
  if (!armed_.load(std::memory_order_acquire)) return;
  FaultPlan plan;
  {
    LockGuard lock(mutex_);
    plan = plan_;
  }
  if (plan.delay_rate > 0.0 && plan.delay_seconds > 0.0 &&
      verdict(key, plan.seed, attempt, 0x5eedDE1AULL) < plan.delay_rate) {
    {
      LockGuard lock(mutex_);
      ++delays_;
    }
    backoff_sleep(plan.delay_seconds);
  }
  const bool fail_deterministic = attempt < plan.fail_first;
  const bool fail_seeded =
      plan.fail_rate > 0.0 &&
      verdict(key, plan.seed, attempt, 0x5eedFA11ULL) < plan.fail_rate;
  if (fail_deterministic || fail_seeded) {
    {
      LockGuard lock(mutex_);
      ++failures_;
    }
    throw FaultInjected("injected evaluation failure (attempt " +
                        std::to_string(attempt) + ")");
  }
}

void FaultInjector::at_point(const char* point) {
  if (!armed_.load(std::memory_order_acquire)) return;
  std::uint64_t visit = 0;
  std::uint64_t crash_after = 0;
  {
    LockGuard lock(mutex_);
    if (plan_.crash_point.empty() || plan_.crash_point != point) return;
    visit = ++point_visits_[plan_.crash_point];
    crash_after = plan_.crash_after;
  }
  // Simulated SIGKILL: no destructors, no atexit, no flushing — exactly the
  // hole the checkpoint/cache durability work has to survive.
  if (visit == crash_after) std::_Exit(137);
}

bool FaultInjector::drop_connection(std::uint64_t conn_id) {
  if (!armed_.load(std::memory_order_acquire)) return false;
  FaultPlan plan;
  {
    LockGuard lock(mutex_);
    plan = plan_;
  }
  if (plan.drop_rate <= 0.0) return false;
  // Same pure (plan, ordinal) discipline as the evaluation verdicts: the
  // Nth accepted connection either always or never drops for a given plan.
  if (verdict("conn", plan.seed, conn_id, 0x5eedD509ULL) >= plan.drop_rate)
    return false;
  LockGuard lock(mutex_);
  ++drops_;
  return true;
}

std::uint64_t FaultInjector::injected_failures() const {
  LockGuard lock(mutex_);
  return failures_;
}

std::uint64_t FaultInjector::injected_delays() const {
  LockGuard lock(mutex_);
  return delays_;
}

std::uint64_t FaultInjector::dropped_connections() const {
  LockGuard lock(mutex_);
  return drops_;
}

void backoff_sleep(double seconds) {
  if (seconds <= 0.0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
}

}  // namespace qarch::search

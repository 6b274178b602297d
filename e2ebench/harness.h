// Measurement helpers shared by the e2e workloads: clocks, the
// percentile rule, a bounded latency sampler, the pass/fail tally and
// the metric report that prints every metric by name and unit.

#ifndef GREPAIR_E2EBENCH_HARNESS_H_
#define GREPAIR_E2EBENCH_HARNESS_H_

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "src/util/rng.h"

namespace grepair {
namespace e2e {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

inline double Micros(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

/// CPU time of `clock` (CLOCK_PROCESS_CPUTIME_ID: every thread of the
/// process; CLOCK_THREAD_CPUTIME_ID: the calling thread), in seconds.
/// Unlike the wall clock it does not run while a virtual machine's host
/// hands the vCPU to someone else (stolen time), so it tracks the work
/// done, not the host's load.
inline double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// `count` per second of `seconds` (0 when nothing was timed).
inline double Rate(double count, double seconds) {
  return seconds > 0 ? count / seconds : 0.0;
}

/// \brief One percentile of a sample: its value, the sample count, and
/// how many samples lie beyond it.
struct Percentile {
  double value = 0;
  size_t n = 0;
  size_t beyond = 0;

  /// A percentile is only trusted with at least ten samples beyond it.
  bool supported() const { return beyond >= 10; }
};

/// \brief p-quantile (p in [0, 1]) of `samples`, linearly interpolated
/// between order statistics. With a nonzero `tick` (the clock
/// resolution the samples were read at), a quantile that falls inside a
/// run of equal readings is placed within that reading's tick in
/// proportion to its rank in the run, so sub-microsecond latencies do
/// not snap to the same whole tick on every run.
inline Percentile PercentileOf(std::vector<double> samples, double p,
                               double tick = 0) {
  Percentile out;
  out.n = samples.size();
  if (samples.empty()) return out;
  std::sort(samples.begin(), samples.end());
  if (tick > 0) {
    double q = p * static_cast<double>(samples.size());
    size_t at = std::min(static_cast<size_t>(q), samples.size() - 1);
    auto run = std::equal_range(samples.begin(), samples.end(), samples[at]);
    size_t lo = run.first - samples.begin();
    size_t hi = run.second - samples.begin();
    if (hi - lo > 1) {
      out.value = samples[at] - tick / 2 +
                  tick * (q - static_cast<double>(lo)) /
                      static_cast<double>(hi - lo);
      out.beyond = samples.size() - hi;
      return out;
    }
  }
  double rank = p * static_cast<double>(samples.size() - 1);
  size_t lo = static_cast<size_t>(std::floor(rank));
  size_t hi = std::min(lo + 1, samples.size() - 1);
  double frac = rank - static_cast<double>(lo);
  out.value = samples[lo] + (samples[hi] - samples[lo]) * frac;
  out.beyond = samples.size() - 1 - lo;
  return out;
}

inline double Median(std::vector<double> samples) {
  return PercentileOf(std::move(samples), 0.5).value;
}

/// \brief Latency samples with bounded memory: keeps every sample up to
/// kCapacity, then a uniform reservoir (algorithm R, fixed seed) so a
/// run of millions of point queries still yields exact-sample
/// percentiles without the sampler dominating peak RSS.
class LatencySampler {
 public:
  static constexpr size_t kCapacity = 1 << 20;

  void Add(double value) {
    ++count_;
    sum_ += value;
    if (samples_.size() < kCapacity) {
      samples_.push_back(value);
      return;
    }
    uint64_t slot = rng_.UniformBounded(count_);
    if (slot < kCapacity) samples_[slot] = value;
  }

  uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  /// Samples are microseconds read off a nanosecond clock.
  Percentile At(double p) const { return PercentileOf(samples_, p, 1e-3); }

 private:
  std::vector<double> samples_;
  uint64_t count_ = 0;
  double sum_ = 0;
  Rng rng_{0x5eedULL};
};

/// \brief Operations attempted and failed (an error status or an answer
/// that disagrees with the model both count as failed).
struct Tally {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string first_failure;

  void Fail(const std::string& what) {
    ++failed;
    if (first_failure.empty()) first_failure = what;
  }
};

/// \brief Resets this process's resident-set high-water mark to its
/// current resident set (Linux 4.0+); false where that fails.
inline bool ResetPeakRss() {
  std::FILE* f = std::fopen("/proc/self/clear_refs", "w");
  if (f == nullptr) return false;
  bool written = std::fputs("5", f) >= 0;
  return std::fclose(f) == 0 && written;
}

/// \brief Resident-set high-water mark of this process in MiB: VmHWM,
/// which ResetPeakRss resets, or the lifetime peak where /proc is not
/// readable.
inline double PeakRssMb() {
  if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
    char line[256];
    unsigned long long kb = 0;
    bool found = false;
    while (!found && std::fgets(line, sizeof line, f) != nullptr) {
      found = std::sscanf(line, "VmHWM: %llu kB", &kb) == 1;
    }
    std::fclose(f);
    if (found) return static_cast<double>(kb) / 1024.0;
  }
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

struct MetricValue {
  double value = 0;
  std::string unit;
  uint64_t n = 0;  ///< samples behind the value (1 for a single reading)
};

/// \brief Named metrics of one run, in insertion order of their specs.
class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           uint64_t n = 1) {
    values_[name] = MetricValue{value, unit, n};
  }
  void Set(const std::string& name, const Percentile& p,
           const std::string& unit) {
    Set(name, p.value, unit, p.n);
  }
  bool Has(const std::string& name) const { return values_.count(name) > 0; }
  const MetricValue& Get(const std::string& name) const {
    return values_.at(name);
  }

 private:
  std::map<std::string, MetricValue> values_;
};

}  // namespace e2e
}  // namespace grepair

#endif  // GREPAIR_E2EBENCH_HARNESS_H_

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

// The benchmark's own arithmetic, kept apart from the load generator so
// that harness_test.cc can pin it: the percentile rule, the capacity
// search with its backlog detection, and self time over nested spans.

#include <cstddef>
#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

namespace perfbench {

/// Latency of a request that failed, was refused or was never sent: it
/// misses every latency limit.
inline constexpr double kMissed = std::numeric_limits<double>::infinity();

/// Nearest-rank percentile `p` (in (0, 100]) of `samples`; 0 when empty.
double Percentile(std::vector<double> samples, double p);

/// Samples strictly above the nearest-rank `p` percentile of `n` samples.
size_t SamplesBeyond(size_t n, double p);

/// The percentile rule: the highest of `ladder` (descending or not) that
/// leaves at least `min_beyond` samples beyond it, or 50 when none does.
double HighestReportablePercentile(size_t n,
                                   const std::vector<double>& ladder = {
                                       99.9, 99, 98, 95, 90, 75, 50},
                                   size_t min_beyond = 10);

/// One request of a paced step: when it was due (seconds from the step's
/// start), how late the generator sent it, and its latency from the due
/// time (kMissed when it failed or was never sent).
struct RequestSample {
  double due_s = 0;
  double lateness_ms = 0;
  double latency_ms = 0;
};

/// Growing backlog: the least-squares trend of send lateness over the step
/// rises by more than `limit_ms / 2` across `step_s` seconds. A generator
/// that keeps up shows flat lateness whatever its noise; one that falls
/// behind shows lateness climbing with due time.
bool GrowingBacklog(const std::vector<RequestSample>& samples, double step_s,
                    double limit_ms);

/// Verdict on one offered rate.
struct StepVerdict {
  double offered_qps = 0;
  size_t requests = 0;
  double p99_ms = 0;
  bool backlog = false;
  bool holds = false;
};

/// A step holds when its p99 latency (misses included) stays within
/// `limit_ms` and it shows no growing backlog.
StepVerdict JudgeStep(double offered_qps,
                      const std::vector<RequestSample>& samples, double step_s,
                      double limit_ms);

/// Capacity by bisection: `lo` is a rate known to hold (0 if none), `hi`
/// a rate assumed not to. Each of `steps` decisions runs the midpoint
/// through `run_step` and keeps the half that brackets the boundary. A
/// rate fails only when `tries` runs of it in a row fail, so one stall of
/// the machine does not decide the result alone. Returns the highest rate
/// seen to hold, with every run's verdict in `trail`.
double SearchCapacity(double lo, double hi, int steps, int tries,
                      const std::function<StepVerdict(double)>& run_step,
                      std::vector<StepVerdict>* trail = nullptr);

/// Median over consecutive windows of `window_s` seconds (by due time) of
/// each window's median latency, so that one noisy stretch of the machine
/// moves one window and not the result. 0 when there are no samples.
double WindowedMedian(const std::vector<RequestSample>& samples,
                      double window_s);

/// One traced interval. `parent` indexes the enclosing span in the same
/// vector (-1 for a root); children may overlap each other (concurrent
/// work) and are clipped to their parent.
struct Span {
  const char* name = "";
  int parent = -1;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// Self time of every span: its duration minus the part of it that the
/// union of its direct children covers.
std::vector<int64_t> SelfTimes(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_

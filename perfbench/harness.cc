#include "harness.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace perfbench {

namespace {

/// 1-based nearest rank of percentile `p` among `n` samples.
size_t NearestRank(size_t n, double p) {
  // The epsilon keeps 99.9% of 10000 at rank 9990, not 9991.
  const double rank = std::ceil(p / 100.0 * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(rank), 1, n);
}

}  // namespace

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  const size_t k = NearestRank(samples.size(), p) - 1;
  std::nth_element(samples.begin(), samples.begin() + static_cast<long>(k),
                   samples.end());
  return samples[k];
}

size_t SamplesBeyond(size_t n, double p) {
  return n == 0 ? 0 : n - NearestRank(n, p);
}

double HighestReportablePercentile(size_t n, const std::vector<double>& ladder,
                                   size_t min_beyond) {
  double best = 50;
  bool found = false;
  for (double p : ladder) {
    if (SamplesBeyond(n, p) >= min_beyond && (!found || p > best)) {
      best = p;
      found = true;
    }
  }
  return best;
}

bool GrowingBacklog(const std::vector<RequestSample>& samples, double step_s,
                    double limit_ms) {
  // Requests never sent carry no lateness; they are judged as misses by
  // the percentile instead.
  double n = 0, sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (const RequestSample& s : samples) {
    if (!std::isfinite(s.lateness_ms)) continue;
    n += 1;
    sx += s.due_s;
    sy += s.lateness_ms;
    sxx += s.due_s * s.due_s;
    sxy += s.due_s * s.lateness_ms;
  }
  const double var = n * sxx - sx * sx;
  if (n < 3 || var <= 0) return false;
  const double slope_ms_per_s = (n * sxy - sx * sy) / var;
  return slope_ms_per_s * step_s > limit_ms / 2;
}

StepVerdict JudgeStep(double offered_qps,
                      const std::vector<RequestSample>& samples, double step_s,
                      double limit_ms) {
  StepVerdict v;
  v.offered_qps = offered_qps;
  v.requests = samples.size();
  std::vector<double> latencies;
  latencies.reserve(samples.size());
  for (const RequestSample& s : samples) latencies.push_back(s.latency_ms);
  v.p99_ms = samples.empty() ? kMissed : Percentile(std::move(latencies), 99);
  v.backlog = GrowingBacklog(samples, step_s, limit_ms);
  v.holds = !v.backlog && v.p99_ms <= limit_ms;
  return v;
}

double SearchCapacity(double lo, double hi, int steps, int tries,
                      const std::function<StepVerdict(double)>& run_step,
                      std::vector<StepVerdict>* trail) {
  for (int i = 0; i < steps && hi > lo; ++i) {
    const double mid = (lo + hi) / 2;
    bool holds = false;
    for (int t = 0; t < std::max(tries, 1) && !holds; ++t) {
      const StepVerdict v = run_step(mid);
      if (trail != nullptr) trail->push_back(v);
      holds = v.holds;
    }
    if (holds) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return lo;
}

double WindowedMedian(const std::vector<RequestSample>& samples,
                      double window_s) {
  std::vector<std::vector<double>> windows;
  for (const RequestSample& s : samples) {
    const auto w = static_cast<size_t>(std::max(0.0, s.due_s) / window_s);
    if (w >= windows.size()) windows.resize(w + 1);
    windows[w].push_back(s.latency_ms);
  }
  std::vector<double> medians;
  for (std::vector<double>& w : windows) {
    if (!w.empty()) medians.push_back(Percentile(std::move(w), 50));
  }
  return Percentile(std::move(medians), 50);
}

std::vector<int64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<int64_t, int64_t>>> children(
      spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0 || static_cast<size_t>(s.parent) >= spans.size()) {
      continue;
    }
    const Span& p = spans[static_cast<size_t>(s.parent)];
    const int64_t start = std::max(s.start_ns, p.start_ns);
    const int64_t end = std::min(s.end_ns, p.end_ns);
    if (end > start) {
      children[static_cast<size_t>(s.parent)].emplace_back(start, end);
    }
  }
  std::vector<int64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    int64_t covered = 0;
    int64_t run_start = 0, run_end = 0;
    bool open = false;
    for (const auto& [start, end] : kids) {
      if (open && start <= run_end) {
        run_end = std::max(run_end, end);
        continue;
      }
      if (open) covered += run_end - run_start;
      run_start = start;
      run_end = end;
      open = true;
    }
    if (open) covered += run_end - run_start;
    self[i] = std::max<int64_t>(0, spans[i].end_ns - spans[i].start_ns) -
              covered;
  }
  return self;
}

}  // namespace perfbench

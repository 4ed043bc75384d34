#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile (q in [0, 1]) of `v`; 0 for an empty sample.
/// Takes a copy: callers keep their samples in record order.
template <typename T>
double Percentile(std::vector<T> v, double q) {
  if (v.empty()) return 0.0;
  const size_t rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const size_t k = rank == 0 ? 0 : std::min(rank, v.size()) - 1;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return static_cast<double>(v[k]);
}

template <typename T>
double Median(const std::vector<T>& v) {
  return Percentile(v, 0.5);
}

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_

// A flat map over the 32-bit key space cut into elementary intervals.
//
// The key space [0, 2^32) is split at ascending `starts` (starts[0] == 0),
// and interval i, [starts[i], starts[i + 1]), holds values[i]. A lookup
// finds its interval with one branchless binary search: every step is a
// conditional move, so the search costs about log2(n) dependent loads
// and no mispredicted branches. Two contiguous arrays, no node
// container: the dst-prefix index of FlowTable and the src and dst
// stages of PathTable's per-inport classifier all sit on per-packet
// paths.
//
// Thread safety: a plain value. Concurrent `at` calls on a map nobody
// writes are race-free.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace veridp {

// veridp-lint: hot-path

template <class V>
struct IntervalMap {
  std::vector<std::uint32_t> starts;  ///< ascending; starts[0] == 0
  std::vector<V> values;              ///< one per interval

  [[nodiscard]] bool empty() const { return starts.empty(); }
  void clear() {
    starts.clear();
    values.clear();
  }

  /// The value of the interval holding `key`: the last start <= key.
  /// Requires a non-empty map.
  [[nodiscard]] const V& at(std::uint32_t key) const {
    const std::uint32_t* s = starts.data();
    for (std::size_t n = starts.size(); n > 1;) {
      const std::size_t half = n / 2;
      s = s[half] <= key ? s + half : s;  // a cmov, not a branch
      n -= half;
    }
    return values[static_cast<std::size_t>(s - starts.data())];
  }
};

}  // namespace veridp

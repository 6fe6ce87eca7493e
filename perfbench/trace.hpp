// In-memory span recorder for the traced benchmark run.
//
// A span marks one call (or one batch of calls) into a layer, timed from
// outside the layer: name, start, end, the span that caused it and the
// round it belongs to. Spans stay in memory while the workload runs and
// are written out as JSON at exit. A layer's self time is its spans'
// durations minus the part covered by their child spans.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace veridp::perfbench {

struct Span {
  const char* name = "";
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index of the enclosing span, -1 = root
  std::uint32_t round = 0;   ///< shared by every span of one round
  std::uint64_t items = 0;   ///< work items the span covered (reports, ...)
};

/// Per-layer totals derived from the recorded spans.
struct LayerTime {
  std::uint64_t spans = 0;
  std::uint64_t items = 0;
  std::uint64_t total_ns = 0;
  std::uint64_t self_ns = 0;
};

class Tracer {
 public:
  /// Recording is off until enabled; open() then returns -1 and close()
  /// ignores it, so untraced rounds pay only a branch.
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] bool enabled() const { return enabled_; }

  /// Opens a span starting at `start_ns`; returns its id (or -1).
  std::int32_t open(const char* name, std::int32_t parent,
                    std::uint32_t round, std::uint64_t start_ns);
  /// Closes span `id` at `end_ns` with `items` units of work.
  void close(std::int32_t id, std::uint64_t end_ns, std::uint64_t items);

  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  /// Totals and self time per span name.
  [[nodiscard]] std::map<std::string, LayerTime> layers() const;
  /// Writes every span as a JSON array; false if the file cannot be
  /// written.
  [[nodiscard]] bool write_json(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
};

}  // namespace veridp::perfbench

#include "dataplane/sampler.hpp"

#include <limits>

namespace veridp {

bool FlowSampler::sample(const PacketHeader& flow, double t) {
  double interval = default_interval_;
  if (auto it = intervals_.find(flow); it != intervals_.end())
    interval = it->second;

  auto [it, inserted] =
      last_.try_emplace(flow, -std::numeric_limits<double>::infinity());
  // The paper's rule is "sample when more than `interval` has passed".
  // Sample-everything mode (interval 0) must also catch back-to-back
  // packets with equal timestamps, so interval 0 samples unconditionally.
  const bool due = interval == 0.0 ? true : (t - it->second > interval);
  if (due) it->second = t;
  return due;
}

bool ArrayFlowSampler::sample(const PacketHeader& flow, double t) {
  Slot* lru = nullptr;
  for (Slot& s : slots_) {
    if (s.used && s.flow == flow) {
      s.last_hit = t;
      const bool due = interval_ == 0.0 ? true : (t - s.last_sampled > interval_);
      if (due) s.last_sampled = t;
      return due;
    }
    if (!s.used) {
      if (!lru || lru->used) lru = &s;
    } else if (!lru || (lru->used && s.last_hit < lru->last_hit)) {
      lru = &s;
    }
  }
  if (slots_.empty()) return true;  // stateless fallback: sample everything
  // Install the flow in the chosen slot (free slot preferred, else evict
  // the least-recently-hit flow) and sample its first packet.
  lru->used = true;
  lru->flow = flow;
  lru->last_sampled = t;
  lru->last_hit = t;
  return true;
}

std::size_t ArrayFlowSampler::occupied() const {
  std::size_t n = 0;
  for (const Slot& s : slots_)
    if (s.used) ++n;
  return n;
}

}  // namespace veridp

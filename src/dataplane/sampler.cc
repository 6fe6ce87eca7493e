#include "dataplane/sampler.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <limits>

namespace veridp {

// veridp-lint: hot-path

bool FlowSampler::sample(const PacketHeader& flow, double t) {
  double interval = default_interval_;
  if (!intervals_.empty())
    if (auto it = intervals_.find(flow); it != intervals_.end())
      interval = it->second;

  double& last = last_sampled(flow);
  // The paper's rule is "sample when more than `interval` has passed".
  // Sample-everything mode (interval 0) must also catch back-to-back
  // packets with equal timestamps, so interval 0 samples unconditionally.
  const bool due = interval == 0.0 ? true : (t - last > interval);
  if (due) last = t;
  return due;
}

void FlowSampler::clear() {
  for (Slot& s : slots_) s.used = false;
  size_ = 0;
}

std::size_t FlowSampler::home(const PacketHeader& flow) const {
  // Multiplicative hashing: the top bits of each product depend on every
  // bit of its word.
  const auto w = flow.bits_packed();
  const std::uint64_t h =
      w[0] * 0x9e3779b97f4a7c15ULL + w[1] * 0xc2b2ae3d27d4eb4fULL;
  return static_cast<std::size_t>(h >> shift_);
}

double& FlowSampler::last_sampled(const PacketHeader& flow) {
  // Growing before the probe keeps the load at most one half even if the
  // flow is new, so the probe ends at the flow or at a free slot.
  if (2 * (size_ + 1) > slots_.size()) grow();
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home(flow);
  for (; slots_[i].used; i = (i + 1) & mask)
    if (slots_[i].flow == flow) return slots_[i].last;
  ++size_;
  slots_[i] = Slot{flow, true, -std::numeric_limits<double>::infinity()};
  return slots_[i].last;
}

void FlowSampler::grow() {
  std::vector<Slot> old(std::max<std::size_t>(16, 2 * slots_.size()));
  old.swap(slots_);
  shift_ = 64 - std::countr_zero(slots_.size());
  const std::size_t mask = slots_.size() - 1;
  for (const Slot& s : old) {
    if (!s.used) continue;
    std::size_t i = home(s.flow);
    while (slots_[i].used) i = (i + 1) & mask;
    slots_[i] = s;
  }
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

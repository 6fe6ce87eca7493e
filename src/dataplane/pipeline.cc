#include "dataplane/pipeline.hpp"

#include <cassert>

namespace veridp {

// veridp-lint: hot-path

std::uint16_t encode_inport(PortKey p) {
  assert(p.sw < 256 && p.port >= 1 && p.port < 64);
  return static_cast<std::uint16_t>((p.sw << 6) | p.port);
}

PortKey decode_inport(std::uint16_t id) {
  return PortKey{static_cast<SwitchId>((id >> 6) & 0xff),
                 static_cast<PortId>(id & 0x3f)};
}

std::optional<TagReport> VeriDpPipeline::process(Packet& p,
                                                 const PacketHeader& arrival,
                                                 PortId x, PortId y,
                                                 bool x_is_edge,
                                                 bool y_is_edge, double t) {
  // Algorithm 1, lines 1-3: entry-switch initialization (+ §4.5 sampling —
  // only packets the entry switch samples carry the marker at all).
  if (x_is_edge) {
    if (sampler_.sample(arrival, t)) {
      p.marker = true;
      p.tag = BloomTag(tag_bits_);
      p.ttl = kMaxPathLength;
      p.entry = PortKey{sw_, x};
      p.epoch = epoch_;  // the config epoch the packet was sampled under
      ++sampled_;
    } else {
      p.marker = false;
    }
  }

  if (!p.marker) return std::nullopt;  // unsampled packets are untouched

  // Lines 4-5: tag update and TTL decrement.
  p.tag.insert(Hop{x, sw_, y});
  p.ttl -= 1;

  // Lines 6-7: report at exit/drop/TTL-expiry. The exit switch would also
  // pop the shim here; we leave the fields in place for inspection.
  if (y_is_edge || y == kDropPort || p.ttl == 0) {
    ++reports_;
    return TagReport{p.entry, PortKey{sw_, y}, p.header, p.tag,
                     p.epoch, next_seq_++};
  }
  return std::nullopt;
}

}  // namespace veridp

#include "flow/match.hpp"

namespace veridp {

bool Match::matches(const PacketHeader& h) const {
  if (!src.contains(h.src_ip)) return false;
  if (!dst.contains(h.dst_ip)) return false;
  if (proto && *proto != h.proto) return false;
  if (src_port && *src_port != h.src_port) return false;
  if (dst_port && *dst_port != h.dst_port) return false;
  return true;
}

HeaderSet Match::to_header_set(const HeaderSpace& space) const {
  HeaderSet s = space.all();
  if (src.len > 0) s &= space.ip_prefix(Field::SrcIp, src);
  if (dst.len > 0) s &= space.ip_prefix(Field::DstIp, dst);
  if (proto) s &= space.field_eq(Field::Proto, *proto);
  if (src_port) s &= space.field_eq(Field::SrcPort, *src_port);
  if (dst_port) s &= space.field_eq(Field::DstPort, *dst_port);
  return s;
}

std::string Match::str() const {
  // Appends only: GCC 12 at -O3 warns falsely (-Wrestrict) on
  // `"key=" + std::to_string(x)` and on assigning a literal here.
  std::string out;
  auto append = [&out](const char* key, const std::string& value) {
    if (!out.empty()) out += ", ";
    out += key;
    out += value;
  };
  if (src.len > 0) append("src=", to_string(src));
  if (dst.len > 0) append("dst=", to_string(dst));
  if (proto) append("proto=", std::to_string(*proto));
  if (src_port) append("sport=", std::to_string(*src_port));
  if (dst_port) append("dport=", std::to_string(*dst_port));
  if (in_port) append("in_port=", std::to_string(*in_port));
  if (out.empty()) out += '*';
  return out;
}

}  // namespace veridp

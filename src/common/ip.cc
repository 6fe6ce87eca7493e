#include "common/ip.hpp"

#include <charconv>
#include <cstdio>

#include "common/str_cat.hpp"
#include "common/types.hpp"

namespace veridp {

namespace {

// Parses one decimal component in [0, bound]; advances `pos` past it.
std::optional<std::uint32_t> parse_component(const std::string& s,
                                             std::size_t& pos,
                                             std::uint32_t bound) {
  const char* begin = s.data() + pos;
  const char* end = s.data() + s.size();
  std::uint32_t value = 0;
  auto [ptr, ec] = std::from_chars(begin, end, value);
  if (ec != std::errc{} || ptr == begin || value > bound) return std::nullopt;
  pos += static_cast<std::size_t>(ptr - begin);
  return value;
}

}  // namespace

std::optional<Ipv4> parse_ipv4(const std::string& s) {
  std::size_t pos = 0;
  std::uint32_t out = 0;
  for (int i = 0; i < 4; ++i) {
    if (i > 0) {
      if (pos >= s.size() || s[pos] != '.') return std::nullopt;
      ++pos;
    }
    auto c = parse_component(s, pos, 255);
    if (!c) return std::nullopt;
    out = (out << 8) | *c;
  }
  if (pos != s.size()) return std::nullopt;
  return Ipv4{out};
}

std::string to_string(Ipv4 ip) {
  char buf[16];
  std::snprintf(buf, sizeof buf, "%u.%u.%u.%u", (ip.value >> 24) & 0xff,
                (ip.value >> 16) & 0xff, (ip.value >> 8) & 0xff,
                ip.value & 0xff);
  return buf;
}

std::string to_string(const Prefix& p) {
  return to_string(Ipv4{p.addr}) + "/" + std::to_string(p.len);
}

std::string to_string(const PortKey& p) {
  if (p.port == kDropPort) return str_cat("<S", std::to_string(p.sw), ", _|_>");
  return str_cat("<S", std::to_string(p.sw), ", ", std::to_string(p.port),
                 ">");
}

std::string to_string(const Hop& h) {
  const std::string out =
      str_cat("<", std::to_string(h.in), ", S", std::to_string(h.sw));
  if (h.out == kDropPort) return str_cat(out, ", _|_>");
  return str_cat(out, ", ", std::to_string(h.out), ">");
}

}  // namespace veridp

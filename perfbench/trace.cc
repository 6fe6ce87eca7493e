#include "trace.hpp"

#include <cstdio>

namespace veridp::perfbench {

std::int32_t Tracer::open(const char* name, std::int32_t parent,
                          std::uint32_t round, std::uint64_t start_ns) {
  if (!enabled_) return -1;
  spans_.push_back(Span{name, start_ns, start_ns, parent, round, 0});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

void Tracer::close(std::int32_t id, std::uint64_t end_ns,
                   std::uint64_t items) {
  if (id < 0) return;
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_ns = end_ns;
  s.items = items;
}

std::map<std::string, LayerTime> Tracer::layers() const {
  // Children of one span never overlap (one producer thread), so the
  // covered part of a parent is the sum of its children's durations.
  std::vector<std::uint64_t> child_ns(spans_.size(), 0);
  for (const Span& s : spans_)
    if (s.parent >= 0)
      child_ns[static_cast<std::size_t>(s.parent)] += s.end_ns - s.start_ns;
  std::map<std::string, LayerTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    LayerTime& l = out[s.name];
    const std::uint64_t dur = s.end_ns - s.start_ns;
    ++l.spans;
    l.items += s.items;
    l.total_ns += dur;
    l.self_ns += dur - child_ns[i];
  }
  return out;
}

bool Tracer::write_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("[\n", f);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%llu,"
                 "\"end_ns\":%llu,\"parent\":%d,\"round\":%u,\"items\":%llu}%s\n",
                 i, s.name, static_cast<unsigned long long>(s.start_ns),
                 static_cast<unsigned long long>(s.end_ns), s.parent, s.round,
                 static_cast<unsigned long long>(s.items),
                 i + 1 < spans_.size() ? "," : "");
  }
  std::fputs("]\n", f);
  return std::fclose(f) == 0;
}

}  // namespace veridp::perfbench

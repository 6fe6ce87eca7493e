#include "veridp/path_table.hpp"

#include <algorithm>

namespace veridp {

void PathTable::add_path(PortKey inport, PortKey outport, HeaderSet headers,
                         std::vector<Hop> path, BloomTag tag) {
  EntryList& list = table_[inport][outport];
  for (PathEntry& e : list) {
    if (e.path == path) {
      e.headers |= headers;
      return;
    }
  }
  list.push_back(PathEntry{std::move(headers), std::move(path), tag});
}

const PathTable::EntryList* PathTable::lookup(PortKey inport,
                                              PortKey outport) const {
  auto it = table_.find(inport);
  if (it == table_.end()) return nullptr;
  auto jt = it->second.find(outport);
  if (jt == it->second.end()) return nullptr;
  return &jt->second;
}


bool PathTable::remove_path(PortKey inport, PortKey outport,
                            const std::vector<Hop>& path) {
  auto it = table_.find(inport);
  if (it == table_.end()) return false;
  auto jt = it->second.find(outport);
  if (jt == it->second.end()) return false;
  EntryList& list = jt->second;
  auto kt = std::find_if(list.begin(), list.end(),
                         [&path](const PathEntry& e) { return e.path == path; });
  if (kt == list.end()) return false;
  list.erase(kt);
  if (list.empty()) it->second.erase(jt);
  if (it->second.empty()) table_.erase(it);
  return true;
}

PathTableStats PathTable::stats() const {
  PathTableStats s;
  std::size_t total_hops = 0;
  for (const auto& [in, by_out] : table_) {
    (void)in;
    s.num_pairs += by_out.size();
    for (const auto& [out, list] : by_out) {
      (void)out;
      s.num_paths += list.size();
      for (const PathEntry& e : list) total_hops += e.path.size();
    }
  }
  s.avg_path_length =
      s.num_paths == 0
          ? 0.0
          : static_cast<double>(total_hops) / static_cast<double>(s.num_paths);
  return s;
}

void PathTable::for_each(
    const std::function<void(PortKey, PortKey, const PathEntry&)>& fn) const {
  for (const auto& [in, by_out] : table_)
    for (const auto& [out, list] : by_out)
      for (const PathEntry& e : list) fn(in, out, e);
}

std::vector<PortKey> PathTable::outports(PortKey inport) const {
  std::vector<PortKey> out;
  auto it = table_.find(inport);
  if (it == table_.end()) return out;
  out.reserve(it->second.size());
  for (const auto& [o, list] : it->second) {
    (void)list;
    out.push_back(o);
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool PathTable::disjoint_headers() const {
  for (const auto& [in, by_out] : table_) {
    (void)in;
    for (const auto& [out, list] : by_out) {
      (void)out;
      for (std::size_t i = 0; i < list.size(); ++i)
        for (std::size_t j = i + 1; j < list.size(); ++j)
          if (!(list[i].headers & list[j].headers).empty()) return false;
    }
  }
  return true;
}

namespace {

// Canonical sort key inside an entry list: by hop sequence.
bool path_less(const PathEntry& a, const PathEntry& b) {
  return a.path < b.path;
}

}  // namespace

bool equivalent(const PathTable& a, const PathTable& b) {
  // Collect both sides into comparable (in, out, sorted entries) maps.
  struct Triple {
    PortKey in, out;
    const PathEntry* entry;
  };
  auto collect = [](const PathTable& t) {
    std::vector<Triple> v;
    t.for_each([&v](PortKey in, PortKey out, const PathEntry& e) {
      v.push_back({in, out, &e});
    });
    std::sort(v.begin(), v.end(), [](const Triple& x, const Triple& y) {
      if (x.in != y.in) return x.in < y.in;
      if (x.out != y.out) return x.out < y.out;
      return path_less(*x.entry, *y.entry);
    });
    return v;
  };
  const auto va = collect(a);
  const auto vb = collect(b);
  if (va.size() != vb.size()) return false;
  for (std::size_t i = 0; i < va.size(); ++i) {
    if (va[i].in != vb[i].in || va[i].out != vb[i].out) return false;
    const PathEntry& x = *va[i].entry;
    const PathEntry& y = *vb[i].entry;
    if (x.path != y.path || x.tag != y.tag) return false;
    if (!(x.headers == y.headers)) return false;  // same HeaderSpace: O(1)
  }
  return true;
}

}  // namespace veridp

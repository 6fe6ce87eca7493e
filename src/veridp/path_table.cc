#include "veridp/path_table.hpp"

#include <algorithm>
#include <memory>
#include <optional>

#include "bdd/bdd.hpp"
#include "header/fields.hpp"

namespace veridp {

namespace {

/// An inport whose dst sets split into more intervals than this keeps
/// the BDD walk: the classifier's size stays bounded even for a set the
/// walk would expand into millions of pieces (say, every odd address).
constexpr std::size_t kMaxIntervals = std::size_t{1} << 16;

constexpr int kDstVar = kFieldOffset[static_cast<std::size_t>(Field::DstIp)];

/// A dst interval [lo, hi] of one entry.
struct Piece {
  std::uint32_t lo;
  std::uint32_t hi;
  DstClass cls;
};

/// Appends the dst intervals of `a` to `out`, in ascending order and
/// merged where they touch, given that dst bits [0, depth) are fixed to
/// `addr`'s. One read-only walk; false if a node tests a variable outside
/// dst IP or the inport passes kMaxIntervals.
bool dst_pieces(const BddManager& m, BddRef a, int depth, std::uint32_t addr,
                const DstClass& cls, std::vector<Piece>& out) {
  if (a == kBddFalse) return true;
  if (a == kBddTrue) {
    const std::uint32_t hi = addr | (depth == 32 ? 0u : ~0u >> depth);
    if (!out.empty() && out.back().cls.entry == cls.entry &&
        out.back().hi + 1 == addr) {
      out.back().hi = hi;
      return true;
    }
    if (out.size() == kMaxIntervals) return false;
    out.push_back(Piece{addr, hi, cls});
    return true;
  }
  const int bit = m.top_var(a) - kDstVar;
  if (bit < depth || bit >= 32) return false;  // not a dst-IP test
  // Bit `depth` is the node's own test, or a bit the BDD skips (free):
  // then both halves continue at the same node.
  const BddRef lo = bit == depth ? m.low_of(a) : a;
  const BddRef hi = bit == depth ? m.high_of(a) : a;
  return dst_pieces(m, lo, depth + 1, addr, cls, out) &&
         dst_pieces(m, hi, depth + 1, addr | 1u << (31 - depth), cls, out);
}

/// The slot value of an inport found unclassifiable: the kernel tells it
/// from a classifier by address, without loading either.
const PathTable::DstClassifier kUnclassifiable;

/// The inport's classifier, or nullopt if some entry tests a bit other
/// than dst IP or two entries' dst sets overlap.
std::optional<PathTable::DstClassifier> classify(
    const std::unordered_map<PortKey, PathTable::EntryList>& by_out) {
  std::vector<Piece> pieces;
  for (const auto& [out, list] : by_out) {
    for (const PathEntry& e : list) {
      const BddManager* m = e.headers.manager();
      if (m == nullptr) continue;  // contains nothing: no interval
      if (!dst_pieces(*m, e.headers.ref(), 0, 0, DstClass{&e, out, e.tag},
                      pieces))
        return std::nullopt;
    }
  }
  std::sort(pieces.begin(), pieces.end(),
            [](const Piece& x, const Piece& y) { return x.lo < y.lo; });
  PathTable::DstClassifier c;
  c.starts.push_back(0);
  c.values.push_back(DstClass{});
  for (std::size_t i = 0; i < pieces.size(); ++i) {
    const Piece& p = pieces[i];
    if (i > 0 && p.lo <= pieces[i - 1].hi) return std::nullopt;  // overlap
    if (p.lo == c.starts.back()) {
      c.values.back() = p.cls;  // the gap before it is empty
    } else {
      c.starts.push_back(p.lo);
      c.values.push_back(p.cls);
    }
    if (p.hi != ~0u) {
      c.starts.push_back(p.hi + 1);
      c.values.push_back(DstClass{});
    }
  }
  c.starts.shrink_to_fit();  // it lives as long as the table
  c.values.shrink_to_fit();
  return c;
}

}  // namespace

void PathTable::Inport::drop_classifier() {
  const DstClassifier* c =
      classifier.exchange(nullptr, std::memory_order_acq_rel);
  if (c != &kUnclassifiable) delete c;
}

PathTable::InportView PathTable::inport(PortKey inport) const {
  auto it = table_.find(inport);
  return InportView(it == table_.end() ? nullptr : &it->second);
}

const PathTable::EntryList* PathTable::InportView::lookup(
    PortKey outport) const {
  if (in_ == nullptr) return nullptr;
  auto it = in_->by_out.find(outport);
  return it == in_->by_out.end() ? nullptr : &it->second;
}

const PathTable::DstClassifier* PathTable::InportView::classifier() const {
  if (in_ == nullptr) return nullptr;
  const DstClassifier* c = in_->classifier.load(std::memory_order_acquire);
  if (c == nullptr) {
    std::optional<DstClassifier> built = classify(in_->by_out);
    std::unique_ptr<const DstClassifier> owned;
    if (built) owned = std::make_unique<const DstClassifier>(std::move(*built));
    const DstClassifier* mine = owned ? owned.get() : &kUnclassifiable;
    // Installed, or c is now the winner's and `owned` frees this copy.
    if (in_->classifier.compare_exchange_strong(c, mine,
                                                std::memory_order_release,
                                                std::memory_order_acquire)) {
      c = mine;
      (void)owned.release();
    }
  }
  return c == &kUnclassifiable ? nullptr : c;
}

std::size_t PathTable::classifiers_built() const {
  std::size_t n = 0;
  for (const auto& [in, entry] : table_) {
    (void)in;
    if (entry.classifier.load(std::memory_order_acquire) != nullptr) ++n;
  }
  return n;
}

void PathTable::add_path(PortKey inport, PortKey outport, HeaderSet headers,
                         std::vector<Hop> path, BloomTag tag) {
  Inport& in = table_[inport];
  in.drop_classifier();
  EntryList& list = in.by_out[outport];
  for (PathEntry& e : list) {
    if (e.path == path) {
      e.headers |= headers;
      return;
    }
  }
  list.push_back(PathEntry{std::move(headers), std::move(path), tag});
}

bool PathTable::remove_path(PortKey inport, PortKey outport,
                            const std::vector<Hop>& path) {
  auto it = table_.find(inport);
  if (it == table_.end()) return false;
  auto jt = it->second.by_out.find(outport);
  if (jt == it->second.by_out.end()) return false;
  EntryList& list = jt->second;
  auto kt = std::find_if(list.begin(), list.end(),
                         [&path](const PathEntry& e) { return e.path == path; });
  if (kt == list.end()) return false;
  it->second.drop_classifier();
  list.erase(kt);
  if (list.empty()) it->second.by_out.erase(jt);
  if (it->second.by_out.empty()) table_.erase(it);
  return true;
}

bool PathTable::subtract_headers(PortKey inport, PortKey outport,
                                 const std::vector<Hop>& path,
                                 const HeaderSet& headers) {
  auto it = table_.find(inport);
  if (it == table_.end()) return false;
  auto jt = it->second.by_out.find(outport);
  if (jt == it->second.by_out.end()) return false;
  for (PathEntry& e : jt->second) {
    if (e.path != path) continue;
    it->second.drop_classifier();
    e.headers -= headers;
    if (!e.headers.empty()) return true;
    remove_path(inport, outport, path);
    return false;
  }
  return false;
}

PathTableStats PathTable::stats() const {
  PathTableStats s;
  std::size_t total_hops = 0;
  for (const auto& [in, entry] : table_) {
    (void)in;
    s.num_pairs += entry.by_out.size();
    for (const auto& [out, list] : entry.by_out) {
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
  for (const auto& [in, entry] : table_)
    for (const auto& [out, list] : entry.by_out)
      for (const PathEntry& e : list) fn(in, out, e);
}

std::vector<PortKey> PathTable::outports(PortKey inport) const {
  std::vector<PortKey> out;
  auto it = table_.find(inport);
  if (it == table_.end()) return out;
  out.reserve(it->second.by_out.size());
  for (const auto& [o, list] : it->second.by_out) {
    (void)list;
    out.push_back(o);
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool PathTable::disjoint_headers() const {
  for (const auto& [in, entry] : table_) {
    (void)in;
    for (const auto& [out, list] : entry.by_out) {
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

#include "veridp/path_table.hpp"

#include <algorithm>
#include <map>
#include <memory>
#include <optional>

#include "bdd/bdd.hpp"
#include "header/fields.hpp"

namespace veridp {

namespace {

/// An inport whose entries cut its src field and its classes' dst fields
/// into more pieces than this keeps the BDD walk: the classifier's size
/// stays bounded even for a set the walk would expand into millions of
/// pieces (say, every odd address).
constexpr std::size_t kMaxPieces = std::size_t{1} << 16;

constexpr int kSrcVar = kFieldOffset[static_cast<std::size_t>(Field::SrcIp)];
constexpr int kDstVar = kFieldOffset[static_cast<std::size_t>(Field::DstIp)];

/// An address range [lo, hi] of one field on which live entry `e`
/// reaches FieldCut::reached[at]: a node that tests no bit of the field.
struct Piece {
  std::uint32_t lo;
  std::uint32_t hi;
  std::uint32_t e;
  std::uint32_t at;
};

/// Cuts one 32-bit field into intervals for a list of live entries, each
/// (its index, the node it has reached), given in entry order. Each
/// entry's node is walked down the field's bits, MSB first, to the
/// pieces where it tests no bit of the field any more; a sweep over the
/// sorted pieces then cuts the field into intervals, each with the list
/// of entries live on it and the node each reaches there, in entry
/// order. Adjacent intervals have different lists. Read-only BDD walks
/// (top_var, low_of, high_of).
struct FieldCut {
  const BddManager& m;
  int first_var;
  std::size_t& budget;  ///< pieces left before the cap
  std::vector<BddRef> reached;
  std::vector<Piece> pieces;
  std::vector<Piece> active;
  // Output: interval i starts at starts[i]; its live list is
  // [begin[i], begin[i + 1]) of out_ents/out_nodes.
  std::vector<std::uint32_t> starts;
  std::vector<std::uint32_t> begin;
  std::vector<std::uint32_t> out_ents;
  std::vector<BddRef> out_nodes;

  FieldCut(const BddManager& mgr, int var, std::size_t& left)
      : m(mgr), first_var(var), budget(left) {}

  /// Cuts the field for entries `ents` at `nodes` (none FALSE); false if
  /// over the budget.
  bool run(const std::uint32_t* ents, const BddRef* nodes, std::size_t n) {
    if (std::none_of(nodes, nodes + n, [this](BddRef a) {
          return a > kBddTrue && m.top_var(a) < first_var + 32;
        })) {
      // No node tests the field (a dst-only inport's src): one interval.
      starts.assign(1, 0);
      begin.assign({0, static_cast<std::uint32_t>(n)});
      out_ents.assign(ents, ents + n);
      out_nodes.assign(nodes, nodes + n);
      return true;
    }
    reached.clear();
    pieces.clear();
    for (std::size_t k = 0; k < n; ++k)
      if (!walk(ents[k], nodes[k], 0, 0)) return false;
    std::sort(pieces.begin(), pieces.end(),
              [](const Piece& x, const Piece& y) {
                return x.lo != y.lo ? x.lo < y.lo : x.e < y.e;
              });
    sweep();
    return true;
  }

  /// Appends the pieces of entry `e` at node `a`, given that the field's
  /// bits [0, depth) are fixed to `addr`'s.
  bool walk(std::uint32_t e, BddRef a, int depth, std::uint32_t addr) {
    if (a == kBddFalse) return true;
    const int bit = a == kBddTrue ? 32 : m.top_var(a) - first_var;
    if (bit >= 32) {
      const std::uint32_t hi = addr | (depth == 32 ? 0u : ~0u >> depth);
      if (!pieces.empty() && pieces.back().e == e &&
          reached[pieces.back().at] == a && pieces.back().hi + 1 == addr) {
        pieces.back().hi = hi;
        return true;
      }
      if (budget == 0) return false;
      --budget;
      pieces.push_back(Piece{addr, hi, e,
                             static_cast<std::uint32_t>(reached.size())});
      reached.push_back(a);
      return true;
    }
    // Bit `depth` is the node's own test, or a bit it skips (free): then
    // both halves continue at the same node.
    const BddRef lo = bit == depth ? m.low_of(a) : a;
    const BddRef hi = bit == depth ? m.high_of(a) : a;
    return walk(e, lo, depth + 1, addr) &&
           walk(e, hi, depth + 1, addr | 1u << (31 - depth));
  }

  /// Cuts the field at every piece's ends; each interval lists the
  /// pieces covering it.
  void sweep() {
    starts.clear();
    begin.clear();
    out_ents.clear();
    out_nodes.clear();
    active.clear();
    std::size_t i = 0;
    std::uint64_t pos = 0;
    while (pos <= ~0u) {
      std::erase_if(active, [pos](const Piece& p) { return p.hi < pos; });
      for (; i < pieces.size() && pieces[i].lo == pos; ++i)
        active.insert(std::upper_bound(active.begin(), active.end(),
                                       pieces[i],
                                       [](const Piece& x, const Piece& y) {
                                         return x.e < y.e;
                                       }),
                      pieces[i]);
      std::uint64_t next = i < pieces.size() ? pieces[i].lo : 1ull << 32;
      for (const Piece& p : active)
        next = std::min<std::uint64_t>(next, std::uint64_t{p.hi} + 1);
      emit(static_cast<std::uint32_t>(pos));
      pos = next;
    }
    begin.push_back(static_cast<std::uint32_t>(out_ents.size()));
  }

  /// Starts an interval at `addr` with the active pieces, unless the
  /// last interval has the same list and extends over it.
  void emit(std::uint32_t addr) {
    if (!starts.empty()) {
      const std::size_t b = begin.back();
      bool same = out_ents.size() - b == active.size();
      for (std::size_t k = 0; same && k < active.size(); ++k)
        same = out_ents[b + k] == active[k].e &&
               out_nodes[b + k] == reached[active[k].at];
      if (same) return;
    }
    starts.push_back(addr);
    begin.push_back(static_cast<std::uint32_t>(out_ents.size()));
    for (const Piece& p : active) {
      out_ents.push_back(p.e);
      out_nodes.push_back(reached[p.at]);
    }
  }
};

/// The slot value of an inport found unclassifiable: the kernel tells it
/// from a classifier by address, without loading either.
const InportClassifier kUnclassifiable;

/// The inport's classifier, or nullopt if its entries span two BDD
/// arenas or cut its fields into more than kMaxPieces pieces.
std::optional<InportClassifier> classify(
    const std::unordered_map<PortKey, PathTable::EntryList>& by_out) {
  InportClassifier c;
  // The inport's entries as candidates, numbered in pair-list order
  // within each outport: a class's lists keep this order, so a verdict
  // walks same-outport candidates as verify_report walks the pair list.
  std::vector<IntervalCandidate> entries;
  for (const auto& [out, list] : by_out) {
    for (const PathEntry& e : list) {
      const BddManager* m = e.headers.manager();
      if (m == nullptr) continue;  // contains nothing: no candidate
      if (c.mgr == nullptr) c.mgr = m;
      if (m != c.mgr) return std::nullopt;
      if (e.headers.ref() == kBddFalse) continue;
      entries.push_back(IntervalCandidate{&e, out, e.tag, 0, 0});
    }
  }
  c.residuals.push_back(kBddTrue);  // index 0: no test
  if (c.mgr == nullptr) {           // no entry holds a header: one gap
    c.classes.emplace_back();
    c.classes.back().starts.push_back(0);
    c.classes.back().values.emplace_back();
    return c;
  }
  std::size_t budget = kMaxPieces;

  // Stage 1: src intervals, each ending at one dst-level node per entry.
  std::vector<std::uint32_t> ids(entries.size());
  std::vector<BddRef> roots(entries.size());
  for (std::size_t k = 0; k < entries.size(); ++k) {
    ids[k] = static_cast<std::uint32_t>(k);
    roots[k] = entries[k].entry->headers.ref();
  }
  FieldCut src(*c.mgr, kSrcVar, budget);
  if (!src.run(ids.data(), roots.data(), ids.size())) return std::nullopt;
  // Intervals with the same live list form one class. Adjacent
  // intervals differ, so one interval means one class and no src stage.
  std::vector<std::uint32_t> first_of_class;  // a src interval of each
  if (src.starts.size() == 1) {
    first_of_class.push_back(0);
  } else {
    std::map<std::vector<std::uint64_t>, std::uint32_t> class_of;
    for (std::size_t i = 0; i < src.starts.size(); ++i) {
      std::vector<std::uint64_t> key;
      for (std::uint32_t j = src.begin[i]; j < src.begin[i + 1]; ++j)
        key.push_back(std::uint64_t{src.out_ents[j]} << 32 |
                      static_cast<std::uint32_t>(src.out_nodes[j]));
      const auto [it, fresh] = class_of.emplace(
          std::move(key), static_cast<std::uint32_t>(first_of_class.size()));
      if (fresh) first_of_class.push_back(static_cast<std::uint32_t>(i));
      c.src.starts.push_back(src.starts[i]);
      c.src.values.push_back(it->second);
    }
  }

  // Stage 2: per class, dst intervals, each ending at one residual per
  // live entry.
  std::unordered_map<BddRef, std::uint32_t> residual_index;
  const auto residual = [&](BddRef n) {
    if (n == kBddTrue) return std::uint32_t{0};
    const auto [it, fresh] = residual_index.emplace(
        n, static_cast<std::uint32_t>(c.residuals.size()));
    if (fresh) c.residuals.push_back(n);
    return it->second;
  };
  c.overflow.emplace_back();  // index 0: no next candidate
  FieldCut dst(*c.mgr, kDstVar, budget);
  for (const std::uint32_t i : first_of_class) {
    if (!dst.run(&src.out_ents[src.begin[i]], &src.out_nodes[src.begin[i]],
                 src.begin[i + 1] - src.begin[i]))
      return std::nullopt;
    IntervalMap<IntervalCandidate>& map = c.classes.emplace_back();
    map.values.resize(dst.starts.size());
    for (std::size_t k = 0; k < map.values.size(); ++k) {
      IntervalCandidate* tail = &map.values[k];
      for (std::uint32_t j = dst.begin[k]; j < dst.begin[k + 1]; ++j) {
        IntervalCandidate cand = entries[dst.out_ents[j]];
        cand.residual = residual(dst.out_nodes[j]);
        if (tail->entry == nullptr) {
          *tail = cand;
          continue;
        }
        tail->next = static_cast<std::uint32_t>(c.overflow.size());
        c.overflow.push_back(cand);
        tail = &c.overflow.back();
      }
    }
    map.starts = std::move(dst.starts);
    map.starts.shrink_to_fit();  // it lives as long as the table
  }
  c.overflow.shrink_to_fit();
  c.residuals.shrink_to_fit();
  return c;
}

}  // namespace

void PathTable::Inport::drop_classifier() {
  const InportClassifier* c =
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

const InportClassifier* PathTable::InportView::classifier() const {
  if (in_ == nullptr) return nullptr;
  const InportClassifier* c = in_->classifier.load(std::memory_order_acquire);
  if (c == nullptr) {
    std::optional<InportClassifier> built = classify(in_->by_out);
    std::unique_ptr<const InportClassifier> owned;
    if (built)
      owned = std::make_unique<const InportClassifier>(std::move(*built));
    const InportClassifier* mine = owned ? owned.get() : &kUnclassifiable;
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

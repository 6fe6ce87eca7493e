#include "veridp/report_batch.hpp"

namespace veridp {

std::size_t autotuned_batch_size() { return 256; }

void ReportBatch::clear() {
  inport.clear();
  outport.clear();
  header.clear();
  bits.clear();
  tag.clear();
  tag_width.clear();
  epoch.clear();
  seq.clear();
}

void ReportBatch::reserve(std::size_t n) {
  inport.reserve(n);
  outport.reserve(n);
  header.reserve(n);
  bits.reserve(n);
  tag.reserve(n);
  tag_width.reserve(n);
  epoch.reserve(n);
  seq.reserve(n);
}

void ReportBatch::push(const TagReport& r) {
  inport.push_back(r.inport);
  outport.push_back(r.outport);
  header.push_back(r.header);
  bits.push_back(r.header.bits_packed());
  tag.push_back(r.tag.value());
  tag_width.push_back(static_cast<std::uint8_t>(r.tag.bits()));
  epoch.push_back(r.epoch);
  seq.push_back(r.seq);
}

TagReport ReportBatch::report(std::size_t i) const {
  return TagReport{inport[i], outport[i], header[i],
                   BloomTag::from_raw(tag[i], tag_width[i]), epoch[i], seq[i]};
}

void ReportBatch::consume_prefix(std::size_t n) {
  if (n == 0) return;
  if (n >= size()) {
    clear();
    return;
  }
  const auto drop = [n](auto& col) {
    col.erase(col.begin(), col.begin() + static_cast<std::ptrdiff_t>(n));
  };
  drop(inport);
  drop(outport);
  drop(header);
  drop(bits);
  drop(tag);
  drop(tag_width);
  drop(epoch);
  drop(seq);
}

}  // namespace veridp

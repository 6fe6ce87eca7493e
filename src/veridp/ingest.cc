#include "veridp/ingest.hpp"

#include <algorithm>

#include "dataplane/wire.hpp"

namespace veridp {

ReportIngest::ReportIngest(Server& server, IngestConfig cfg)
    : server_(&server), cfg_(cfg), intake_(cfg.capacity, cfg.dedup_window) {
  cfg_.validate();
}

void ReportIngest::govern(AdmissionRegime regime,
                          std::uint32_t shed_modulus) {
  governed_ = true;
  if (shed_modulus != 0) cfg_.shed_modulus = shed_modulus;
  if (regime != regime_) {
    regime_ = regime;
    ++health_.regime_transitions;
  }
}

bool ReportIngest::offer(const std::vector<std::uint8_t>& datagram) {
  const auto report = wire::decode_report(datagram);
  if (report) return offer_report(*report);
  intake_.quarantine();
  return false;
}

bool ReportIngest::offer_report(const TagReport& report) {
  if (!intake_.offer(report.outport.sw, report.seq,
                     policy_for(admission_regime()), queue_.size(),
                     cfg_.shed_modulus))
    return false;
  queue_.push(report);
  return true;
}

std::size_t ReportIngest::process(std::size_t max) {
  const std::size_t batch = autotuned_batch_size();
  const std::uint64_t memo_hits0 = server_->memo_hits();
  verdicts_.resize(batch);
  std::size_t head = 0;  // verified prefix of the queue
  while (head < max && head < queue_.size()) {
    const std::size_t chunk =
        std::min({batch, max - head, queue_.size() - head});
    server_->verify_batch(queue_, head, chunk, verdicts_.data());
    for (std::size_t k = 0; k < chunk; ++k) {
      // Lanes account in arrival order. The TagReport is reassembled
      // only for the sink, never for a plain pass.
      const Verdict& v = verdicts_[k];
      if (verdict_sink_) verdict_sink_(queue_.report(head + k), v);
      health_.tally(v);
    }
    head += chunk;
  }
  queue_.consume_prefix(head);
  health_.memo_hits += server_->memo_hits() - memo_hits0;
  return head;
}

IngestHealth ReportIngest::health() const {
  IngestHealth h = health_;
  h.in_queue = queue_.size();
  h.regime = regime_;
  h.failsafe_events = server_->failsafe_events();
  h.snapshot_flips = server_->snapshot_flips();
  intake_.fold_into(h);
  return h;
}

}  // namespace veridp

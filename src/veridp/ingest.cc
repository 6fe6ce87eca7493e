#include "veridp/ingest.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "dataplane/wire.hpp"

namespace veridp {

namespace {

void require(bool ok, const char* what) {
  if (!ok)
    throw std::invalid_argument(std::string("IngestConfig: ") + what);
}

}  // namespace

void IngestConfig::validate() const {
  require(capacity > 0, "capacity must be positive");
  require(high_watermark < capacity,
          "high_watermark must be below capacity (shedding must engage "
          "before the hard bound)");
  require(shed_modulus != 0, "shed_modulus must be non-zero");
}

ReportIngest::ReportIngest(Server& server, IngestConfig cfg)
    : server_(&server), cfg_(cfg) {
  cfg_.validate();
}

bool ReportIngest::note_sequence(SwitchId sw, std::uint32_t seq) {
  return seq_state_.try_emplace(sw, cfg_.dedup_window)
      .first->second.note(seq);
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

bool ReportIngest::admit(std::uint32_t seq) {
  if (admits(policy_for(admission_regime()), queue_.size(), cfg_.capacity,
             seq, cfg_.shed_modulus))
    return true;
  ++health_.shed;
  return false;
}

bool ReportIngest::offer(const std::vector<std::uint8_t>& datagram) {
  ++health_.received;
  auto report = wire::decode_report(datagram);
  if (!report) {
    ++health_.quarantined;
    quarantine_.push_back(datagram);
    if (quarantine_.size() > cfg_.quarantine_keep) quarantine_.pop_front();
    return false;
  }

  if (report->seq != 0 &&
      !note_sequence(report->outport.sw, report->seq)) {
    ++health_.deduped;
    return false;
  }

  if (!admit(report->seq)) return false;
  queue_.push(*report);
  return true;
}

bool ReportIngest::offer_report(const TagReport& report) {
  ++health_.received;
  if (report.seq != 0 && !note_sequence(report.outport.sw, report.seq)) {
    ++health_.deduped;
    return false;
  }
  if (!admit(report.seq)) return false;
  queue_.push(report);
  return true;
}

std::size_t ReportIngest::process(std::size_t max) {
  const std::size_t batch = resolve_batch_size(cfg_.batch_size);
  const std::uint64_t memo_hits0 = server_->memo_hits();
  std::size_t head = 0;  // verified prefix of the queue
  std::size_t n = 0;
  if (batch <= 1) {
    // Pre-batching scalar pipeline (batch_size == 1): one
    // Server::verify per report — the differential baseline.
    while (n < max && head < queue_.size()) {
      const TagReport report = queue_.report(head++);
      account(report, server_->verify(report));
      ++n;
    }
  } else {
    verdicts_.resize(batch);
    while (n < max && head < queue_.size()) {
      const std::size_t chunk =
          std::min({batch, max - n, queue_.size() - head});
      server_->verify_batch(queue_, head, chunk, verdicts_.data());
      for (std::size_t k = 0; k < chunk; ++k) {
        // Lanes account in arrival order, exactly like the scalar loop;
        // the TagReport is only reassembled for the cold consumers
        // (sink, failure retention), never for a plain pass.
        const Verdict& v = verdicts_[k];
        if (verdict_sink_) {
          account(queue_.report(head + k), v);
        } else if (v.ok()) {
          ++health_.passed;
        } else if (v.status == VerifyStatus::kStaleEpoch) {
          ++health_.stale;
        } else {
          ++health_.failed;
          failures_.push_back(queue_.report(head + k));
          if (failures_.size() > cfg_.failure_keep) failures_.pop_front();
        }
      }
      head += chunk;
      n += chunk;
    }
  }
  queue_.consume_prefix(head);
  health_.verified += n;
  health_.memo_hits += server_->memo_hits() - memo_hits0;
  return n;
}

void ReportIngest::account(const TagReport& report, const Verdict& v) {
  if (verdict_sink_) verdict_sink_(report, v);
  if (v.ok()) {
    ++health_.passed;
  } else if (v.status == VerifyStatus::kStaleEpoch) {
    ++health_.stale;
  } else {
    ++health_.failed;
    failures_.push_back(report);
    if (failures_.size() > cfg_.failure_keep) failures_.pop_front();
  }
}

IngestHealth ReportIngest::health() const {
  IngestHealth h = health_;
  h.in_queue = queue_.size();
  h.regime = regime_;
  h.failsafe_events = server_->failsafe_events();
  h.lost_estimate = 0;
  for (const auto& [sw, tracker] : seq_state_)
    h.lost_estimate += tracker.lost_estimate();
  return h;
}

}  // namespace veridp

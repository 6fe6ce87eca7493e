// Struct-of-arrays report batches — the unit of work of the batched
// verification pipeline (DESIGN.md §11).
//
// The scalar hot path verifies one TagReport at a time: every report
// pays its own path-table probe, its own BDD membership walk (a chain
// of dependent cache-missing loads) and its own memo probe. A
// ReportBatch holds the same reports column-wise — port pair, packed
// header bits, raw tag, epoch and seq each in their own contiguous
// lane array — so the batched verifier (verify_epoch_aware_batch) can
//
//   * bucket lanes by the epoch-resolved table and share path-table
//     probes across same-pair runs,
//   * walk many BDD membership evaluations in lockstep
//     (BddManager::eval_packed_many), hiding the dependent-load
//     latency that bounds the scalar walk,
//   * test Bloom tags and fill verdicts over contiguous columns.
//
// The packed header words (PacketHeader::bits_packed) are materialized
// once at push time, not once per path-entry evaluation.
//
// Thread-safety: a ReportBatch is a plain value owned by exactly one
// thread (the sequential ingest, or one parallel worker's scratch);
// nothing here is internally synchronized.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "dataplane/packet.hpp"

namespace veridp {

// veridp-lint: hot-path

/// Batch size used when a config leaves `batch_size` at 0 ("autotune").
/// Chosen from bench_batch_kernels' batch-size sweep: throughput rises
/// steeply up to ~64 lanes (the lockstep eval fan-out saturates), is
/// flat within noise from 128 to 512, and larger batches only add
/// latency before the first verdict — 256 sits safely on the plateau
/// without inflating ingest-to-verdict latency.
[[nodiscard]] std::size_t autotuned_batch_size();

/// Resolves a configured batch size: 0 means the autotuned default,
/// anything else is taken verbatim.
[[nodiscard]] inline std::size_t resolve_batch_size(std::size_t configured) {
  return configured == 0 ? autotuned_batch_size() : configured;
}

struct ReportBatch {
  // Parallel columns; lane i of each holds report i's field.
  std::vector<PortKey> inport;
  std::vector<PortKey> outport;
  std::vector<PacketHeader> header;
  /// PacketHeader::bits_packed() of `header`, materialized at push time
  /// for the lockstep BDD walk.
  std::vector<std::array<std::uint64_t, 2>> bits;
  std::vector<std::uint64_t> tag;       ///< raw Bloom-tag bit pattern
  std::vector<std::uint8_t> tag_width;  ///< BloomTag::bits() per lane
  std::vector<std::uint32_t> epoch;
  std::vector<std::uint32_t> seq;

  [[nodiscard]] std::size_t size() const { return inport.size(); }
  [[nodiscard]] bool empty() const { return inport.empty(); }

  void clear();
  void reserve(std::size_t n);

  /// Appends one decoded report as a new lane.
  void push(const TagReport& r);

  /// Reassembles lane i as a TagReport (scalar-fallback edges, verdict
  /// sinks, failure retention — the cold per-lane paths).
  [[nodiscard]] TagReport report(std::size_t i) const;

  /// Drops the first n lanes — the consumed prefix of an ingest queue.
  void consume_prefix(std::size_t n);
};

}  // namespace veridp

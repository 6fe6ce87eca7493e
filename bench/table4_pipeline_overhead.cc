// Table 4 — data-plane processing overhead of the VeriDP pipeline.
//
// The paper measures, on the ONetSwitch FPGA (125 MHz), the delay of the
// native OpenFlow pipeline vs the VeriDP sampling and tagging modules
// for packet sizes 128..1500 B: native delay grows with size (4.3-36.7
// μs) while sampling (~0.15 μs) and tagging (~0.27 μs) are size-
// independent, so their relative overhead shrinks (3.52% -> 0.41% and
// 6.29% -> 0.74%).
//
// Our substitute (DESIGN.md #1) is the software switch: the native
// pipeline parses the header from the wire buffer, performs the flow-
// table lookup and copies the payload (per-byte cost); the sampling and
// tagging modules run the exact FlowSampler / Algorithm-1 code. We
// report the same table: absolute per-packet delay and overhead ratios.
// The sampling module cycles through a pool of distinct flows as large as
// the end-to-end benchmark's, so its table holds every one of them. The
// lookup rows time the flow-table lookup alone on the benchmark
// workloads' own tables: Stanford-like (dst prefixes of many lengths,
// the interval index) and FT(8) (one length, one hash probe).
#include <benchmark/benchmark.h>

#include <cstring>
#include <numeric>
#include <vector>

#include "bench_common.hpp"
#include "dataplane/pipeline.hpp"
#include "flow/flow_table.hpp"

using namespace veridp;
using namespace veridp::bench;

namespace {

constexpr std::array<std::uint32_t, 5> kSizes = {128, 256, 512, 1024, 1500};
constexpr std::size_t kHeaderBytes = 24;  // IPv4 + TCP ports, as parsed
constexpr std::size_t kFlowPool = 20000;  // stanford_steady's flow pool

// A realistic per-switch forwarding state: a few hundred prefix rules.
FlowTable& forwarding_table() {
  static FlowTable table = [] {
    FlowTable t;
    Rng rng(4004);
    for (RuleId id = 1; id <= 200; ++id) {
      const auto len = static_cast<std::uint8_t>(rng.uniform(16, 28));
      const Prefix p{Ipv4::of(10, static_cast<std::uint8_t>(rng.uniform(0, 255)),
                              static_cast<std::uint8_t>(rng.uniform(0, 255)), 0),
                     len};
      t.add(FlowRule{id, len, Match::dst_prefix(p), Action::output(
                         static_cast<PortId>(rng.uniform(1, 48)))});
    }
    return t;
  }();
  return table;
}

std::vector<std::uint8_t> wire_packet(std::uint32_t size, Rng& rng) {
  std::vector<std::uint8_t> buf(size);
  for (auto& b : buf) b = static_cast<std::uint8_t>(rng.uniform(0, 255));
  // Minimal IPv4+TCP header layout at fixed offsets (parsed below).
  buf[9] = kProtoTcp;
  return buf;
}

PacketHeader parse(const std::uint8_t* buf) {
  PacketHeader h;
  h.src_ip.value = (std::uint32_t{buf[12]} << 24) | (std::uint32_t{buf[13]} << 16) |
                   (std::uint32_t{buf[14]} << 8) | buf[15];
  h.dst_ip.value = (std::uint32_t{buf[16]} << 24) | (std::uint32_t{buf[17]} << 16) |
                   (std::uint32_t{buf[18]} << 8) | buf[19];
  h.proto = buf[9];
  h.src_port = static_cast<std::uint16_t>((buf[20] << 8) | buf[21]);
  h.dst_port = static_cast<std::uint16_t>((buf[22] << 8) | buf[23]);
  return h;
}

// "Native pipeline": parse + lookup + checksum + forward (payload copy).
void BM_NativePipeline(benchmark::State& state) {
  const auto size = static_cast<std::uint32_t>(state.range(0));
  Rng rng(size);
  const auto in = wire_packet(size, rng);
  std::vector<std::uint8_t> out(size);
  const FlowTable& table = forwarding_table();
  for (auto _ : state) {
    const PacketHeader h = parse(in.data());
    const PortId port = table.lookup_port(h, 1);
    benchmark::DoNotOptimize(port);
    // Store-and-forward byte path: RX CRC, integrity check, TX CRC —
    // serial per-byte work like the FPGA pipeline's — plus the egress
    // copy. The dependent-chain hash defeats vectorization so the cost
    // genuinely scales with packet size.
    std::uint32_t crc = 0xffffffff;
    for (int pass = 0; pass < 3; ++pass)
      for (std::uint8_t b : in) crc = crc * 31 + b;
    benchmark::DoNotOptimize(crc);
    std::memcpy(out.data(), in.data(), size);
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

// VeriDP sampling module: per-flow hash-table check (entry switches only).
// Consecutive packets belong to consecutive flows of the pool, so every
// check probes a table of kFlowPool flows.
void BM_SamplingModule(benchmark::State& state) {
  const auto size = static_cast<std::uint32_t>(state.range(0));
  Rng rng(size);
  std::vector<std::uint8_t> headers;  // kFlowPool wire headers, back to back
  headers.reserve(kFlowPool * kHeaderBytes);
  for (std::size_t f = 0; f < kFlowPool; ++f) {
    const auto buf = wire_packet(kHeaderBytes, rng);
    headers.insert(headers.end(), buf.begin(), buf.end());
  }
  FlowSampler sampler(/*interval=*/1.0);
  double t = 0.0;
  std::size_t f = 0;
  for (auto _ : state) {
    const PacketHeader h = parse(&headers[f * kHeaderBytes]);
    benchmark::DoNotOptimize(sampler.sample(h, t));
    t += 1e-6;
    f = f + 1 == kFlowPool ? 0 : f + 1;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
  state.counters["flows"] = static_cast<double>(sampler.active_flows());
}

// Flow-table lookup alone, one per hop: each random flow's header is
// looked up at every switch in turn, on the tables `setup` installs.
void BM_Lookup(benchmark::State& state, const Setup& setup) {
  Rng rng(4005);
  const auto flows = workload::random_flows(setup.topo, rng, kFlowPool);
  const auto& configs = setup.controller.logical_configs();
  std::size_t f = 0;
  std::size_t sw = 0;
  for (auto _ : state) {
    const FlowRule* r = configs[sw].table.lookup(flows[f].header, 1);
    benchmark::DoNotOptimize(r);
    if (++sw == configs.size()) {
      sw = 0;
      f = f + 1 == flows.size() ? 0 : f + 1;
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

// VeriDP tagging module: Algorithm-1 tag update + TTL + shim write.
void BM_TaggingModule(benchmark::State& state) {
  const auto size = static_cast<std::uint32_t>(state.range(0));
  Rng rng(size);
  const auto in = wire_packet(size, rng);
  Packet p;
  p.header = parse(in.data());
  p.size_bytes = size;
  p.marker = true;
  p.ttl = kMaxPathLength;
  std::array<std::uint8_t, 4> shim{};  // two VLAN TCIs on the wire
  PortId x = 1;
  for (auto _ : state) {
    p.tag.insert(Hop{x, 7, x + 1});
    p.ttl = p.ttl > 1 ? p.ttl - 1 : kMaxPathLength;
    const std::uint16_t tci = static_cast<std::uint16_t>(p.tag.value());
    std::memcpy(shim.data(), &tci, 2);
    benchmark::ClobberMemory();
    x = (x % 40) + 1;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}

// Each set-up is built on first use, so a filter that skips its row skips
// building it.
void BM_LookupStanford(benchmark::State& state) {
  static const Setup setup = make_stanford();
  BM_Lookup(state, setup);
}

void BM_LookupFatTree8(benchmark::State& state) {
  static const Setup setup = make_fat_tree(8);
  BM_Lookup(state, setup);
}

}  // namespace

int main(int argc, char** argv) {
  rule_header("Table 4: VeriDP pipeline overhead vs native pipeline");
  std::printf("paper (FPGA): native 4.32-36.68 us; sampling ~0.15 us "
              "(3.52%%->0.41%%); tagging ~0.27 us (6.29%%->0.74%%)\n");
  std::printf("software substitute: same code paths, CPU timing; compare "
              "the *ratios* across packet sizes\n\n");
  for (auto size : kSizes) {
    benchmark::RegisterBenchmark("native", BM_NativePipeline)->Arg(size)->Unit(benchmark::kNanosecond);
    benchmark::RegisterBenchmark("sampling", BM_SamplingModule)->Arg(size)->Unit(benchmark::kNanosecond);
    benchmark::RegisterBenchmark("tagging", BM_TaggingModule)->Arg(size)->Unit(benchmark::kNanosecond);
  }
  benchmark::RegisterBenchmark("lookup/stanford", BM_LookupStanford)
      ->Unit(benchmark::kNanosecond);
  benchmark::RegisterBenchmark("lookup/ft8", BM_LookupFatTree8)
      ->Unit(benchmark::kNanosecond);
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  std::printf("\noverhead %% = module time / native time at the same packet "
              "size; expect it to fall as packets grow\n");
  return 0;
}

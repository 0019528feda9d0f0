// Micro-benchmarks (google-benchmark) of the core routing machinery: VPT
// coordinate math, SendSet seeding, stage outbox formation, wire
// serialization, the frame checksum, and whole-exchange simulator throughput.

#include <benchmark/benchmark.h>

#include <random>

#include "core/rank_state.hpp"
#include "core/vpt.hpp"
#include "core/wire.hpp"
#include "sim/bsp_simulator.hpp"

namespace {

using namespace stfw;
using core::Rank;
using core::Vpt;

void BM_VptCoordRoundTrip(benchmark::State& state) {
  const Vpt vpt = Vpt::balanced(4096, static_cast<int>(state.range(0)));
  Rank r = 1;
  for (auto _ : state) {
    const auto c = vpt.coords_of(r);
    benchmark::DoNotOptimize(vpt.rank_of(c));
    r = static_cast<Rank>((static_cast<std::uint32_t>(r) * 2654435761u + 1) %
                          static_cast<std::uint32_t>(vpt.size()));
  }
}
BENCHMARK(BM_VptCoordRoundTrip)->Arg(2)->Arg(6)->Arg(12);

void BM_VptFirstDiffDim(benchmark::State& state) {
  const Vpt vpt = Vpt::balanced(16384, static_cast<int>(state.range(0)));
  Rank a = 7, b = 12345;
  for (auto _ : state) {
    benchmark::DoNotOptimize(vpt.first_diff_dim(a, b));
    a = (a + 97) % vpt.size();
    b = (b + 41) % vpt.size();
  }
}
BENCHMARK(BM_VptFirstDiffDim)->Arg(2)->Arg(7)->Arg(14);

void BM_SendSetSeeding(benchmark::State& state) {
  const Vpt vpt = Vpt::balanced(1024, static_cast<int>(state.range(0)));
  std::mt19937_64 rng(1);
  std::uniform_int_distribution<Rank> pick(0, vpt.size() - 1);
  std::vector<Rank> dests(512);
  for (auto& d : dests) d = pick(rng);
  for (auto _ : state) {
    core::StfwRankState s(vpt, 0);
    for (Rank d : dests)
      if (d != 0) s.add_send(d, 0, 64);
    benchmark::DoNotOptimize(s.buffered_payload_bytes());
  }
  state.SetItemsProcessed(state.iterations() * static_cast<std::int64_t>(dests.size()));
}
BENCHMARK(BM_SendSetSeeding)->Arg(2)->Arg(5)->Arg(10);

void BM_WireSerializeRoundTrip(benchmark::State& state) {
  core::PayloadArena arena;
  std::vector<core::Submessage> msg;
  const std::vector<std::byte> payload(static_cast<std::size_t>(state.range(0)));
  for (int i = 0; i < 64; ++i)
    msg.push_back(core::Submessage{i, i + 1, arena.add(payload),
                                   static_cast<std::uint32_t>(payload.size())});
  std::vector<core::Submessage> parsed;
  for (auto _ : state) {
    const auto wire = core::serialize(msg, arena);
    core::PayloadArena scratch;
    parsed.clear();
    benchmark::DoNotOptimize(core::deserialize(wire, scratch, parsed).data());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<std::int64_t>(core::wire_size_bytes(
                              64, 64 * static_cast<std::uint64_t>(state.range(0)))));
}
BENCHMARK(BM_WireSerializeRoundTrip)->Arg(16)->Arg(256)->Arg(4096);

// The resilient frame checksum; 4216 bytes is the mean resilient_drop_k64
// frame, and every frame is digested once to encode and once to decode.
void BM_Digest64(benchmark::State& state) {
  std::vector<std::byte> buf(static_cast<std::size_t>(state.range(0)));
  std::mt19937_64 rng(5);
  for (std::byte& b : buf) b = static_cast<std::byte>(rng());
  for (auto _ : state) {
    benchmark::DoNotOptimize(buf.data());
    benchmark::DoNotOptimize(core::digest64(buf));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Digest64)->Arg(36)->Arg(4216)->Arg(65536);

void BM_SimulateExchange(benchmark::State& state) {
  const auto K = static_cast<Rank>(state.range(0));
  const int dim = static_cast<int>(state.range(1));
  std::mt19937_64 rng(3);
  std::uniform_int_distribution<Rank> pick(0, K - 1);
  sim::CommPattern pattern(K);
  for (Rank r = 0; r < K; ++r)
    for (int j = 0; j < 16; ++j) pattern.add_send(r, pick(rng), 64);
  pattern.finalize();
  const Vpt vpt = dim <= 1 ? Vpt::direct(K) : Vpt::balanced(K, dim);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::simulate_exchange(vpt, pattern));
  }
  state.SetItemsProcessed(state.iterations() * pattern.total_messages());
}
BENCHMARK(BM_SimulateExchange)
    ->Args({1024, 1})
    ->Args({1024, 2})
    ->Args({1024, 5})
    ->Args({1024, 10})
    ->Args({8192, 4});

}  // namespace

BENCHMARK_MAIN();

// Allocation regression of plan recording. A PlanRecorder appends every
// frame to a few shared tables, so recording 512 frames may cost only the
// tables' geometric growth in extra heap blocks over recording one — not a
// block (or four) per frame. alloc_counter.hpp counts the heap blocks of the
// recording alone.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "alloc_counter.hpp"
#include "core/exchange_plan.hpp"
#include "core/message.hpp"
#include "core/vpt.hpp"

namespace stfw::core {
namespace {

constexpr std::uint32_t kPayload = 16;

/// Heap blocks allocated while a recorder records a two-stage plan with
/// `frames` outgoing and `frames` inbound frames per stage and finishes it:
/// stage 0 sends seed payloads, stage 1 forwards the payloads stage 0
/// received, and stage 1's inbound payloads are delivered.
std::size_t heap_blocks_to_record(std::uint32_t frames) {
  const Vpt vpt({2, 2});
  // Arena offsets as Algorithm 1 would assign them: seeds first, then each
  // stage's inbound payloads in drain order.
  const auto arena_offset = [&](std::uint32_t block, std::uint32_t i) {
    return std::uint64_t{kPayload} * (std::uint64_t{block} * frames + i);
  };
  std::vector<Submessage> delivered(frames);
  for (std::uint32_t i = 0; i < frames; ++i)
    delivered[i] = Submessage{static_cast<Rank>(i % 4), 0, arena_offset(2, i), kPayload, i};

  return count_heap_blocks([&] {
    PlanRecorder rec(vpt, /*me=*/0, frames);
    for (std::uint32_t i = 0; i < frames; ++i) rec.on_seed(3, arena_offset(0, i), kPayload);
    for (int stage = 0; stage < 2; ++stage) {
      const auto from = static_cast<std::uint32_t>(stage);  // seeds, then stage-0 inbound
      for (std::uint32_t i = 0; i < frames; ++i) {
        const Submessage out{0, 3, arena_offset(from, i), kPayload, i};
        rec.on_stage_send(stage, stage == 0 ? 1 : 2, {&out, 1});
      }
      for (std::uint32_t i = 0; i < frames; ++i) {
        const Submessage in{3, 0, arena_offset(from + 1, i), kPayload, i};
        rec.on_stage_recv(stage, stage == 0 ? 1 : 2, {&in, 1});
      }
      rec.on_stage_complete(stage, 0, 0);
    }
    const ExchangePlanLayout layout = rec.finish(delivered, 0);
    EXPECT_EQ(layout.out_frames.size(), 2 * std::size_t{frames});
    EXPECT_EQ(layout.deliveries.size(), std::size_t{frames});
  });
}

TEST(PlanAlloc, RecordingAllocatesPerTableNotPerFrame) {
  const std::size_t one = heap_blocks_to_record(1);
  const std::size_t many = heap_blocks_to_record(512);
  EXPECT_GT(one, 0u) << "the operator new counter is not wired in";
  // Only vector growth may separate the two: about log2(1024) reallocations
  // for each of the five unreserved tables. One block per frame would add
  // over 2000.
  EXPECT_LE(many, one + 64) << "1 frame: " << one << " blocks, 512 frames: " << many;
}

}  // namespace
}  // namespace stfw::core

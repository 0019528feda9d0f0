#include "core/rank_state.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <random>
#include <utility>
#include <vector>

#include "core/error.hpp"

namespace stfw::core {
namespace {

/// One outbox frame with its own copy of its submessages.
struct Frame {
  Rank to = -1;
  std::vector<Submessage> subs;
  std::uint64_t payload_bytes = 0;

  friend bool operator==(const Frame&, const Frame&) = default;
};

std::vector<Frame> outbox_of(StfwRankState& state, int stage) {
  StageOutbox out;
  state.make_stage_outbox(stage, out);
  std::vector<Frame> frames;
  for (const StageOutbox::Frame& f : out.frames) {
    const auto subs = out.subs_of(f);
    frames.push_back(Frame{f.to, {subs.begin(), subs.end()}, f.payload_bytes});
  }
  return frames;
}

TEST(RankState, SelfSendDeliversImmediately) {
  const Vpt t({4, 4});
  StfwRankState s(t, 5);
  s.add_send(5, 0, 16);
  ASSERT_EQ(s.delivered().size(), 1u);
  EXPECT_EQ(s.delivered()[0].source, 5);
  EXPECT_EQ(s.delivered()[0].dest, 5);
  EXPECT_EQ(s.delivered_payload_bytes(), 16u);
  EXPECT_EQ(s.buffered_payload_bytes(), 0u);
}

TEST(RankState, DirectVptSendsEverythingInStageZero) {
  const Vpt t = Vpt::direct(8);
  StfwRankState s(t, 0);
  for (Rank d = 1; d < 8; ++d) s.add_send(d, 0, 8);
  EXPECT_EQ(s.buffered_payload_bytes(), 7u * 8u);
  auto out = outbox_of(s, 0);
  EXPECT_EQ(out.size(), 7u);  // one message per destination
  for (const auto& m : out) {
    EXPECT_EQ(m.subs.size(), 1u);
    EXPECT_EQ(m.subs[0].dest, m.to);
  }
  EXPECT_EQ(s.buffered_payload_bytes(), 0u);
}

TEST(RankState, MessagesToSameNeighborCoalesce) {
  // T_2(4,4), rank 0 = (0,0). Destinations (1,0), (1,1), (1,2), (1,3) all
  // have digit0 = 1, so stage 0 routes them through the single neighbor
  // with digit0 = 1 — one coalesced message with four submessages.
  const Vpt t({4, 4});
  StfwRankState s(t, 0);
  for (int y = 0; y < 4; ++y) {
    const int coords[2] = {1, y};
    s.add_send(t.rank_of(coords), 0, 8);
  }
  auto out = outbox_of(s, 0);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].to, 1);  // (1,0)
  EXPECT_EQ(out[0].subs.size(), 4u);
  EXPECT_EQ(out[0].payload_bytes, 32u);
}

TEST(RankState, SecondStageSeedsSkipStageZero) {
  // Destination shares digit 0 with the source: first hop is stage 1.
  const Vpt t({4, 4});
  StfwRankState s(t, 0);  // (0,0)
  const int coords[2] = {0, 2};
  s.add_send(t.rank_of(coords), 0, 8);
  EXPECT_TRUE(outbox_of(s, 0).empty());
  auto out = outbox_of(s, 1);
  ASSERT_EQ(out.size(), 1u);
  EXPECT_EQ(out[0].to, t.rank_of(coords));
}

TEST(RankState, PaperFigure4Walkthrough) {
  // Figure 4, T_3(4,4,4): P_a's three destinations all differ from P_a in
  // dimension 1, so stage 1 produces ONE coalesced message M_ad to its
  // dimension-1 neighbor P_d carrying all three submessages; P_d then
  // delivers its own, forwards (P_e, m_ae) in stage 2 and (P_c, m_ac) in
  // stage 3. Digits (0-based, dimension 1 first):
  //   P_a = (0,1,1), P_c = (2,1,3), P_d = (2,1,1), P_e = (2,3,1).
  const Vpt t({4, 4, 4});
  auto rank = [&](int d0, int d1, int d2) {
    const int c[3] = {d0, d1, d2};
    return t.rank_of(c);
  };
  const Rank pa = rank(0, 1, 1);
  const Rank pc = rank(2, 1, 3);
  const Rank pd = rank(2, 1, 1);
  const Rank pe = rank(2, 3, 1);

  StfwRankState a(t, pa);
  a.add_send(pc, 0, 8);
  a.add_send(pd, 0, 8);
  a.add_send(pe, 0, 8);

  auto out0 = outbox_of(a, 0);
  ASSERT_EQ(out0.size(), 1u);  // a single M_ad despite three destinations
  EXPECT_EQ(out0[0].to, pd);
  EXPECT_EQ(out0[0].subs.size(), 3u);
  EXPECT_TRUE(outbox_of(a, 1).empty());
  EXPECT_TRUE(outbox_of(a, 2).empty());

  // P_d receives M_ad in stage 1 and sorts the submessages out.
  StfwRankState d(t, pd);
  StageOutbox sink;
  d.make_stage_outbox(0, sink);
  d.accept(0, out0[0].subs);
  ASSERT_EQ(d.delivered().size(), 1u);  // m_ad is for P_d itself
  EXPECT_EQ(d.delivered()[0].dest, pd);

  auto dout1 = outbox_of(d, 1);  // stage 2: (P_e, m_ae) via dimension 2
  ASSERT_EQ(dout1.size(), 1u);
  EXPECT_EQ(dout1[0].to, rank(2, 3, 1));
  ASSERT_EQ(dout1[0].subs.size(), 1u);
  EXPECT_EQ(dout1[0].subs[0].dest, pe);

  auto dout2 = outbox_of(d, 2);  // stage 3: (P_c, m_ac) via dimension 3
  ASSERT_EQ(dout2.size(), 1u);
  EXPECT_EQ(dout2[0].to, pc);
  ASSERT_EQ(dout2[0].subs.size(), 1u);
  EXPECT_EQ(dout2[0].subs[0].dest, pc);
}

TEST(RankState, ForwardingMergesStreamsForSameDestination) {
  // Section 3: submessages from *distinct* sources destined for the *same*
  // process meet in the same forward buffer and travel inside one message
  // from then on; submessages from the *same* source to *distinct*
  // destinations go to different buffers and stay in distinct messages.
  const Vpt t({2, 2, 2});
  StfwRankState s(t, 0);  // intermediate process (0,0,0)
  StageOutbox sink;
  s.make_stage_outbox(0, sink);  // enter stage 0 (nothing of our own)
  ASSERT_TRUE(sink.frames.empty());

  const int same_dest_coords[3] = {0, 1, 0};
  const int other_dest_coords[3] = {0, 0, 1};
  const Rank same_dest = t.rank_of(same_dest_coords);
  const Rank other_dest = t.rank_of(other_dest_coords);
  const Submessage subs[3] = {
      {1, same_dest, 0, 8},   // source 1 -> D
      {1, other_dest, 0, 8},  // source 1 -> D' (same source, distinct dest)
      {3, same_dest, 0, 8},   // source 3 -> D (distinct source, same dest)
  };
  s.accept(0, subs);

  auto out1 = outbox_of(s, 1);
  ASSERT_EQ(out1.size(), 1u);
  EXPECT_EQ(out1[0].to, same_dest);
  EXPECT_EQ(out1[0].subs.size(), 2u);  // both streams merged into one message

  auto out2 = outbox_of(s, 2);
  ASSERT_EQ(out2.size(), 1u);
  EXPECT_EQ(out2[0].to, other_dest);
  EXPECT_EQ(out2[0].subs.size(), 1u);  // the same-source stream stayed apart
}

TEST(RankState, AcceptScattersIntoLaterStages) {
  const Vpt t({2, 2, 2});
  StfwRankState s(t, 0);  // (0,0,0)
  StageOutbox sink;
  s.make_stage_outbox(0, sink);  // enter stage 0

  const int d1_coords[3] = {0, 1, 0};  // forwarded in stage 1
  const int d2_coords[3] = {0, 0, 1};  // forwarded in stage 2
  const Rank via_stage1 = t.rank_of(d1_coords);
  const Rank via_stage2 = t.rank_of(d2_coords);
  const Submessage subs[3] = {
      {1, via_stage1, 0, 8},
      {1, via_stage2, 0, 8},
      {1, 0, 0, 8},  // for me
  };
  s.accept(0, subs);
  EXPECT_EQ(s.delivered().size(), 1u);
  EXPECT_EQ(s.buffered_payload_bytes(), 16u);

  auto out1 = outbox_of(s, 1);
  ASSERT_EQ(out1.size(), 1u);
  EXPECT_EQ(out1[0].to, via_stage1);
  auto out2 = outbox_of(s, 2);
  ASSERT_EQ(out2.size(), 1u);
  EXPECT_EQ(out2[0].to, via_stage2);
  EXPECT_EQ(s.buffered_payload_bytes(), 0u);
}

TEST(RankState, BufferedBytesLeaveWithTheirStage) {
  const Vpt t = Vpt::direct(4);
  StfwRankState s(t, 0);
  s.add_send(1, 0, 100);
  s.add_send(2, 0, 50);
  EXPECT_EQ(s.buffered_payload_bytes(), 150u);
  StageOutbox sink;
  s.make_stage_outbox(0, sink);
  EXPECT_EQ(s.buffered_payload_bytes(), 0u);
}

TEST(RankState, StagesMustRunInOrder) {
  const Vpt t({2, 2});
  StfwRankState s(t, 0);
  StageOutbox sink;
  EXPECT_THROW(s.make_stage_outbox(1, sink), Error);
  s.make_stage_outbox(0, sink);
  EXPECT_THROW(s.make_stage_outbox(0, sink), Error);
  EXPECT_THROW(s.make_stage_outbox(2, sink), Error);
}

TEST(RankState, AcceptRequiresMatchingStage) {
  const Vpt t({2, 2});
  StfwRankState s(t, 0);
  const Submessage sub{1, 0, 0, 8};
  EXPECT_THROW(s.accept(0, std::span<const Submessage>(&sub, 1)), Error);  // before outbox
}

TEST(RankState, AddSendAfterStartIsAnError) {
  const Vpt t({2, 2});
  StfwRankState s(t, 0);
  StageOutbox sink;
  s.make_stage_outbox(0, sink);
  EXPECT_THROW(s.add_send(1, 0, 8), Error);
}

TEST(RankState, ResetAllowsReuse) {
  const Vpt t({2, 2});
  StfwRankState s(t, 0);
  s.add_send(3, 0, 8);
  StageOutbox sink;
  s.make_stage_outbox(0, sink);
  s.make_stage_outbox(1, sink);
  s.reset();
  EXPECT_EQ(s.delivered().size(), 0u);
  s.add_send(1, 0, 8);  // no throw
  s.make_stage_outbox(0, sink);
  EXPECT_EQ(sink.frames.size(), 1u);
}

TEST(RankState, OutboxFramesAscendByNeighbor) {
  // Seeds stashed in scrambled destination order, some repeated: one frame
  // per neighbor, in ascending neighbor order, the flat table tiled in order.
  const Vpt t = Vpt::direct(16);
  StfwRankState s(t, 5);
  const Rank dests[] = {15, 3, 9, 0, 12, 3, 1, 15, 7, 14, 2, 9};
  for (Rank d : dests) s.add_send(d, 0, 4);
  StageOutbox out;
  s.make_stage_outbox(0, out);
  ASSERT_EQ(out.frames.size(), 9u);
  std::uint32_t next = 0;
  for (std::size_t i = 0; i < out.frames.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(out.frames[i - 1].to, out.frames[i].to);
    }
    EXPECT_EQ(out.frames[i].first, next);
    EXPECT_EQ(out.frames[i].payload_bytes, 4u * out.frames[i].count);
    next += out.frames[i].count;
  }
  EXPECT_EQ(next, out.subs.size());
}

TEST(RankState, FrameKeepsStashOrderAcrossSeedsAndForwards) {
  // T(4,4), rank 0 = (0,0). Destinations (0,2) and (0,3) leave in stage 1.
  // Seeds for both are stashed first, then stage 0 forwards more for both;
  // each stage-1 frame must list its submessages in exactly that order.
  // Offsets tag the submessages.
  const Vpt t({4, 4});
  const int c02[2] = {0, 2};
  const int c03[2] = {0, 3};
  const Rank d02 = t.rank_of(c02);
  const Rank d03 = t.rank_of(c03);
  StfwRankState s(t, 0);
  s.add_send(d03, 1, 8);
  s.add_send(d02, 2, 8);
  s.add_send(d03, 3, 8);
  EXPECT_TRUE(outbox_of(s, 0).empty());
  const Submessage forwarded[] = {
      {1, d02, 4, 8}, {2, d03, 5, 8}, {3, d02, 6, 8}, {1, d03, 7, 8}};
  s.accept(0, forwarded);
  const auto out = outbox_of(s, 1);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].to, d02);
  EXPECT_EQ(out[1].to, d03);
  const auto offsets = [](const Frame& f) {
    std::vector<std::uint64_t> o;
    for (const Submessage& sub : f.subs) o.push_back(sub.offset);
    return o;
  };
  EXPECT_EQ(offsets(out[0]), (std::vector<std::uint64_t>{2, 4, 6}));
  EXPECT_EQ(offsets(out[1]), (std::vector<std::uint64_t>{1, 3, 5, 7}));
}

/// Every rank's outbox frames stage by stage, then every rank's deliveries,
/// of one whole exchange run over `states` in lock step.
struct ExchangeTrace {
  std::vector<std::pair<Rank, Frame>> frames;  // (sender, frame)
  std::vector<std::vector<Submessage>> delivered;

  friend bool operator==(const ExchangeTrace&, const ExchangeTrace&) = default;
};

ExchangeTrace run_exchange(const Vpt& vpt, std::vector<StfwRankState>& states,
                           std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<Rank> pick(0, vpt.size() - 1);
  std::uniform_int_distribution<std::uint32_t> size(0, 64);
  std::uniform_int_distribution<int> fanout(0, 2 * vpt.size());
  std::uint64_t offset = 0;
  for (Rank r = 0; r < vpt.size(); ++r)
    for (int n = fanout(rng); n > 0; --n) {  // self-sends and repeats included
      const std::uint32_t bytes = size(rng);
      states[static_cast<std::size_t>(r)].add_send(pick(rng), offset, bytes);
      offset += bytes;
    }
  ExchangeTrace trace;
  StageOutbox out;
  std::vector<std::vector<Submessage>> inbox(static_cast<std::size_t>(vpt.size()));
  for (int stage = 0; stage < vpt.dim(); ++stage) {
    for (Rank r = 0; r < vpt.size(); ++r) {
      states[static_cast<std::size_t>(r)].make_stage_outbox(stage, out);
      for (const StageOutbox::Frame& f : out.frames) {
        const auto subs = out.subs_of(f);
        trace.frames.emplace_back(r, Frame{f.to, {subs.begin(), subs.end()}, f.payload_bytes});
        auto& box = inbox[static_cast<std::size_t>(f.to)];
        box.insert(box.end(), subs.begin(), subs.end());
      }
    }
    for (Rank r = 0; r < vpt.size(); ++r) {
      auto& box = inbox[static_cast<std::size_t>(r)];
      states[static_cast<std::size_t>(r)].accept(stage, box);
      box.clear();
    }
  }
  for (const StfwRankState& st : states) {
    EXPECT_EQ(st.buffered_payload_bytes(), 0u);
    trace.delivered.push_back(st.delivered());
  }
  return trace;
}

std::vector<StfwRankState> states_of(const Vpt& vpt) {
  std::vector<StfwRankState> states;
  for (Rank r = 0; r < vpt.size(); ++r) states.emplace_back(vpt, r);
  return states;
}

TEST(RankState, ResetStateMatchesFreshState) {
  // A reused state must route exactly like a fresh one: reset() keeps its
  // buffers' capacity but nothing of their contents or counters.
  for (const Vpt& vpt : {Vpt({2, 3, 4}), Vpt::direct(16)}) {
    std::vector<StfwRankState> reused = states_of(vpt);
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
      std::vector<StfwRankState> fresh = states_of(vpt);
      for (StfwRankState& st : reused) st.reset();
      const ExchangeTrace want = run_exchange(vpt, fresh, seed);
      EXPECT_FALSE(want.frames.empty());
      EXPECT_TRUE(run_exchange(vpt, reused, seed) == want)
          << vpt.to_string() << " seed " << seed;
    }
  }
}

TEST(RankState, RejectsOutOfRangeDestination) {
  const Vpt t({2, 2});
  StfwRankState s(t, 0);
  EXPECT_THROW(s.add_send(4, 0, 8), Error);
  EXPECT_THROW(s.add_send(-1, 0, 8), Error);
}

}  // namespace
}  // namespace stfw::core

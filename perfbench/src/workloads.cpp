#include "workloads.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "core/vpt.hpp"
#include "fault/fault_injector.hpp"
#include "json.hpp"
#include "netsim/machine.hpp"
#include "partition/partitioner.hpp"
#include "runtime/comm.hpp"
#include "runtime/stfw_communicator.hpp"
#include "sim/bsp_simulator.hpp"
#include "sparse/generators.hpp"
#include "spmv/distributed.hpp"
#include "spmv/runner.hpp"
#include "trace.hpp"

namespace perfbench {

namespace {

using stfw::core::Rank;
using stfw::core::Vpt;

// --- workload parameters -----------------------------------------------------

constexpr int kSetupReps = 3;

// spmv_stfw2_k64 / resilient_drop_k64: a gupta2-like irregular matrix (dense
// rows, cv ~5) partitioned over 64 ranks, exchanged over T_2(8,8).
constexpr std::string_view kSpmvMatrix = "gupta2";
constexpr double kSpmvScale = 0.45;
constexpr Rank kSpmvRanks = 64;
constexpr int kSpmvDim = 2;
constexpr int kSpmvIters = 20;  // SpMV iterations per run_distributed call

// dynamic_bl_k128: a fresh send pattern on every call over BL.
constexpr Rank kDynRanks = 128;
constexpr int kDynPatterns = 64;  // distinct patterns cycled through (> plan cache size)
constexpr int kDynFanout = 12;
constexpr std::uint32_t kDynMinBytes = 64;
constexpr std::uint32_t kDynMaxBytes = 256;

// resilient_drop_k64: about one dropped frame per ten exchanges.
constexpr double kDropsPerExchange = 0.1;

// Exchanges per Cluster::run on the exchange workloads.
constexpr int kBatch = 16;

// Simulator probe: a large Table-1 stand-in on the XC40 model at K = 4096.
constexpr std::string_view kSimMatrix = "bundle_adj";
constexpr double kSimScale = 0.05;
constexpr Rank kSimRanks = 4096;

// Plain-exchange stage traffic is tagged epoch * dim + stage; the resilient
// protocol's fixed tags start here and carry the stage in the frame header.
constexpr int kResilientTagBase = 1 << 28;

// Trace buffer sizes per track; the post log keeps the first few exchanges.
constexpr std::size_t kSpansPerTrack = 1 << 15;
constexpr std::size_t kPostsPerTrack = 1 << 10;

// --- small helpers -------------------------------------------------------------

std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

double seconds_between(std::int64_t t0, std::int64_t t1) {
  return static_cast<double>(t1 - t0) / 1e9;
}

struct CpuTimes {
  double user = 0.0;
  double sys = 0.0;
};

CpuTimes cpu_now() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return {tv(ru.ru_utime), tv(ru.ru_stime)};
}

std::string dims_json(const Vpt& vpt) {
  std::vector<std::string> dims;
  for (const int k : vpt.dim_sizes()) dims.push_back(std::to_string(k));
  return json_list(dims);
}

std::string scheme_name(const Vpt& vpt) {
  return vpt.dim() == 1 ? "BL" : "STFW" + std::to_string(vpt.dim());
}

/// The paper's Table-3 sweep at K ranks: BL plus dims {2, 3, 4, lg/2+1,
/// lg/2+2, lg-1, lg}.
std::vector<Vpt> table3_vpts(Rank num_ranks) {
  const int lg = stfw::core::floor_log2(num_ranks);
  std::vector<Vpt> out{Vpt::direct(num_ranks)};
  for (const int d : {2, 3, 4, lg / 2 + 1, lg / 2 + 2, lg - 1, lg})
    out.push_back(Vpt::balanced(num_ranks, d));
  return out;
}

/// Every per-layer name, so each run reports the full set (0 / empty where
/// a layer does not take part in the workload).
void init_layers(Result& res) {
  for (const char* name :
       {"partition.comm_volume_words", "partition.max_local_nnz", "core.mmax_frames",
        "core.frames_per_exchange", "core.filler_frames_per_exchange",
        "core.wire_bytes_per_exchange", "core.forwarded_bytes_per_exchange",
        "core.peak_buffer_bytes", "runtime.stage_wait_us", "runtime.stage_wait_frac",
        "runtime.posts_per_exchange", "runtime.plan_hit_ratio", "runtime.plan_exchanges",
        "runtime.plan_builds_per_exchange", "runtime.plan_fallbacks",
        "fault.drops_injected_per_exchange", "fault.retransmits_per_exchange",
        "fault.timeouts_per_exchange", "fault.acks_per_exchange",
        "fault.duplicates_discarded_per_exchange", "fault.retransmits_per_drop",
        "fault.recovered_ratio"})
    res.layer[name] = 0.0;
  for (const char* name :
       {"sparse.generate_s", "partition.partition_rows_s", "spmv.problem_build_s",
        "sparse.local_spmv_us", "runtime.exchange_us", "runtime.rank_skew_us",
        "runtime.cluster_run_us"})
    res.samples[name];
  for (const Vpt& vpt : table3_vpts(kSimRanks)) {
    const std::string s = scheme_name(vpt);
    res.layer["sim.mmax." + s] = 0.0;
    res.layer["sim.volume_words." + s] = 0.0;
    res.layer["netsim.comm_us." + s] = 0.0;
    res.samples["sim.simulate_ms." + s];
  }
}

void finish_trace(const Tracer* tracer, const Options& opt, Result& res) {
  if (tracer == nullptr) return;
  res.note("traced_ops", std::to_string(res.traced_ops));
  res.note("trace_dropped_spans", std::to_string(tracer->dropped_spans()));
  res.note("trace_dropped_posts", std::to_string(tracer->dropped_posts()));
  if (!tracer->write_chrome_json(opt.trace_path, json_object(res.fingerprint)))
    throw std::runtime_error("cannot write trace file " + opt.trace_path);
}

/// Drives `batch(first_op, tracer, op_ms)` back to back (closed loop) for the
/// requested time; `batch` returns how many ops it attempted. Untraced ops go
/// to res.op_ms and set the wall/CPU totals. With tracing on, untraced and
/// traced batches alternate (traced ops go to res.traced_op_ms), so a change
/// in the machine's speed during the run affects both sides of the tracing
/// overhead alike.
template <class Batch>
void timed_loop(const Options& opt, Result& res, Tracer* tracer, Batch&& batch) {
  std::int64_t op = 0;
  bool traced_turn = false;
  const std::int64_t end = now_ns() + static_cast<std::int64_t>(opt.seconds * 1e9);
  do {
    if (traced_turn) {
      const std::int64_t n = batch(op, tracer, res.traced_op_ms);
      res.traced_ops += n;
      op += n;
    } else {
      const std::int64_t failed0 = res.failed;
      const CpuTimes c0 = cpu_now();
      const std::int64_t t0 = now_ns();
      const std::int64_t n = batch(op, nullptr, res.op_ms);
      const std::int64_t t1 = now_ns();
      const CpuTimes c1 = cpu_now();
      res.timed_s += seconds_between(t0, t1);
      res.cpu_user_s += c1.user - c0.user;
      res.cpu_sys_s += c1.sys - c0.sys;
      res.timed_ops += n - (res.failed - failed0);
      op += n;
    }
    traced_turn = opt.trace && !traced_turn;
  } while (now_ns() < end);
  res.attempted += op;
}

/// Runs `fn` kSetupReps times, timing each; the last repetition's state is
/// what the workload keeps.
void repeat_setup(Result& res, Tracer* tracer, const std::function<void()>& fn) {
  for (int rep = 0; rep < kSetupReps; ++rep) {
    const Scope span(tracer, Tracer::kMainTrack, SpanName::kSetup, -1, 0, rep);
    const std::int64_t t0 = now_ns();
    fn();
    res.setup_s.push_back(seconds_between(t0, now_ns()));
  }
}

std::string describe(const std::exception& e) { return std::string("exception: ") + e.what(); }

// --- matrix instances ------------------------------------------------------------

/// Runs `fn` inside a main-track span and, when `res` is given, appends its
/// duration in seconds to res->samples[key].
template <class Fn>
void timed_step(Result* res, Tracer* tracer, SpanName span, const char* key, Fn&& fn) {
  const Scope scope(tracer, Tracer::kMainTrack, span);
  const std::int64_t t0 = now_ns();
  fn();
  if (res != nullptr) res->samples[key].push_back(seconds_between(t0, now_ns()));
}

/// A generated, partitioned Table-1 stand-in. Never moved once built:
/// SpmvProblem keeps a pointer to `matrix`.
struct Instance {
  stfw::sparse::Csr matrix;
  std::vector<std::int32_t> parts;
  std::unique_ptr<stfw::spmv::SpmvProblem> problem;
};

std::unique_ptr<Instance> build_instance(std::string_view name, double scale, Rank num_ranks,
                                         bool numeric_plans, std::uint64_t seed, Result* res,
                                         Tracer* tracer) {
  auto inst = std::make_unique<Instance>();
  const auto& orig = stfw::sparse::find_paper_matrix(name);
  const auto spec = stfw::sparse::scaled_spec(orig, scale, std::min(orig.rows, 4 * num_ranks));
  timed_step(res, tracer, SpanName::kGenerate, "sparse.generate_s", [&] {
    inst->matrix = stfw::sparse::generate(spec, mix(seed ^ 0x6d617472ull));
  });
  timed_step(res, tracer, SpanName::kPartition, "partition.partition_rows_s", [&] {
    stfw::partition::PartitionOptions popts;
    popts.num_parts = num_ranks;
    popts.seed = mix(seed ^ 0x70617274ull);
    inst->parts = stfw::partition::partition_rows(inst->matrix, popts);
  });
  timed_step(res, tracer, SpanName::kProblemBuild, "spmv.problem_build_s", [&] {
    inst->problem = std::make_unique<stfw::spmv::SpmvProblem>(inst->matrix, inst->parts,
                                                              num_ranks, numeric_plans);
  });
  return inst;
}

void note_instance(Result& res, std::string_view name, const Instance& inst) {
  res.note("matrix", json_str(name));
  res.note("matrix_rows", std::to_string(inst.matrix.num_rows()));
  res.note("matrix_nnz", std::to_string(inst.matrix.num_nonzeros()));
  res.layer["partition.comm_volume_words"] =
      static_cast<double>(inst.problem->total_comm_volume_words());
  res.layer["partition.max_local_nnz"] = static_cast<double>(inst.problem->max_local_nnz());
}

std::vector<double> seeded_vector(std::size_t n, std::uint64_t seed) {
  std::vector<double> x(n);
  std::uint64_t h = mix(seed ^ 0x78306576ull);
  for (double& v : x) {
    h = mix(h);
    v = 0.5 + static_cast<double>(h >> 11) * 0x1.0p-53;  // [0.5, 1.5)
  }
  return x;
}

/// What one rank must receive: (source, bytes) sorted by source, pointing
/// into the senders' outbound messages.
using Expected = std::vector<std::pair<Rank, const std::vector<std::byte>*>>;

/// Inverts per-rank send lists into per-rank expected inbound lists.
/// `sends` must not be modified while the result is in use.
std::vector<Expected> expected_inbound(
    const std::vector<std::vector<stfw::OutboundMessage>>& sends) {
  std::vector<Expected> expect(sends.size());
  for (std::size_t r = 0; r < sends.size(); ++r)
    for (const auto& m : sends[r])
      expect[static_cast<std::size_t>(m.dest)].emplace_back(static_cast<Rank>(r), &m.bytes);
  for (auto& e : expect) std::sort(e.begin(), e.end());
  return expect;
}

/// The x-entry messages every rank sends in one SpMV iteration with x = x0,
/// and what each rank must receive.
struct SpmvTraffic {
  std::vector<std::vector<stfw::OutboundMessage>> sends;  // [rank]
  std::vector<Expected> expect;                            // [rank]
  std::uint64_t payload_bytes = 0;
};

std::unique_ptr<SpmvTraffic> spmv_traffic(const stfw::spmv::SpmvProblem& problem,
                                          std::span<const double> x0) {
  auto t = std::make_unique<SpmvTraffic>();
  const auto nK = static_cast<std::size_t>(problem.num_ranks());
  t->sends.resize(nK);
  for (Rank r = 0; r < problem.num_ranks(); ++r) {
    const auto& plan = problem.plan(r);
    for (const auto& s : plan.sends) {
      stfw::OutboundMessage m;
      m.dest = s.dest;
      m.bytes.resize(s.x_slots.size() * sizeof(double));
      for (std::size_t i = 0; i < s.x_slots.size(); ++i) {
        const double v = x0[static_cast<std::size_t>(
            plan.owned_rows[static_cast<std::size_t>(s.x_slots[i])])];
        std::memcpy(m.bytes.data() + i * sizeof(double), &v, sizeof(double));
      }
      t->payload_bytes += m.bytes.size();
      t->sends[static_cast<std::size_t>(r)].push_back(std::move(m));
    }
  }
  t->expect = expected_inbound(t->sends);
  return t;
}

/// Compares inbound messages with the expected (source, bytes) list;
/// returns "" on a match, else the first mismatch.
std::string check_inbound(std::span<const stfw::InboundMessage> got, const Expected& want) {
  if (got.size() != want.size())
    return std::to_string(got.size()) + " messages, expected " + std::to_string(want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    const auto& w = *want[i].second;
    if (got[i].source != want[i].first)
      return "message " + std::to_string(i) + " from rank " + std::to_string(got[i].source) +
             ", expected rank " + std::to_string(want[i].first);
    if (got[i].bytes.size() != w.size())
      return "message from rank " + std::to_string(got[i].source) + " has " +
             std::to_string(got[i].bytes.size()) + " B, expected " + std::to_string(w.size());
    if (!w.empty() && std::memcmp(got[i].bytes.data(), w.data(), w.size()) != 0)
      return "message from rank " + std::to_string(got[i].source) + " differs in content";
  }
  return {};
}

// --- wire tap --------------------------------------------------------------------

/// Per-rank wire-tap bookkeeping. Cluster calls the tap on the sending
/// rank's own thread, so slot r is only ever touched by rank r.
class TapSet {
public:
  TapSet(Rank num_ranks, int dim, Tracer* tracer)
      : dim_(dim), tracer_(tracer), ranks_(static_cast<std::size_t>(num_ranks)) {
    for (RankTap& t : ranks_) {
      t.first.assign(static_cast<std::size_t>(dim), -1);
      t.last.assign(static_cast<std::size_t>(dim), -1);
    }
  }

  void install(stfw::runtime::Cluster& cluster) {
    cluster.set_wire_tap([this](int source, int dest, int tag, std::span<const std::byte> b) {
      on_post(source, dest, tag, b.size());
    });
  }

  /// Resets rank `r`'s counters at the start of an exchange.
  void begin(Rank r, std::int64_t op) {
    RankTap& t = ranks_[static_cast<std::size_t>(r)];
    t.op = op;
    t.posts = 0;
    t.faultable_posts = 0;
    std::fill(t.first.begin(), t.first.end(), -1);
    std::fill(t.last.begin(), t.last.end(), -1);
  }

  /// Sum over stages of the gap between a rank's last post of stage d and
  /// its first post of stage d + 1 (the call's end for the last stage): the
  /// time it waited on stage d's inbound frames, plus their unpacking.
  [[nodiscard]] std::int64_t stage_wait_ns(Rank r, std::int64_t call_end) const {
    const RankTap& t = ranks_[static_cast<std::size_t>(r)];
    std::int64_t wait = 0;
    for (std::size_t d = 0; d < t.last.size(); ++d) {
      if (t.last[d] < 0) continue;
      const std::int64_t next =
          d + 1 < t.first.size() && t.first[d + 1] >= 0 ? t.first[d + 1] : call_end;
      wait += std::max<std::int64_t>(0, next - t.last[d]);
    }
    return wait;
  }
  [[nodiscard]] std::int64_t posts(Rank r) const {
    return ranks_[static_cast<std::size_t>(r)].posts;
  }
  [[nodiscard]] std::int64_t faultable_posts(Rank r) const {
    return ranks_[static_cast<std::size_t>(r)].faultable_posts;
  }

private:
  struct alignas(64) RankTap {
    std::int64_t op = -1;
    std::int64_t posts = 0;
    std::int64_t faultable_posts = 0;  // tag >= 0: what the fault injector may drop
    std::vector<std::int64_t> first;
    std::vector<std::int64_t> last;
  };

  void on_post(int source, int dest, int tag, std::size_t bytes) {
    RankTap& t = ranks_[static_cast<std::size_t>(source)];
    const std::int64_t now = now_ns();
    ++t.posts;
    if (tag >= 0) ++t.faultable_posts;
    if (tag >= 0 && tag < kResilientTagBase) {
      const auto d = static_cast<std::size_t>(tag % dim_);
      if (t.first[d] < 0) t.first[d] = now;
      t.last[d] = now;
    }
    if (tracer_ != nullptr) tracer_->post(Tracer::rank_track(source), now, dest, tag, bytes, t.op);
  }

  int dim_;
  Tracer* tracer_;
  std::vector<RankTap> ranks_;
};

// --- exchange loops ----------------------------------------------------------------

/// Per-(op, rank) records of one Cluster::run of exchanges.
struct ExchangeRecords {
  ExchangeRecords(Rank num_ranks, int ops)
      : num_ranks(num_ranks),
        ops(ops),
        start(slots()),
        end(slots()),
        stage_wait(slots()),
        posts(slots()),
        stats(slots()),
        recovered(slots(), 1),
        error(slots()) {}

  [[nodiscard]] std::size_t slots() const {
    return static_cast<std::size_t>(num_ranks) * static_cast<std::size_t>(ops);
  }
  [[nodiscard]] std::size_t at(int op, Rank r) const {
    return static_cast<std::size_t>(op) * static_cast<std::size_t>(num_ranks) +
           static_cast<std::size_t>(r);
  }

  Rank num_ranks;
  int ops;
  std::vector<std::int64_t> start;
  std::vector<std::int64_t> end;
  std::vector<std::int64_t> stage_wait;
  std::vector<std::int64_t> posts;
  std::vector<stfw::LocalExchangeStats> stats;
  std::vector<std::uint8_t> recovered;  // resilient: fully_recovered
  std::vector<std::string> error;       // "" = output matched the oracle
};

/// Every rank runs `recs.ops` exchanges back to back on a fresh
/// StfwCommunicator (closed loop per rank) inside one Cluster::run.
/// `submit(communicator, rank, i)` performs exchange i and returns its output;
/// `check(rank, i, output, recs)` verifies it. Exceptions propagate out of
/// Cluster::run to the caller.
template <class Submit, class Check>
void run_exchanges(stfw::runtime::Cluster& cluster, const Vpt& vpt, std::int64_t op0,
                   SpanName span, Tracer* tracer, TapSet* taps, ExchangeRecords& recs,
                   Submit&& submit, Check&& check) {
  const Scope run_span(tracer, Tracer::kMainTrack, SpanName::kClusterRun, op0);
  const std::uint64_t parent = run_span.id();
  cluster.run([&](stfw::runtime::Comm& comm) {
    const auto me = static_cast<Rank>(comm.rank());
    const int track = Tracer::rank_track(me);
    stfw::StfwCommunicator communicator(comm, vpt);
    for (int i = 0; i < recs.ops; ++i) {
      const std::int64_t op = op0 < 0 ? -1 : op0 + i;
      const std::size_t slot = recs.at(i, me);
      if (taps != nullptr) taps->begin(me, op);
      const std::uint64_t id = tracer != nullptr ? tracer->open(track, span, op, parent) : 0;
      const std::int64_t t0 = now_ns();
      auto out = submit(communicator, me, i);
      const std::int64_t t1 = now_ns();
      if (tracer != nullptr) tracer->close(track, id);
      recs.start[slot] = t0;
      recs.end[slot] = t1;
      recs.stats[slot] = communicator.last_stats();
      if (taps != nullptr) {
        recs.stage_wait[slot] = taps->stage_wait_ns(me, t1);
        recs.posts[slot] = taps->posts(me);
      }
      const Scope verify(tracer, track, SpanName::kVerify, op, parent);
      check(me, i, out, recs);
    }
  });
}

/// Per-layer accumulators over traced exchanges.
struct ExchangeLayers {
  double exchanges = 0;
  double frames = 0;
  double fillers = 0;
  double wire_bytes = 0;
  double forwarded_bytes = 0;
  double peak_buffer = 0;
  double mmax_sum = 0;
  double posts = 0;
  double stage_wait_ns = 0;
  double call_ns = 0;
  double rank_calls = 0;
  double plan_builds = 0;
  double plan_hits = 0;
  double plan_fallbacks = 0;
  double retransmits = 0;
  double timeouts = 0;
  double acks = 0;
  double duplicates = 0;
  double recovered = 0;

  /// Folds in one run's records; `payload_bytes(i)` is the original payload
  /// of exchange i (to split forwarded from original bytes).
  void absorb(const ExchangeRecords& recs, const std::function<double(int)>& payload_bytes,
              Result& res) {
    auto& exch_us = res.samples["runtime.exchange_us"];
    auto& skew_us = res.samples["runtime.rank_skew_us"];
    std::vector<double> durations(static_cast<std::size_t>(recs.num_ranks));
    for (int i = 0; i < recs.ops; ++i) {
      double payload = 0;
      double mmax = 0;
      bool all_recovered = true;
      for (Rank r = 0; r < recs.num_ranks; ++r) {
        const std::size_t slot = recs.at(i, r);
        const stfw::LocalExchangeStats& s = recs.stats[slot];
        const double dur = static_cast<double>(recs.end[slot] - recs.start[slot]);
        durations[static_cast<std::size_t>(r)] = dur / 1e3;
        exch_us.push_back(dur / 1e3);
        call_ns += dur;
        rank_calls += 1;
        stage_wait_ns += static_cast<double>(recs.stage_wait[slot]);
        posts += static_cast<double>(recs.posts[slot]);
        frames += static_cast<double>(s.messages_sent + s.filler_frames_sent);
        fillers += static_cast<double>(s.filler_frames_sent);
        wire_bytes += static_cast<double>(s.wire_bytes_sent);
        payload += static_cast<double>(s.payload_bytes_sent);
        peak_buffer = std::max(peak_buffer, static_cast<double>(s.peak_buffer_bytes));
        mmax = std::max(mmax, static_cast<double>(s.messages_sent));
        plan_builds += static_cast<double>(s.plan_builds);
        plan_hits += static_cast<double>(s.plan_hits);
        plan_fallbacks += static_cast<double>(s.plan_fallbacks);
        retransmits += static_cast<double>(s.retransmits);
        timeouts += static_cast<double>(s.timeouts);
        acks += static_cast<double>(s.acks_sent);
        duplicates += static_cast<double>(s.duplicate_frames_discarded +
                                          s.duplicate_submessages_discarded);
        all_recovered = all_recovered && recs.recovered[slot] != 0;
      }
      exchanges += 1;
      forwarded_bytes += payload - payload_bytes(i);
      mmax_sum += mmax;
      recovered += all_recovered ? 1 : 0;
      std::sort(durations.begin(), durations.end());
      skew_us.push_back(durations.back() - durations[durations.size() / 2]);
    }
  }

  void report(Result& res, bool resilient) const {
    if (exchanges == 0) return;
    const auto per = [&](double v) { return v / exchanges; };
    res.layer["core.mmax_frames"] = per(mmax_sum);
    res.layer["core.frames_per_exchange"] = per(frames);
    res.layer["core.filler_frames_per_exchange"] = per(fillers);
    res.layer["core.wire_bytes_per_exchange"] = per(wire_bytes);
    res.layer["core.forwarded_bytes_per_exchange"] = per(forwarded_bytes);
    res.layer["core.peak_buffer_bytes"] = peak_buffer;
    res.layer["runtime.posts_per_exchange"] = per(posts);
    res.layer["runtime.stage_wait_us"] = stage_wait_ns / rank_calls / 1e3;
    res.layer["runtime.stage_wait_frac"] = call_ns > 0 ? stage_wait_ns / call_ns : 0.0;
    if (!resilient) return;
    res.layer["fault.retransmits_per_exchange"] = per(retransmits);
    res.layer["fault.timeouts_per_exchange"] = per(timeouts);
    res.layer["fault.acks_per_exchange"] = per(acks);
    res.layer["fault.duplicates_discarded_per_exchange"] = per(duplicates);
    res.layer["fault.recovered_ratio"] = per(recovered);
  }

  void report_plan_cache(Result& res) const {
    // Plan-cache counters are per rank; the ratios are per rank-exchange.
    if (rank_calls == 0) return;
    res.layer["runtime.plan_exchanges"] = rank_calls;
    res.layer["runtime.plan_hit_ratio"] = plan_hits / rank_calls;
    res.layer["runtime.plan_builds_per_exchange"] = plan_builds / rank_calls;
    res.layer["runtime.plan_fallbacks"] = plan_fallbacks;
  }
};

/// Turns one run's records into per-op latencies (first rank in to last
/// rank out) or failures.
std::int64_t record_ops(const ExchangeRecords& recs, Result& res, std::vector<double>& op_ms,
                        std::int64_t op0) {
  for (int i = 0; i < recs.ops; ++i) {
    std::int64_t lo = recs.start[recs.at(i, 0)];
    std::int64_t hi = recs.end[recs.at(i, 0)];
    std::string err;
    for (Rank r = 0; r < recs.num_ranks; ++r) {
      const std::size_t slot = recs.at(i, r);
      lo = std::min(lo, recs.start[slot]);
      hi = std::max(hi, recs.end[slot]);
      if (err.empty() && !recs.error[slot].empty())
        err = (op0 < 0 ? "untimed exchange " : "op ") + std::to_string(op0 < 0 ? i : op0 + i) +
              " rank " + std::to_string(r) + ": " + recs.error[slot];
    }
    if (!err.empty())
      res.fail(err);
    else
      op_ms.push_back(static_cast<double>(hi - lo) / 1e6);
  }
  return recs.ops;
}

// --- probes ------------------------------------------------------------------------

void probe_cluster_run(stfw::runtime::Cluster& cluster, Result& res, Tracer* tracer) {
  auto& out = res.samples["runtime.cluster_run_us"];
  for (int i = 0; i < 20; ++i) {
    const Scope span(tracer, Tracer::kMainTrack, SpanName::kClusterRunEmpty);
    const std::int64_t t0 = now_ns();
    cluster.run([](stfw::runtime::Comm&) {});
    out.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
}

/// Csr::spmv on the local block of the rank holding the most nonzeros.
void probe_local_spmv(const stfw::spmv::SpmvProblem& problem, Result& res, Tracer* tracer) {
  Rank heaviest = 0;
  for (Rank r = 1; r < problem.num_ranks(); ++r)
    if (problem.plan(r).local.num_nonzeros() > problem.plan(heaviest).local.num_nonzeros())
      heaviest = r;
  const auto& plan = problem.plan(heaviest);
  std::vector<double> x(plan.x_slot_global.size(), 1.0);
  std::vector<double> y(plan.owned_rows.size(), 0.0);
  auto& out = res.samples["sparse.local_spmv_us"];
  for (int i = 0; i < 50; ++i) {
    const Scope span(tracer, Tracer::kMainTrack, SpanName::kLocalSpmv, -1, 0, heaviest);
    const std::int64_t t0 = now_ns();
    plan.local.spmv(x, y);
    out.push_back(static_cast<double>(now_ns() - t0) / 1e3);
  }
  if (!std::isfinite(y[0])) res.fail("local spmv probe produced a non-finite value");
}

/// A rank's overlap work for the exchange probe: the interior rows (those
/// reading only owned x slots), multiplied inside the exchange's hook the
/// way run_distributed does.
struct InteriorRows {
  explicit InteriorRows(const stfw::spmv::RankPlan& plan)
      : local(&plan.local),
        x(plan.x_slot_global.size(), 1.0),
        y(plan.owned_rows.size(), 0.0),
        hook([this] { multiply(); }) {
    for (std::int32_t row = 0; row < plan.local.num_rows(); ++row) {
      const auto cols = plan.local.row_cols(row);
      if (std::all_of(cols.begin(), cols.end(), [&](std::int32_t c) {
            return static_cast<std::size_t>(c) < plan.owned_rows.size();
          }))
        rows.push_back(row);
    }
  }
  // `hook` captures this.
  InteriorRows(const InteriorRows&) = delete;
  InteriorRows& operator=(const InteriorRows&) = delete;

  void multiply() {
    for (const std::int32_t row : rows) {
      const auto cols = local->row_cols(row);
      const auto vals = local->row_values(row);
      double acc = 0.0;
      for (std::size_t k = 0; k < cols.size(); ++k)
        acc += vals[k] * x[static_cast<std::size_t>(cols[k])];
      y[static_cast<std::size_t>(row)] = acc;
    }
  }

  const stfw::sparse::Csr* local;
  std::vector<std::int32_t> rows;
  std::vector<double> x;
  std::vector<double> y;
  stfw::OverlapHook hook;
};

// --- simulator probe ------------------------------------------------------------

/// The paper's large-scale study path (Table 3): sweeps of
/// sim::simulate_exchange over BL and the Table-3 dims at K = 4096 on the
/// XC40 model, for a bundle_adj-like pattern. One SimScratch is reused, so
/// it is rebuilt at every VPT change. The first sweep is the reference:
/// later sweeps must reproduce its metrics exactly, and every scheme must
/// stay within the paper's bound mmax <= sum(k_d - 1). Runs single-threaded.
void probe_sim(std::uint64_t seed, Result& res, Tracer* tracer) {
  constexpr int kSweeps = 4;
  const auto inst = build_instance(kSimMatrix, kSimScale, kSimRanks, false, seed, nullptr, tracer);
  const stfw::sim::CommPattern pattern = inst->problem->comm_pattern(8);
  const stfw::netsim::Machine machine = stfw::netsim::Machine::cray_xc40(kSimRanks);
  const std::vector<Vpt> vpts = table3_vpts(kSimRanks);
  res.note("sim_matrix", json_str(kSimMatrix));
  res.note("sim_matrix_rows", std::to_string(inst->matrix.num_rows()));
  res.note("sim_matrix_nnz", std::to_string(inst->matrix.num_nonzeros()));
  res.note("sim_ranks", std::to_string(kSimRanks));

  struct Metrics {
    std::int64_t mmax = 0;
    std::int64_t volume = 0;
    std::uint64_t buffer = 0;
    double comm_us = 0.0;
  };
  std::vector<Metrics> reference;
  stfw::sim::SimScratch scratch;
  stfw::sim::SimOptions sopts;
  sopts.machine = &machine;
  sopts.scratch = &scratch;
  for (int sweep = 0; sweep < kSweeps; ++sweep) {
    const Scope sweep_span(tracer, Tracer::kMainTrack, SpanName::kSweep);
    res.attempted += 1;
    std::string err;
    for (std::size_t i = 0; i < vpts.size() && err.empty(); ++i) {
      const std::string name = scheme_name(vpts[i]);
      const std::int64_t t0 = now_ns();
      Metrics got;
      try {
        const Scope span(tracer, Tracer::kMainTrack, SpanName::kSimulate, -1, sweep_span.id(),
                         vpts[i].dim());
        const stfw::sim::SimResult r = stfw::sim::simulate_exchange(vpts[i], pattern, sopts);
        got = {r.metrics.max_send_count(), r.metrics.total_volume_words(),
               r.metrics.max_buffer_bytes(), r.comm_time_us};
      } catch (const std::exception& e) {
        err = name + ": " + describe(e);
        break;
      }
      res.samples["sim.simulate_ms." + name].push_back(static_cast<double>(now_ns() - t0) / 1e6);
      if (got.mmax > vpts[i].max_message_count_bound()) {
        err = name + ": mmax " + std::to_string(got.mmax) + " exceeds the bound sum(k_d - 1) = " +
              std::to_string(vpts[i].max_message_count_bound());
      } else if (sweep == 0) {
        reference.push_back(got);
        res.layer["sim.mmax." + name] = static_cast<double>(got.mmax);
        res.layer["sim.volume_words." + name] = static_cast<double>(got.volume);
        res.layer["netsim.comm_us." + name] = got.comm_us;
      } else if (got.mmax != reference[i].mmax || got.volume != reference[i].volume ||
                 got.buffer != reference[i].buffer ||
                 std::memcmp(&got.comm_us, &reference[i].comm_us, sizeof(double)) != 0) {
        err = name + ": metrics differ from the first sweep";
      }
    }
    if (!err.empty()) res.fail("simulator sweep " + std::to_string(sweep) + ": " + err);
  }
}

// --- spmv_stfw2_k64 ------------------------------------------------------------------

Result run_spmv(const Options& opt) {
  Result res;
  init_layers(res);
  const Vpt vpt = Vpt::balanced(kSpmvRanks, kSpmvDim);
  std::unique_ptr<Tracer> tracer =
      opt.trace ? std::make_unique<Tracer>(kSpmvRanks, kSpansPerTrack, kPostsPerTrack) : nullptr;

  std::unique_ptr<Instance> inst;
  std::unique_ptr<stfw::runtime::Cluster> cluster;
  std::vector<double> x0;
  std::vector<double> reference;
  repeat_setup(res, tracer.get(), [&] {
    cluster.reset();
    inst.reset();
    inst = build_instance(kSpmvMatrix, kSpmvScale, kSpmvRanks, true, opt.seed, &res, tracer.get());
    {
      const Scope span(tracer.get(), Tracer::kMainTrack, SpanName::kClusterCreate);
      cluster = std::make_unique<stfw::runtime::Cluster>(kSpmvRanks);
    }
    x0 = seeded_vector(static_cast<std::size_t>(inst->matrix.num_rows()), opt.seed);
    const Scope span(tracer.get(), Tracer::kMainTrack, SpanName::kReference);
    reference = stfw::spmv::run_serial(inst->matrix, x0, kSpmvIters);
  });
  note_instance(res, kSpmvMatrix, *inst);
  res.note("ranks", std::to_string(kSpmvRanks));
  res.note("vpt_dims", dims_json(vpt));
  res.note("iterations_per_call", std::to_string(kSpmvIters));

  ExchangeLayers plan_cache;
  timed_loop(opt, res, tracer.get(), [&](std::int64_t op0, Tracer* tr, std::vector<double>& out) {
    std::vector<stfw::spmv::ExchangeStatsTotals> totals;
    std::vector<double> y;
    const Scope span(tr, Tracer::kMainTrack, SpanName::kRunDistributed, op0, 0, kSpmvIters);
    const std::int64_t t0 = now_ns();
    try {
      y = stfw::spmv::run_distributed(*cluster, *inst->problem, vpt, x0, kSpmvIters, &totals);
    } catch (const std::exception& e) {
      res.fail("op " + std::to_string(op0) + ": " + describe(e), kSpmvIters);
      return static_cast<std::int64_t>(kSpmvIters);
    }
    const std::int64_t t1 = now_ns();
    // Bitwise comparison: an inf or NaN cannot compare equal by accident.
    if (y.size() != reference.size() ||
        std::memcmp(y.data(), reference.data(), y.size() * sizeof(double)) != 0) {
      std::size_t row = 0;
      while (row < y.size() &&
             std::memcmp(&y[row], &reference[row], sizeof(double)) == 0)
        ++row;
      char msg[160];
      std::snprintf(msg, sizeof(msg), "op %lld: y[%zu] = %.17g, serial reference %.17g",
                    static_cast<long long>(op0), row, row < y.size() ? y[row] : 0.0,
                    row < reference.size() ? reference[row] : 0.0);
      res.fail(msg, kSpmvIters);
    } else {
      out.push_back(static_cast<double>(t1 - t0) / 1e6 / kSpmvIters);
    }
    if (tr != nullptr)
      for (const auto& t : totals) {
        plan_cache.rank_calls += static_cast<double>(t.exchanges);
        plan_cache.plan_builds += static_cast<double>(t.plan_builds);
        plan_cache.plan_hits += static_cast<double>(t.plan_hits);
        plan_cache.plan_fallbacks += static_cast<double>(t.plan_fallbacks);
      }
    return static_cast<std::int64_t>(kSpmvIters);
  });
  plan_cache.report_plan_cache(res);

  if (opt.trace) {
    // Exchange probe: exchange(sends, hook) on the same pattern, with the
    // interior rows multiplied in the overlap hook as run_distributed does.
    const auto traffic = spmv_traffic(*inst->problem, x0);
    std::deque<InteriorRows> interior;  // stable addresses: each hook captures its element
    for (Rank r = 0; r < kSpmvRanks; ++r) interior.emplace_back(inst->problem->plan(r));
    TapSet taps(kSpmvRanks, vpt.dim(), tracer.get());
    taps.install(*cluster);
    ExchangeLayers layers;
    for (int rep = 0; rep < 5; ++rep) {
      ExchangeRecords recs(kSpmvRanks, kSpmvIters);
      try {
        run_exchanges(
            *cluster, vpt, -1, SpanName::kExchange, tracer.get(), &taps, recs,
            [&](stfw::StfwCommunicator& c, Rank me, int) {
              return c.exchange(traffic->sends[static_cast<std::size_t>(me)],
                                interior[static_cast<std::size_t>(me)].hook);
            },
            [&](Rank me, int i, const std::vector<stfw::InboundMessage>& got,
                ExchangeRecords& r) {
              r.error[r.at(i, me)] =
                  check_inbound(got, traffic->expect[static_cast<std::size_t>(me)]);
            });
      } catch (const std::exception& e) {
        res.fail("exchange probe: " + describe(e), kSpmvIters);
        continue;
      }
      std::vector<double> unused;
      res.attempted += record_ops(recs, res, unused, -1);
      layers.absorb(recs, [&](int) { return static_cast<double>(traffic->payload_bytes); }, res);
    }
    cluster->set_wire_tap(nullptr);
    layers.report(res, false);
    probe_local_spmv(*inst->problem, res, tracer.get());
    probe_cluster_run(*cluster, res, tracer.get());
    probe_sim(opt.seed, res, tracer.get());
  }
  finish_trace(tracer.get(), opt, res);
  return res;
}

// --- dynamic_bl_k128 -------------------------------------------------------------------

/// kDynPatterns seeded send patterns over kDynRanks ranks: ~12 random peers
/// per rank plus one hub (rotating with the pattern) that sends to everyone;
/// payloads of 64-256 seeded bytes.
struct DynamicPatterns {
  std::vector<std::vector<std::vector<stfw::OutboundMessage>>> sends;  // [pattern][rank]
  std::vector<std::vector<Expected>> expect;                           // [pattern][rank]
  std::vector<std::uint64_t> payload_bytes;                            // [pattern]
};

std::unique_ptr<DynamicPatterns> dynamic_patterns(std::uint64_t seed) {
  auto pats = std::make_unique<DynamicPatterns>();
  const auto nK = static_cast<std::size_t>(kDynRanks);
  pats->sends.resize(kDynPatterns);
  pats->expect.resize(kDynPatterns);
  pats->payload_bytes.resize(kDynPatterns, 0);
  for (int p = 0; p < kDynPatterns; ++p) {
    auto& sends = pats->sends[static_cast<std::size_t>(p)];
    sends.resize(nK);
    const std::uint64_t pseed = mix(seed ^ (static_cast<std::uint64_t>(p) << 40));
    const auto hub = static_cast<Rank>(pseed % static_cast<std::uint64_t>(kDynRanks));
    for (Rank r = 0; r < kDynRanks; ++r) {
      std::vector<bool> chosen(nK, false);
      std::uint64_t h = mix(pseed ^ static_cast<std::uint64_t>(r));
      auto add = [&](Rank dest) {
        if (dest == r || chosen[static_cast<std::size_t>(dest)]) return false;
        chosen[static_cast<std::size_t>(dest)] = true;
        h = mix(h);
        stfw::OutboundMessage m;
        m.dest = dest;
        m.bytes.resize(kDynMinBytes + h % (kDynMaxBytes - kDynMinBytes + 1));
        for (std::byte& b : m.bytes) {
          h = mix(h);
          b = static_cast<std::byte>(h);
        }
        pats->payload_bytes[static_cast<std::size_t>(p)] += m.bytes.size();
        sends[static_cast<std::size_t>(r)].push_back(std::move(m));
        return true;
      };
      if (r == hub) {
        for (Rank d = 0; d < kDynRanks; ++d) add(d);
      } else {
        for (int added = 0, tries = 0; added < kDynFanout && tries < 16 * kDynFanout; ++tries) {
          h = mix(h);
          if (add(static_cast<Rank>(h % static_cast<std::uint64_t>(kDynRanks)))) ++added;
        }
      }
    }
    pats->expect[static_cast<std::size_t>(p)] = expected_inbound(sends);
  }
  return pats;
}

Result run_dynamic(const Options& opt) {
  Result res;
  init_layers(res);
  const Vpt vpt = Vpt::direct(kDynRanks);
  std::unique_ptr<Tracer> tracer =
      opt.trace ? std::make_unique<Tracer>(kDynRanks, kSpansPerTrack, kPostsPerTrack) : nullptr;

  std::unique_ptr<DynamicPatterns> pats;
  std::unique_ptr<stfw::runtime::Cluster> cluster;
  const auto submit = [&](std::int64_t op0) {
    return [&, op0](stfw::StfwCommunicator& c, Rank me, int i) {
      const auto p = static_cast<std::size_t>((op0 + i) % kDynPatterns);
      return c.exchange(pats->sends[p][static_cast<std::size_t>(me)]);
    };
  };
  const auto check = [&](std::int64_t op0) {
    return [&, op0](Rank me, int i, const std::vector<stfw::InboundMessage>& got,
                    ExchangeRecords& r) {
      const auto p = static_cast<std::size_t>((op0 + i) % kDynPatterns);
      r.error[r.at(i, me)] = check_inbound(got, pats->expect[p][static_cast<std::size_t>(me)]);
    };
  };
  repeat_setup(res, tracer.get(), [&] {
    cluster.reset();
    pats.reset();
    {
      const Scope span(tracer.get(), Tracer::kMainTrack, SpanName::kPatternBuild);
      pats = dynamic_patterns(opt.seed);
    }
    {
      const Scope span(tracer.get(), Tracer::kMainTrack, SpanName::kClusterCreate);
      cluster = std::make_unique<stfw::runtime::Cluster>(kDynRanks);
    }
    // Warm-up: one exchange, so thread and allocator start-up is set-up cost.
    ExchangeRecords recs(kDynRanks, 1);
    run_exchanges(*cluster, vpt, -1, SpanName::kExchange, tracer.get(), nullptr, recs,
                  submit(0), check(0));
    std::vector<double> unused;
    res.attempted += record_ops(recs, res, unused, -1);
  });
  res.note("ranks", std::to_string(kDynRanks));
  res.note("vpt_dims", dims_json(vpt));
  res.note("patterns", std::to_string(kDynPatterns));
  res.note("batch", std::to_string(kBatch));

  std::unique_ptr<TapSet> taps;
  if (opt.trace) {
    taps = std::make_unique<TapSet>(kDynRanks, vpt.dim(), tracer.get());
    taps->install(*cluster);
  }
  ExchangeLayers layers;
  timed_loop(opt, res, tracer.get(), [&](std::int64_t op0, Tracer* tr, std::vector<double>& out) {
    ExchangeRecords recs(kDynRanks, kBatch);
    try {
      run_exchanges(*cluster, vpt, op0, SpanName::kExchange, tr, tr ? taps.get() : nullptr,
                    recs, submit(op0), check(op0));
    } catch (const std::exception& e) {
      res.fail("ops " + std::to_string(op0) + "+: " + describe(e), kBatch);
      return static_cast<std::int64_t>(kBatch);
    }
    if (tr != nullptr)
      layers.absorb(recs, [&](int i) {
        return static_cast<double>(pats->payload_bytes[static_cast<std::size_t>(
            (op0 + i) % kDynPatterns)]);
      }, res);
    return record_ops(recs, res, out, op0);
  });
  if (opt.trace) {
    cluster->set_wire_tap(nullptr);
    layers.report(res, false);
    layers.report_plan_cache(res);
    probe_cluster_run(*cluster, res, tracer.get());
  }
  finish_trace(tracer.get(), opt, res);
  return res;
}

// --- resilient_drop_k64 ------------------------------------------------------------------

Result run_resilient(const Options& opt) {
  Result res;
  init_layers(res);
  const Vpt vpt = Vpt::balanced(kSpmvRanks, kSpmvDim);
  std::unique_ptr<Tracer> tracer =
      opt.trace ? std::make_unique<Tracer>(kSpmvRanks, kSpansPerTrack, kPostsPerTrack) : nullptr;

  std::unique_ptr<Instance> inst;
  std::unique_ptr<SpmvTraffic> traffic;
  std::unique_ptr<stfw::runtime::Cluster> cluster;
  std::shared_ptr<stfw::fault::FaultInjector> injector;
  double drop_prob = 0.0;
  const auto submit = [&](stfw::StfwCommunicator& c, Rank me, int) {
    return c.exchange_resilient(traffic->sends[static_cast<std::size_t>(me)]);
  };
  const auto check = [&](Rank me, int i, const stfw::ResilientExchangeResult& got,
                         ExchangeRecords& r) {
    const std::size_t slot = r.at(i, me);
    r.recovered[slot] = got.fully_recovered ? 1 : 0;
    if (!got.fully_recovered || !got.failure.empty())
      r.error[slot] = "not fully recovered: " + got.failure.to_string();
    else
      r.error[slot] = check_inbound(got.delivered, traffic->expect[static_cast<std::size_t>(me)]);
  };
  repeat_setup(res, tracer.get(), [&] {
    cluster.reset();
    traffic.reset();
    inst.reset();
    inst = build_instance(kSpmvMatrix, kSpmvScale, kSpmvRanks, true, opt.seed, &res, tracer.get());
    traffic = spmv_traffic(*inst->problem,
                           seeded_vector(static_cast<std::size_t>(inst->matrix.num_rows()),
                                         opt.seed));
    {
      const Scope span(tracer.get(), Tracer::kMainTrack, SpanName::kClusterCreate);
      cluster = std::make_unique<stfw::runtime::Cluster>(kSpmvRanks);
    }
    // Calibration: one fault-free exchange counts the posts the injector
    // would rule on, which sets the drop probability.
    const Scope span(tracer.get(), Tracer::kMainTrack, SpanName::kCalibrate);
    TapSet taps(kSpmvRanks, vpt.dim(), nullptr);
    taps.install(*cluster);
    ExchangeRecords recs(kSpmvRanks, 1);
    std::vector<std::int64_t> faultable(static_cast<std::size_t>(kSpmvRanks), 0);
    run_exchanges(*cluster, vpt, -1, SpanName::kExchangeResilient, tracer.get(), &taps, recs,
                  submit, [&](Rank me, int i, const stfw::ResilientExchangeResult& got,
                             ExchangeRecords& r) {
                    faultable[static_cast<std::size_t>(me)] = taps.faultable_posts(me);
                    check(me, i, got, r);
                  });
    cluster->set_wire_tap(nullptr);
    std::vector<double> unused;
    res.attempted += record_ops(recs, res, unused, -1);
    std::int64_t posts = 0;
    for (const std::int64_t n : faultable) posts += n;
    drop_prob = kDropsPerExchange / static_cast<double>(std::max<std::int64_t>(1, posts));
    stfw::fault::FaultConfig cfg;
    cfg.seed = mix(opt.seed ^ 0x64726f70ull);
    cfg.drop_prob = drop_prob;
    injector = std::make_shared<stfw::fault::FaultInjector>(cfg);
    cluster->set_fault_injector(injector);
  });
  note_instance(res, kSpmvMatrix, *inst);
  res.note("ranks", std::to_string(kSpmvRanks));
  res.note("vpt_dims", dims_json(vpt));
  res.note("drop_prob", json_num(drop_prob));
  res.note("batch", std::to_string(kBatch));

  std::unique_ptr<TapSet> taps;
  if (opt.trace) {
    taps = std::make_unique<TapSet>(kSpmvRanks, vpt.dim(), tracer.get());
    taps->install(*cluster);
  }
  ExchangeLayers layers;
  std::int64_t drops = 0;
  timed_loop(opt, res, tracer.get(), [&](std::int64_t op0, Tracer* tr, std::vector<double>& out) {
    ExchangeRecords recs(kSpmvRanks, kBatch);
    const std::int64_t drops0 = injector->counters().drops;
    try {
      run_exchanges(*cluster, vpt, op0, SpanName::kExchangeResilient, tr,
                    tr ? taps.get() : nullptr, recs, submit, check);
    } catch (const std::exception& e) {
      res.fail("ops " + std::to_string(op0) + "+: " + describe(e), kBatch);
      return static_cast<std::int64_t>(kBatch);
    }
    if (tr != nullptr) {
      drops += injector->counters().drops - drops0;
      layers.absorb(recs, [&](int) { return static_cast<double>(traffic->payload_bytes); }, res);
    }
    return record_ops(recs, res, out, op0);
  });
  if (opt.trace) {
    cluster->set_wire_tap(nullptr);
    layers.report(res, true);
    layers.report_plan_cache(res);
    if (layers.exchanges > 0)
      res.layer["fault.drops_injected_per_exchange"] =
          static_cast<double>(drops) / layers.exchanges;
    res.layer["fault.retransmits_per_drop"] =
        drops > 0 ? layers.retransmits / static_cast<double>(drops) : 0.0;
    probe_local_spmv(*inst->problem, res, tracer.get());
    cluster->set_fault_injector(nullptr);
    probe_cluster_run(*cluster, res, tracer.get());
  }
  finish_trace(tracer.get(), opt, res);
  return res;
}

}  // namespace

void Result::fail(const std::string& what, std::int64_t ops) {
  failed += ops;
  if (first_mismatch.empty()) first_mismatch = what;
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"spmv_stfw2_k64", "dynamic_bl_k128",
                                              "resilient_drop_k64"};
  return names;
}

Result run_workload(const Options& opt) {
  Result res;
  if (opt.workload == "spmv_stfw2_k64")
    res = run_spmv(opt);
  else if (opt.workload == "dynamic_bl_k128")
    res = run_dynamic(opt);
  else if (opt.workload == "resilient_drop_k64")
    res = run_resilient(opt);
  else
    throw std::invalid_argument("unknown workload '" + opt.workload + "'");
  return res;
}

}  // namespace perfbench

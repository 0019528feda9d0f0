#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

/// \file trace.hpp
/// Benchmark-side span recorder. Spans are taken only in the benchmark's own
/// code, around calls into stfw's public functions; nothing inside the
/// library is instrumented.
///
/// Track 0 belongs to the benchmark's main thread and track r + 1 to rank r's
/// thread. Each track is written only by its own thread into buffers sized
/// up front, so recording takes no lock and allocates nothing; a record
/// that does not fit is counted and dropped. write_chrome_json() emits Chrome
/// trace-event JSON (one track per rank) that Perfetto and chrome://tracing
/// load. Every span carries its own id, its parent's id (possibly on another
/// track, e.g. a rank's exchange under the main thread's Cluster::run) and
/// the op it belongs to, which is what perfbench/stats.py needs to compute
/// self time.

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now().time_since_epoch())
      .count();
}

/// Span names; the prefix before the dot is the stfw layer the span wraps.
enum class SpanName : std::uint8_t {
  kSetup,             // bench.setup
  kGenerate,          // sparse.generate
  kPartition,         // partition.partition_rows
  kProblemBuild,      // spmv.problem_build
  kReference,         // spmv.run_serial
  kPatternBuild,      // bench.pattern_build
  kClusterCreate,     // runtime.cluster_create
  kCalibrate,         // runtime.calibrate
  kRunDistributed,    // spmv.run_distributed
  kClusterRun,        // runtime.cluster_run
  kExchange,          // runtime.exchange
  kExchangeResilient, // runtime.exchange_resilient
  kVerify,            // bench.verify
  kSweep,             // sim.sweep
  kSimulate,          // sim.simulate_exchange
  kLocalSpmv,         // sparse.local_spmv
  kClusterRunEmpty,   // runtime.cluster_run_empty
};

const char* span_name(SpanName n);

class Tracer {
public:
  /// `num_ranks` rank tracks plus the main track.
  Tracer(int num_ranks, std::size_t spans_per_track, std::size_t posts_per_track);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  static constexpr int kMainTrack = 0;
  static int rank_track(int rank) { return rank + 1; }

  /// Opens a span on `track` (called from that track's thread only) and
  /// returns its id, or 0 when the track's buffer is full.
  std::uint64_t open(int track, SpanName name, std::int64_t op, std::uint64_t parent,
                     std::int64_t arg = 0);
  void close(int track, std::uint64_t id);
  /// Records a wire post on the sender's track.
  void post(int track, std::int64_t t_ns, int dest, int tag, std::size_t bytes, std::int64_t op);

  /// Records that did not fit. Posts are expected to overflow: the post log
  /// keeps only the first exchanges of each rank.
  [[nodiscard]] std::int64_t dropped_spans() const;
  [[nodiscard]] std::int64_t dropped_posts() const;

  /// Writes all tracks as Chrome trace-event JSON. `metadata_json` is a JSON
  /// object placed under the top-level "metadata" key. Returns false on I/O
  /// failure.
  bool write_chrome_json(const std::string& path, const std::string& metadata_json) const;

private:
  struct Span {
    std::int64_t t0 = 0;
    std::int64_t t1 = 0;
    std::int64_t op = -1;
    std::int64_t arg = 0;
    std::uint64_t parent = 0;
    SpanName name = SpanName::kSetup;
  };
  struct Post {
    std::int64_t t = 0;
    std::int64_t op = -1;
    std::int32_t dest = 0;
    std::int32_t tag = 0;
    std::uint64_t bytes = 0;
  };
  struct Track {
    std::vector<Span> spans;
    std::vector<Post> posts;
    std::int64_t dropped_spans = 0;
    std::int64_t dropped_posts = 0;
  };

  static std::uint64_t make_id(int track, std::size_t index) {
    return (static_cast<std::uint64_t>(track) << 32) | (index + 1);
  }

  std::int64_t epoch_ns_;
  std::size_t span_cap_;
  std::size_t post_cap_;
  std::vector<Track> tracks_;
};

/// RAII span; a null tracer records nothing and reads no clock.
class Scope {
public:
  Scope(Tracer* tracer, int track, SpanName name, std::int64_t op = -1, std::uint64_t parent = 0,
        std::int64_t arg = 0)
      : tracer_(tracer), track_(track),
        id_(tracer != nullptr ? tracer->open(track, name, op, parent, arg) : 0) {}
  ~Scope() {
    if (tracer_ != nullptr) tracer_->close(track_, id_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  [[nodiscard]] std::uint64_t id() const { return id_; }

private:
  Tracer* tracer_;
  int track_;
  std::uint64_t id_;
};

}  // namespace perfbench

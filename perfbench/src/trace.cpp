#include "trace.hpp"

#include <cstdio>
#include <memory>

namespace perfbench {

const char* span_name(SpanName n) {
  switch (n) {
    case SpanName::kSetup: return "bench.setup";
    case SpanName::kGenerate: return "sparse.generate";
    case SpanName::kPartition: return "partition.partition_rows";
    case SpanName::kProblemBuild: return "spmv.problem_build";
    case SpanName::kReference: return "spmv.run_serial";
    case SpanName::kPatternBuild: return "bench.pattern_build";
    case SpanName::kClusterCreate: return "runtime.cluster_create";
    case SpanName::kCalibrate: return "runtime.calibrate";
    case SpanName::kRunDistributed: return "spmv.run_distributed";
    case SpanName::kClusterRun: return "runtime.cluster_run";
    case SpanName::kExchange: return "runtime.exchange";
    case SpanName::kExchangeResilient: return "runtime.exchange_resilient";
    case SpanName::kVerify: return "bench.verify";
    case SpanName::kSweep: return "sim.sweep";
    case SpanName::kSimulate: return "sim.simulate_exchange";
    case SpanName::kLocalSpmv: return "sparse.local_spmv";
    case SpanName::kClusterRunEmpty: return "runtime.cluster_run_empty";
  }
  return "?";
}

Tracer::Tracer(int num_ranks, std::size_t spans_per_track, std::size_t posts_per_track)
    : epoch_ns_(now_ns()),
      span_cap_(spans_per_track),
      post_cap_(posts_per_track),
      tracks_(static_cast<std::size_t>(num_ranks) + 1) {
  for (Track& t : tracks_) {
    t.spans.reserve(span_cap_);
    t.posts.reserve(post_cap_);
  }
}

std::uint64_t Tracer::open(int track, SpanName name, std::int64_t op, std::uint64_t parent,
                           std::int64_t arg) {
  Track& t = tracks_[static_cast<std::size_t>(track)];
  if (t.spans.size() >= span_cap_) {
    ++t.dropped_spans;
    return 0;
  }
  Span s;
  s.name = name;
  s.op = op;
  s.parent = parent;
  s.arg = arg;
  s.t0 = now_ns();
  t.spans.push_back(s);
  return make_id(track, t.spans.size() - 1);
}

void Tracer::close(int track, std::uint64_t id) {
  if (id == 0) return;
  const std::int64_t t1 = now_ns();
  tracks_[static_cast<std::size_t>(track)].spans[(id & 0xffffffffu) - 1].t1 = t1;
}

void Tracer::post(int track, std::int64_t t_ns, int dest, int tag, std::size_t bytes,
                  std::int64_t op) {
  Track& t = tracks_[static_cast<std::size_t>(track)];
  if (t.posts.size() >= post_cap_) {
    ++t.dropped_posts;
    return;
  }
  t.posts.push_back(Post{t_ns, op, dest, tag, bytes});
}

std::int64_t Tracer::dropped_spans() const {
  std::int64_t n = 0;
  for (const Track& t : tracks_) n += t.dropped_spans;
  return n;
}

std::int64_t Tracer::dropped_posts() const {
  std::int64_t n = 0;
  for (const Track& t : tracks_) n += t.dropped_posts;
  return n;
}

bool Tracer::write_chrome_json(const std::string& path, const std::string& metadata_json) const {
  std::unique_ptr<std::FILE, int (*)(std::FILE*)> f(std::fopen(path.c_str(), "w"), &std::fclose);
  if (!f) return false;
  std::FILE* out = f.get();
  const auto us = [&](std::int64_t t_ns) { return static_cast<double>(t_ns - epoch_ns_) / 1e3; };
  std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"metadata\":%s,\"traceEvents\":[\n",
               metadata_json.c_str());
  std::fprintf(out,
               "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\","
               "\"args\":{\"name\":\"stfw_perfbench\"}}");
  for (std::size_t tr = 0; tr < tracks_.size(); ++tr) {
    if (tr == 0)
      std::fprintf(out,
                   ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"thread_name\","
                   "\"args\":{\"name\":\"bench main\"}}");
    else
      std::fprintf(out,
                   ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":%zu,\"name\":\"thread_name\","
                   "\"args\":{\"name\":\"rank %zu\"}}",
                   tr, tr - 1);
    std::fprintf(out,
                 ",\n{\"ph\":\"M\",\"pid\":1,\"tid\":%zu,\"name\":\"thread_sort_index\","
                 "\"args\":{\"sort_index\":%zu}}",
                 tr, tr);
  }
  for (std::size_t tr = 0; tr < tracks_.size(); ++tr) {
    const Track& t = tracks_[tr];
    for (std::size_t i = 0; i < t.spans.size(); ++i) {
      const Span& s = t.spans[i];
      if (s.t1 == 0) continue;  // never closed (an exception unwound past it)
      std::fprintf(out,
                   ",\n{\"ph\":\"X\",\"pid\":1,\"tid\":%zu,\"name\":\"%s\",\"ts\":%.3f,"
                   "\"dur\":%.3f,\"args\":{\"id\":%llu,\"parent\":%llu,\"op\":%lld,"
                   "\"arg\":%lld}}",
                   tr, span_name(s.name), us(s.t0), static_cast<double>(s.t1 - s.t0) / 1e3,
                   static_cast<unsigned long long>(make_id(static_cast<int>(tr), i)),
                   static_cast<unsigned long long>(s.parent), static_cast<long long>(s.op),
                   static_cast<long long>(s.arg));
    }
    for (const Post& p : t.posts)
      std::fprintf(out,
                   ",\n{\"ph\":\"i\",\"s\":\"t\",\"pid\":1,\"tid\":%zu,\"name\":\"post\","
                   "\"ts\":%.3f,\"args\":{\"dest\":%d,\"tag\":%d,\"bytes\":%llu,\"op\":%lld}}",
                   tr, us(p.t), p.dest, p.tag, static_cast<unsigned long long>(p.bytes),
                   static_cast<long long>(p.op));
  }
  std::fprintf(out, "\n]}\n");
  return std::ferror(out) == 0;
}

}  // namespace perfbench

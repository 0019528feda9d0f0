#include "comm.hpp"

#include <algorithm>
#include <exception>
#include <thread>

#include "core/error.hpp"
#include "fault/fault_injector.hpp"

namespace stfw::runtime {

using core::MutexLock;
using core::require;

namespace {

// reserve_tags hands out [0, kTagRange); the release post of an arrival
// round on tag t carries t | kReleaseBit, outside every stage tag.
constexpr int kTagRange = 1 << 28;
constexpr int kReleaseBit = 1 << 29;

long long ms_since(std::chrono::steady_clock::time_point t) {
  return std::chrono::duration_cast<std::chrono::milliseconds>(verify::verify_now() - t)
      .count();
}

}  // namespace

int Comm::size() const noexcept { return cluster_->size(); }

void Comm::send(int dest, int tag, std::vector<std::byte> data) {
  require(dest >= 0 && dest < cluster_->size(), "Comm::send: destination out of range");
  cluster_->post(dest, Message{rank_, tag, std::move(data)});
}

Message Comm::recv(int source, int tag) {
  return cluster_->blocking_recv(rank_, source, tag, Deadline::never());
}

Message Comm::recv(int source, int tag, Deadline deadline) {
  return cluster_->blocking_recv(rank_, source, tag, deadline);
}

void Comm::drain(int tag, std::vector<Message>& out) { cluster_->drain(rank_, tag, out); }

void Comm::arrive(std::span<const int> group, int tag) { cluster_->arrive(rank_, group, tag); }

void Comm::await_arrival(std::span<const int> group, int tag, Deadline deadline) {
  require(!group.empty(), "Comm::await_arrival: empty group");
  (void)cluster_->blocking_recv(rank_, kAnySource, tag | kReleaseBit, deadline, group);
}

int Comm::reserve_tags(int count) {
  require(count >= 1 && count <= kTagRange, "Comm::reserve_tags: count out of range");
  int base = (next_tag_ + count - 1) / count * count;
  if (base > kTagRange - count) base = 0;
  next_tag_ = base + count;
  return base;
}

bool Comm::probe(int source, int tag) { return cluster_->probe(rank_, source, tag); }

bool Comm::wait_message(Deadline deadline, std::uint32_t seen_epoch) {
  return cluster_->wait_message(rank_, deadline, seen_epoch);
}

void Comm::barrier() { cluster_->barrier_wait(rank_, Deadline::never()); }

void Comm::barrier(Deadline deadline) { cluster_->barrier_wait(rank_, deadline); }

void Comm::flush_delayed() { cluster_->flush_delayed(); }

fault::FaultInjector* Comm::fault_injector() const noexcept {
  return cluster_->fault_injector().get();
}

const Membership& Comm::membership() const noexcept { return cluster_->membership(); }

std::vector<std::vector<std::byte>> Comm::allgather(std::vector<std::byte> mine) {
  return allgather(std::move(mine), Deadline::never());
}

std::vector<std::vector<std::byte>> Comm::allgather(std::vector<std::byte> mine,
                                                    Deadline deadline) {
  constexpr int kGatherTag = -1000;
  constexpr int kBcastTag = -1001;
  const int n = size();
  std::vector<std::vector<std::byte>> all(static_cast<std::size_t>(n));
  if (rank_ == 0) {
    all[0] = std::move(mine);
    for (int i = 1; i < n; ++i) {
      Message m = recv(kAnySource, kGatherTag, deadline);
      all[static_cast<std::size_t>(m.source)] = std::move(m.data);
    }
    // Broadcast back as a single concatenated buffer with a length header.
    std::vector<std::byte> packed;
    for (const auto& part : all) {
      const auto len = static_cast<std::uint64_t>(part.size());
      const auto* p = reinterpret_cast<const std::byte*>(&len);
      packed.insert(packed.end(), p, p + sizeof(len));
      packed.insert(packed.end(), part.begin(), part.end());
    }
    for (int i = 1; i < n; ++i) send(i, kBcastTag, packed);
  } else {
    send(0, kGatherTag, std::move(mine));
    Message m = recv(0, kBcastTag, deadline);
    std::size_t pos = 0;
    for (int i = 0; i < n; ++i) {
      std::uint64_t len = 0;
      std::copy_n(m.data.begin() + static_cast<std::ptrdiff_t>(pos), sizeof(len),
                  reinterpret_cast<std::byte*>(&len));
      pos += sizeof(len);
      all[static_cast<std::size_t>(i)].assign(
          m.data.begin() + static_cast<std::ptrdiff_t>(pos),
          m.data.begin() + static_cast<std::ptrdiff_t>(pos + len));
      pos += len;
    }
  }
  return all;
}

Cluster::Cluster(int num_ranks) : num_ranks_(num_ranks) {
  require(num_ranks >= 1, "Cluster: need at least one rank");
  mailboxes_.reserve(static_cast<std::size_t>(num_ranks));
  for (int i = 0; i < num_ranks; ++i) mailboxes_.push_back(std::make_unique<Mailbox>());
  block_state_.resize(static_cast<std::size_t>(num_ranks));
  membership_.reset(num_ranks);
}

Cluster::~Cluster() = default;

void Cluster::set_fault_injector(std::shared_ptr<fault::FaultInjector> injector) {
  injector_ = std::move(injector);
}

void Cluster::run(const std::function<void(Comm&)>& fn) {
  // Decided once per run, quiescently, before any rank thread exists.
  watchdog_run_ = watchdog_window_.count() > 0;
  wakeups_.store(0, std::memory_order_relaxed);
  arrival_waiters_.store(0);  // the waiter records are reset below
  returned_count_.store(0);
  for (int r = 0; r < num_ranks_; ++r) {
    const auto& mb = mailboxes_[static_cast<std::size_t>(r)];
    {
      // Rounds left open by an aborted run never complete; like the barrier
      // count, the arrival state is rearmed for every run.
      MutexLock lock(mb->rounds_mu);
      STFW_VERIFY_WRITE(&mb->rounds, "Cluster::run arrival reset");
      mb->rounds.clear();
      mb->returned.store(false);
    }
    // No rank threads are alive here, but the previous run's monitor could
    // in principle have raced this check before TSA made the lock mandatory.
    MutexLock lock(mb->mu);
    // A receiver unwound by a stfw-verify abort never cleared its record.
    mb->waiter.kind = Waiter::Kind::kNone;
    if (!membership_.alive(r)) {
      // A rank that died last run may have collected late retransmits after
      // its mailbox was discarded; they belong to the finished run.
      STFW_VERIFY_WRITE(&mb->queue, "Cluster::run dead-rank mailbox clear");
      mb->queue.clear();
      continue;
    }
    STFW_VERIFY_READ(&mb->queue, "Cluster::run mailbox-empty precondition");
    require(mb->queue.empty(), "Cluster::run: mailbox not empty from previous run");
  }
  membership_.reset(num_ranks_);  // every run starts with all ranks alive

  {
    MutexLock lock(block_mu_);
    STFW_VERIFY_WRITE(block_state_.data(), "Cluster::run block_state reset");
    for (auto& b : block_state_) b = BlockInfo{};
    deadlock_victim_ = -1;
    deadlock_report_.clear();
  }
  deadlocked_.store(false);
  last_progress_ = progress_.load();
  last_progress_time_ = verify::verify_now();

  const bool need_monitor = watchdog_run_ || injector_ != nullptr;
  STFW_VERIFY_HOOK(region_begin(num_ranks_ + (need_monitor ? 1 : 0)));
  if (need_monitor) {
    monitor_stop_.store(false);
    monitor_ = core::Thread([this] {
      STFW_VERIFY_HOOK(thread_begin(num_ranks_, /*ticker=*/true));
      monitor_loop();
      STFW_VERIFY_HOOK(thread_end());
    });
  }

  std::vector<std::exception_ptr> errors(static_cast<std::size_t>(num_ranks_));
  std::vector<core::Thread> threads;
  threads.reserve(static_cast<std::size_t>(num_ranks_));
  for (int r = 0; r < num_ranks_; ++r) {
    threads.emplace_back(core::Thread([this, r, &fn, &errors] {
      STFW_VERIFY_HOOK(thread_begin(r, /*ticker=*/false));
      try {
        Comm comm(*this, r);
        fn(comm);
      } catch (const fault::RankCrashedError&) {
        // A survivable injected crash: this rank is dead, the cluster is
        // not. Absorb the error (Membership::failed() records the death)
        // and let the surviving ranks finish in degraded mode.
        rank_died(r);
      } catch (...) {
        errors[static_cast<std::size_t>(r)] = std::current_exception();
        abort_all();  // unblock peers stuck in recv() or barrier()
      }
      mark_returned(r);
      STFW_VERIFY_HOOK(thread_end());
    }));
  }
  for (auto& t : threads) t.join();

  if (need_monitor) {
    monitor_stop_.store(true);
    monitor_.join();
  }
  STFW_VERIFY_HOOK(region_end());
  {
    // Delayed messages still pending when the run ends were "in flight" at
    // program exit; they are dropped, keeping the cluster clean for reuse.
    MutexLock lock(delayed_mu_);
    delayed_.clear();
  }

  const bool had_error =
      std::any_of(errors.begin(), errors.end(), [](const std::exception_ptr& e) { return !!e; });
  if (!had_error) return;

  // Discard messages stranded by the abort so the cluster stays reusable.
  for (const auto& mb : mailboxes_) {
    MutexLock lock(mb->mu);
    STFW_VERIFY_WRITE(&mb->queue, "Cluster::run stranded-mailbox clear");
    mb->queue.clear();
  }
  aborted_.store(false);
  deadlocked_.store(false);
  {
    // Stragglers that saw the abort flag already decremented their slot on
    // the way out; this rearms the barrier for the next run.
    MutexLock lock(barrier_mu_);
    STFW_VERIFY_WRITE(&barrier_count_, "Cluster::run barrier rearm");
    barrier_count_ = 0;
  }

  // Partition into primary errors and secondary ClusterAbortedError noise
  // (ranks merely unblocked by a peer's failure).
  std::vector<std::size_t> primaries;
  for (std::size_t r = 0; r < errors.size(); ++r) {
    if (!errors[r]) continue;
    try {
      std::rethrow_exception(errors[r]);
    } catch (const core::ClusterAbortedError&) {
      continue;
    } catch (...) {
      primaries.push_back(r);
    }
  }
  if (primaries.empty()) {
    // Every failure was abort-induced (should not happen, but never silently
    // swallow): surface the first one.
    for (const auto& e : errors)
      if (e) std::rethrow_exception(e);
  }
  if (primaries.size() == 1) std::rethrow_exception(errors[primaries[0]]);

  std::vector<core::MultiRankError::RankFailure> failures;
  failures.reserve(primaries.size());
  for (const std::size_t r : primaries) {
    std::string what = "unknown exception";
    try {
      std::rethrow_exception(errors[r]);
    } catch (const std::exception& e) {
      what = e.what();
    } catch (...) {
    }
    failures.push_back({static_cast<int>(r), std::move(what)});
  }
  throw core::MultiRankError(std::move(failures));
}

void Cluster::abort_all() {
  aborted_.store(true);
  for (const auto& mb : mailboxes_) {
    MutexLock lock(mb->mu);
    mb->cv.notify_all();
  }
  {
    MutexLock lock(barrier_mu_);
    barrier_cv_.notify_all();
  }
}

void Cluster::rank_died(int me) {
  membership_.mark_failed(me);
  {
    // Whatever is queued for the dead rank will never be read; drop it so
    // the cluster stays reusable. Late posts racing this clear are caught
    // by the next run()'s dead-mailbox sweep.
    Mailbox& mb = *mailboxes_[static_cast<std::size_t>(me)];
    MutexLock lock(mb.mu);
    STFW_VERIFY_WRITE(&mb.queue, "Cluster::rank_died mailbox clear");
    mb.queue.clear();
  }
  {
    // A barrier the survivors have already fully entered must release now:
    // the dead rank will never arrive to complete it.
    MutexLock lock(barrier_mu_);
    maybe_release_barrier();
  }
  // Wake every blocked thread so it re-evaluates against the new membership:
  // wait_message returns on the epoch change, and an arrival wait fails on
  // a dead absent member. A death is progress, not silence — it must not
  // trip the deadlock watchdog.
  note_progress();
  for (const auto& mb : mailboxes_) {
    MutexLock lock(mb->mu);
    mb->cv.notify_all();
  }
}

void Cluster::mark_returned(int me) {
  Mailbox& own = *mailboxes_[static_cast<std::size_t>(me)];
  own.returned.store(true);
  returned_count_.fetch_add(1);
  if (arrival_waiters_.load() == 0) return;  // see blocking_recv
  // Only a wait on a round that is still open can be stranded; that skips
  // the members still waking from the last stage's release posts.
  for (int r = 0; r < num_ranks_; ++r) {
    Mailbox& mb = *mailboxes_[static_cast<std::size_t>(r)];
    MutexLock lock(mb.mu);
    const Waiter& w = mb.waiter;
    if (w.kind == Waiter::Kind::kRecv && !w.group.empty() &&
        stranded(r, w.group, w.tag ^ kReleaseBit, false, 0))
      mb.cv.notify_one();
  }
}

void Cluster::set_block_state(int me, BlockInfo::Kind kind, int source, int tag) {
  if (!watchdog_run_) return;
  MutexLock lock(block_mu_);
  STFW_VERIFY_WRITE(block_state_.data(), "Cluster::set_block_state");
  BlockInfo& b = block_state_[static_cast<std::size_t>(me)];
  b.kind = kind;
  b.source = source;
  b.tag = tag;
  b.since = verify::verify_now();
}

void Cluster::throw_if_torn_down(int me, const char* op) {
  if (deadlocked_.load() || aborted_.load()) throw_torn_down(me, op);
}

void Cluster::throw_torn_down(int me, const char* op) {
  if (deadlocked_.load()) {
    std::string report;
    bool victim = false;
    {
      MutexLock lock(block_mu_);
      victim = (deadlock_victim_ == me);
      report = deadlock_report_;
    }
    if (victim)
      throw core::DeadlockError(me, watchdog_window_.count(), report);
    throw core::ClusterAbortedError(std::string("Comm::") + op +
                                    ": cluster aborted by the deadlock watchdog");
  }
  throw core::ClusterAbortedError(std::string("Comm::") + op +
                                  ": cluster aborted by a peer exception");
}

// --- fault-injected posting -------------------------------------------------

void Cluster::post(int dest, Message msg) {
  if (wire_tap_) wire_tap_(msg.source, dest, msg.tag, msg.data);
  if (injector_ != nullptr) {
    const fault::MessageDecision d =
        injector_->on_post(msg.source, dest, msg.tag, msg.data.size());
    if (d.drop) return;
    if (d.duplicate) post_raw(dest, msg);  // extra pristine copy, in order
    if (d.truncate_to < msg.data.size()) msg.data.resize(d.truncate_to);
    if (d.delay.count() > 0) {
      MutexLock lock(delayed_mu_);
      STFW_VERIFY_WRITE(&delayed_, "Cluster::post delayed enqueue");
      delayed_.push_back(DelayedMessage{verify::verify_now() + d.delay, dest, std::move(msg)});
      return;
    }
    post_raw(dest, std::move(msg), d.reorder);
    return;
  }
  post_raw(dest, std::move(msg));
}

void Cluster::post_raw(int dest, Message msg, bool to_front) {
  // A message for a dead rank is dropped at the post site, like a packet
  // into an unplugged NIC. any_failed() keeps the healthy hot path at one
  // relaxed atomic load. Also covers the monitor's delayed-message pump.
  if (membership_.any_failed() && !membership_.alive(dest)) return;
  Mailbox& mb = *mailboxes_[static_cast<std::size_t>(dest)];
#if STFW_VERIFY_ENABLED
  // Send edge: a scheduler branch point, and the id ties the matching recv's
  // happens-before join back to this exact enqueue.
  if (verify::Hooks* h = verify::hooks())
    msg.verify_id = h->mailbox_send(msg.source, dest, msg.tag);
#endif
  bool wake = false;
  {
    MutexLock lock(mb.mu);
    wake = mb.waiter.completed_by(msg);
    if (wake) mb.waiter.kind = Waiter::Kind::kNone;  // later posts need not wake
    STFW_VERIFY_WRITE(&mb.queue, "Cluster::post_raw enqueue");
    if (to_front)
      mb.queue.push_front(std::move(msg));
    else
      mb.queue.push_back(std::move(msg));
  }
  note_progress();
  if (wake) {
    // The owner is the only thread that waits on mb.cv, so notify_one is
    // enough. It is already asleep: it recorded the wait and released mu
    // inside one cv wait, and this post saw the record under mu.
    wakeups_.fetch_add(1, std::memory_order_relaxed);
    mb.cv.notify_one();
  }
}

void Cluster::flush_delayed() {
  std::vector<DelayedMessage> due;
  {
    MutexLock lock(delayed_mu_);
    STFW_VERIFY_WRITE(&delayed_, "Cluster::flush_delayed drain");
    due.swap(delayed_);
  }
  for (DelayedMessage& d : due) post_raw(d.dest, std::move(d.msg));
}

// --- blocking primitives ----------------------------------------------------

namespace {

bool matches(const Message& m, int source, int tag) {
  return m.tag == tag && (source == kAnySource || m.source == source);
}

/// The open round (tag, group) in a shard's list, or rounds.end().
template <class Rounds>
auto find_round(Rounds& rounds, int tag, std::span<const int> group) {
  return std::find_if(rounds.begin(), rounds.end(), [&](const auto& r) {
    return r.tag == tag && std::equal(r.members.begin(), r.members.end(), group.begin(),
                                      group.end());
  });
}

}  // namespace

// Each primitive scans the queue, checks teardown and its deadline, then
// records in mb.waiter what would complete it and sleeps. The record is
// written under the same hold of mu as the scan, so no post falls between
// "nothing matched" and "asleep". After any wakeup the record is cleared
// and the queue rescanned: a completing post, a spurious wakeup and the
// teardown/death/return broadcasts all take the same path.

bool Cluster::Waiter::completed_by(const Message& m) const {
  return kind == Kind::kAny || (kind == Kind::kRecv && matches(m, source, tag));
}

void Cluster::sleep_on(Mailbox& mb, MutexLock& lock, Deadline deadline) {
  if (deadline.is_never())
    mb.cv.wait(lock);
  else
    mb.cv.wait_until(lock, deadline.at);
  mb.waiter.kind = Waiter::Kind::kNone;
}

Message Cluster::blocking_recv(int me, int source, int tag, Deadline deadline,
                               std::span<const int> group) {
  const char* op = group.empty() ? "recv" : "await_arrival";
  const int round = group.empty() ? tag : tag ^ kReleaseBit;  // the arrival round's tag
  Mailbox& mb = *mailboxes_[static_cast<std::size_t>(me)];
  const auto entered = verify::verify_now();
  bool registered = false;
  // An arrival wait is counted before it first looks for returned members:
  // mark_returned visits the mailboxes of counted waits, so a member that
  // returns after that look still wakes this one.
  const int counted = group.empty() ? 0 : 1;
  arrival_waiters_.fetch_add(counted);
  const struct Uncount {
    std::atomic<int>& n;
    int k;
    ~Uncount() { n.fetch_sub(k); }
  } uncount{arrival_waiters_, counted};
  MutexLock lock(mb.mu);
  for (;;) {
    STFW_VERIFY_READ(&mb.queue, "Cluster::blocking_recv scan");
    auto it = std::find_if(mb.queue.begin(), mb.queue.end(),
                           [&](const Message& m) { return matches(m, source, tag); });
    if (it != mb.queue.end()) {
      Message out = std::move(*it);
      STFW_VERIFY_WRITE(&mb.queue, "Cluster::blocking_recv dequeue");
      mb.queue.erase(it);
      STFW_VERIFY_HOOK(mailbox_recv(me, out.source, out.tag, out.verify_id));
      if (registered) set_block_state(me, BlockInfo::Kind::kRunning);
      note_progress();
      return out;
    }
    throw_if_torn_down(me, op);
    const bool expired = deadline.expired();
    if (!group.empty() && (expired || membership_.any_failed() || returned_count_.load() > 0)) {
      if (auto error = stranded(me, group, round, expired, ms_since(entered))) {
        if (registered) set_block_state(me, BlockInfo::Kind::kRunning);
        throw *error;
      }
      // Every member arrived: the release post is on its way.
      if (expired) deadline = Deadline::never();
    } else if (expired) {
      if (registered) set_block_state(me, BlockInfo::Kind::kRunning);
      throw core::TimeoutError("recv", me, source, tag, ms_since(entered),
                               "no matching message arrived before the deadline");
    }
    if (!registered) {
      set_block_state(me, group.empty() ? BlockInfo::Kind::kRecv : BlockInfo::Kind::kArrival,
                      source, round);
      registered = true;
    }
    mb.waiter = Waiter{Waiter::Kind::kRecv, source, tag, group};
    sleep_on(mb, lock, deadline);
  }
}

void Cluster::arrive(int me, std::span<const int> group, int tag) {
  require(tag >= 0 && tag < kReleaseBit, "Comm::arrive: tag out of range");
  require(std::adjacent_find(group.begin(), group.end(), std::greater_equal<>()) == group.end() &&
              std::binary_search(group.begin(), group.end(), me) && group.front() >= 0 &&
              group.back() < num_ranks_,
          "Comm::arrive: the group must be ascending ranks that include the caller");
  if (group.size() > 1) {
    const auto slot =
        static_cast<std::size_t>(std::lower_bound(group.begin(), group.end(), me) - group.begin());
    Mailbox& shard = *mailboxes_[static_cast<std::size_t>(group.front())];
    MutexLock lock(shard.rounds_mu);
    STFW_VERIFY_WRITE(&shard.rounds, "Cluster::arrive count");
    auto& rounds = shard.rounds;
    auto it = find_round(rounds, tag, group);
    if (it == rounds.end()) {  // the first arrival opens the round
      rounds.push_back(ArrivalRound{tag, {group.begin(), group.end()},
                                    std::vector<std::uint8_t>(group.size(), 0), 0});
      it = rounds.end() - 1;
    }
    it->arrived[slot] = 1;
    if (++it->count < group.size()) return;
    *it = std::move(rounds.back());  // the last arrival closes it
    rounds.pop_back();
  }
  // The last arrival releases every member, itself included, with one
  // post each, so a waiting member wakes once. The post bypasses the
  // injector and the wire tap: it is runtime control, not traffic.
  for (const int m : group) post_raw(m, Message{me, tag | kReleaseBit, {}});
}

std::optional<core::TimeoutError> Cluster::stranded(int me, std::span<const int> group, int tag,
                                                    bool expired, long long waited_ms) {
  std::vector<int> absent;
  std::vector<int> left;  // absent members that returned: they can never arrive
  {
    Mailbox& shard = *mailboxes_[static_cast<std::size_t>(group.front())];
    MutexLock lock(shard.rounds_mu);
    STFW_VERIFY_READ(&shard.rounds, "Cluster::stranded");
    const auto it = find_round(shard.rounds, tag, group);
    // Closed: every member arrived, and the release posts are on their way.
    if (it == shard.rounds.end()) return std::nullopt;
    // Death and return are read under the round's lock, so a member that
    // arrives later cannot have done either yet.
    for (std::size_t i = 0; i < it->members.size(); ++i) {
      if (it->arrived[i] != 0) continue;
      const int m = it->members[i];
      if (membership_.any_failed() && !membership_.alive(m))
        return core::TimeoutError("await_arrival", me, m, tag, waited_ms,
                                  "group member " + std::to_string(m) + " died before arriving");
      absent.push_back(m);
      if (mailboxes_[static_cast<std::size_t>(m)]->returned.load()) left.push_back(m);
    }
  }
  const auto names = [](const std::vector<int>& ranks) {
    std::string out;
    for (const int m : ranks) out += (out.empty() ? "" : ", ") + std::to_string(m);
    return out;
  };
  if (!left.empty())
    return core::TimeoutError("await_arrival", me, left.front(), tag, waited_ms,
                              "group member(s) " + names(left) +
                                  " did not arrive and returned from the run function");
  if (!expired || absent.empty()) return std::nullopt;
  return core::TimeoutError("await_arrival", me, absent.front(), tag, waited_ms,
                            "group member(s) " + names(absent) +
                                " did not arrive before the deadline");
}

void Cluster::drain(int me, int tag, std::vector<Message>& out) {
  Mailbox& mb = *mailboxes_[static_cast<std::size_t>(me)];
  const auto first = static_cast<std::ptrdiff_t>(out.size());
  MutexLock lock(mb.mu);
  STFW_VERIFY_WRITE(&mb.queue, "Cluster::drain sweep");
  for (auto it = mb.queue.begin(); it != mb.queue.end();) {
    if (it->tag != tag) {
      ++it;
      continue;
    }
    STFW_VERIFY_HOOK(mailbox_recv(me, it->source, it->tag, it->verify_id));
    // Sorted by source, then arrival, by insertion into the appended part:
    // drains are short, and a stable sort would allocate a buffer.
    out.insert(
        std::ranges::upper_bound(out.begin() + first, out.end(), it->source, {}, &Message::source),
        std::move(*it));
    it = mb.queue.erase(it);
  }
}

bool Cluster::probe(int me, int source, int tag) {
  Mailbox& mb = *mailboxes_[static_cast<std::size_t>(me)];
  MutexLock lock(mb.mu);
  STFW_VERIFY_READ(&mb.queue, "Cluster::probe scan");
  return std::any_of(mb.queue.begin(), mb.queue.end(),
                     [&](const Message& m) { return matches(m, source, tag); });
}

bool Cluster::wait_message(int me, Deadline deadline, std::uint32_t seen_epoch) {
  Mailbox& mb = *mailboxes_[static_cast<std::size_t>(me)];
  bool registered = false;
  MutexLock lock(mb.mu);
  for (;;) {
    STFW_VERIFY_READ(&mb.queue, "Cluster::wait_message poll");
    if (!mb.queue.empty()) {
      if (registered) set_block_state(me, BlockInfo::Kind::kRunning);
      return true;
    }
    throw_if_torn_down(me, "wait_message");
    // Read under mu before every sleep: rank_died bumps the epoch and then
    // takes mu to notify, so a death after this read still wakes us.
    if (deadline.expired() || membership_.epoch() != seen_epoch) {
      if (registered) set_block_state(me, BlockInfo::Kind::kRunning);
      return false;
    }
    if (!registered) {
      set_block_state(me, BlockInfo::Kind::kWait, kAnySource, 0);
      registered = true;
    }
    mb.waiter.kind = Waiter::Kind::kAny;
    sleep_on(mb, lock, deadline);
  }
}

void Cluster::maybe_release_barrier() {
  STFW_VERIFY_READ(&barrier_count_, "Cluster::maybe_release_barrier check");
  if (barrier_count_ == 0) return;
  // The release target is the number of ranks that can still arrive. A dead
  // rank cannot be parked inside the barrier (crash sites are stage
  // boundaries, never blocking primitives), so its arrival is simply never.
  if (barrier_count_ < membership_.alive_count()) return;
  barrier_count_ = 0;
  STFW_VERIFY_WRITE(&barrier_generation_, "Cluster::barrier_wait release");
  ++barrier_generation_;
  note_progress();
  barrier_cv_.notify_all();
}

void Cluster::barrier_wait(int me, Deadline deadline) {
  const auto entered = verify::verify_now();
  bool registered = false;
  MutexLock lock(barrier_mu_);
  const std::uint64_t gen = barrier_generation_;
  STFW_VERIFY_WRITE(&barrier_count_, "Cluster::barrier_wait arrive");
  ++barrier_count_;
  maybe_release_barrier();
  if (barrier_generation_ != gen) return;  // our arrival completed it
  for (;;) {
    STFW_VERIFY_READ(&barrier_generation_, "Cluster::barrier_wait generation check");
    if (barrier_generation_ != gen) {
      if (registered) set_block_state(me, BlockInfo::Kind::kRunning);
      return;
    }
    if (deadlocked_.load() || aborted_.load()) {
      STFW_VERIFY_WRITE(&barrier_count_, "Cluster::barrier_wait abort retreat");
      --barrier_count_;
      if (registered) set_block_state(me, BlockInfo::Kind::kRunning);
      // Release before throwing: throw_torn_down takes block_mu_, and
      // holding barrier_mu_ across it would nest the two (documented order:
      // barrier/mailbox mutex first, block_mu_ second — but never both
      // across a throw). [[noreturn]] keeps the TSA path terminal.
      lock.unlock();
      throw_torn_down(me, "barrier");
    }
    if (deadline.expired()) {
      --barrier_count_;
      if (registered) set_block_state(me, BlockInfo::Kind::kRunning);
      throw core::TimeoutError("barrier", me, -1, 0, ms_since(entered),
                               "not all ranks reached the barrier before the deadline");
    }
    if (!registered) {
      set_block_state(me, BlockInfo::Kind::kBarrier);
      registered = true;
    }
    if (deadline.is_never())
      barrier_cv_.wait(lock);
    else
      barrier_cv_.wait_until(lock, deadline.at);
  }
}

// --- monitor thread: watchdog + delayed-message pump ------------------------

void Cluster::monitor_loop() {
  while (!monitor_stop_.load()) {
    const auto now = verify::verify_now();

    {
      // Pump injector-delayed messages whose release time has passed. They
      // are posted under delayed_mu_, which flush_delayed also takes, so
      // once a flush returns no message the pump took earlier is still
      // unposted: an epilogue's drain after its flush and barrier sees it.
      MutexLock lock(delayed_mu_);
      STFW_VERIFY_WRITE(&delayed_, "Cluster::monitor_loop delayed pump");
      auto it = delayed_.begin();
      while (it != delayed_.end()) {
        if (it->release <= now) {
          post_raw(it->dest, std::move(it->msg));
          it = delayed_.erase(it);
        } else {
          ++it;
        }
      }
    }

    if (watchdog_run_ && !deadlocked_.load() && !aborted_.load()) check_deadlock(now);

#if STFW_VERIFY_ENABLED
    if (verify::Hooks* h = verify::hooks()) {
      // Under the scheduler a tick advances the logical clock and yields;
      // it only gets scheduled when no rank thread can run, which makes
      // watchdog firings a deterministic function of the schedule.
      h->tick_sleep(std::chrono::milliseconds(1));
      continue;
    }
#endif
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

void Cluster::check_deadlock(std::chrono::steady_clock::time_point now) {
  const std::uint64_t p = progress_.load();
  if (p != last_progress_) {
    last_progress_ = p;
    last_progress_time_ = now;
    return;
  }
  if (now - last_progress_time_ < watchdog_window_) return;

  {
    // Analyze and publish the verdict under block_mu_, but notify the
    // condition variables only after releasing it: blocking primitives
    // acquire their mailbox/barrier mutex first and block_mu_ second, so
    // holding block_mu_ while taking those mutexes would invert the order.
    MutexLock lock(block_mu_);
    STFW_VERIFY_READ(block_state_.data(), "Cluster::check_deadlock scan");
    int victim = -1;
    bool all_blocked = true;
    bool any_active = false;
    for (int r = 0; r < num_ranks_; ++r) {
      const BlockInfo& b = block_state_[static_cast<std::size_t>(r)];
      if (mailboxes_[static_cast<std::size_t>(r)]->returned.load()) continue;
      any_active = true;
      const bool blocked = b.kind == BlockInfo::Kind::kRecv ||
                           b.kind == BlockInfo::Kind::kArrival ||
                           b.kind == BlockInfo::Kind::kBarrier ||
                           b.kind == BlockInfo::Kind::kWait;
      if (!blocked || now - b.since < watchdog_window_) {
        all_blocked = false;
        break;
      }
      if (victim < 0) victim = r;
    }
    if (!any_active || !all_blocked || victim < 0) return;

    std::string report = "no message delivered for " +
                         std::to_string(std::chrono::duration_cast<std::chrono::milliseconds>(
                                            now - last_progress_time_)
                                            .count()) +
                         "ms;";
    for (int r = 0; r < num_ranks_; ++r) {
      const BlockInfo& b = block_state_[static_cast<std::size_t>(r)];
      report += " rank " + std::to_string(r) + ": ";
      if (mailboxes_[static_cast<std::size_t>(r)]->returned.load()) {
        report += "finished";
        report += (r + 1 < num_ranks_) ? ";" : "";
        continue;
      }
      switch (b.kind) {
        case BlockInfo::Kind::kRecv:
          report += "blocked in recv(source=" +
                    (b.source == kAnySource ? std::string("any")
                                            : std::to_string(b.source)) +
                    ", tag=" + std::to_string(b.tag) + ")";
          break;
        case BlockInfo::Kind::kArrival:
          report += "blocked in await_arrival(tag=" + std::to_string(b.tag) + ")";
          break;
        case BlockInfo::Kind::kBarrier:
          report += "blocked in barrier";
          break;
        case BlockInfo::Kind::kWait:
          report += "blocked in wait_message";
          break;
        case BlockInfo::Kind::kRunning:
          report += "running";
          break;
      }
      report += (r + 1 < num_ranks_) ? ";" : "";
    }
    deadlock_victim_ = victim;
    deadlock_report_ = std::move(report);
    deadlocked_.store(true);
  }

  // Wake everyone; the victim throws DeadlockError, peers ClusterAborted.
  for (const auto& mb : mailboxes_) {
    MutexLock mlock(mb->mu);
    mb->cv.notify_all();
  }
  {
    MutexLock block(barrier_mu_);
    barrier_cv_.notify_all();
  }
}

}  // namespace stfw::runtime

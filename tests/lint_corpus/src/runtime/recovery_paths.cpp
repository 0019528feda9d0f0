// Corpus: l3-deadline — blocking primitives inside recovery/timeout paths.
#include <cstddef>
#include <vector>

struct Deadline {
  static Deadline never();
  static Deadline in(long ms);
};

struct Message {
  int source = 0;
};

struct Comm {
  Message recv(int source, int tag);
  Message recv(int source, int tag, Deadline deadline);
  void await_arrival(const std::vector<int>& group, int tag);
  void await_arrival(const std::vector<int>& group, int tag, Deadline deadline);
  bool wait_message(Deadline deadline);
  void barrier();
  void barrier(Deadline deadline);
  std::vector<std::vector<std::byte>> allgather(std::vector<std::byte> mine);
};

void settle_outstanding_frames(Comm& comm, int peer) {
  Message m = comm.recv(peer, 7);  // lint-expect: l3-deadline
  (void)m;
  comm.barrier();  // lint-expect: l3-deadline
}

void exchange_resilient_epilogue(Comm& comm) {
  auto blobs = comm.allgather({});  // lint-expect: l3-deadline
  (void)blobs;
}

void recover_stage_group(Comm& comm, const std::vector<int>& group) {
  comm.await_arrival(group, 4);  // lint-expect: l3-deadline
}

// Near-miss: the same calls with Deadline overloads are correct.
void settle_with_deadlines(Comm& comm, int peer, Deadline stage_deadline) {
  Message m = comm.recv(peer, 7, stage_deadline);
  (void)m;
  comm.await_arrival({peer}, 4, stage_deadline);
  if (comm.wait_message(Deadline::in(50))) return;
  comm.barrier(stage_deadline);
}

// Near-miss: a non-recovery function may use the blocking overloads.
void plain_exchange_stage(Comm& comm, int peer) {
  Message m = comm.recv(peer, 3);
  (void)m;
  comm.await_arrival({peer}, 3);
  comm.barrier();
}

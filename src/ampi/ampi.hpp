#pragma once
// Adaptive MPI: an MPI-flavored API whose ranks are user-level threads
// embedded in chares, scheduled by the message-driven runtime — so plain
// MPI-style programs inherit latency masking with no code changes, as
// §2.1 of the paper describes. Blocking calls suspend the rank's fiber
// and return control to the scheduler; arriving messages resume it.
//
//   ampi::World world(rt, /*ranks=*/8, [](ampi::Comm& comm) {
//     std::vector<double> x(1000, comm.rank());
//     comm.allreduce_sum(x.data(), x.size());
//     ...
//   });
//   world.launch();
//   rt.run();
//   MDO_CHECK(world.unfinished_ranks() == 0);   // else: MPI deadlock

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "ampi/fiber.hpp"
#include "core/array.hpp"
#include "core/runtime.hpp"

namespace mdo::ampi {

class RankChare;
class World;

constexpr int kAnySource = -1;
constexpr int kAnyTag = -1;

/// Completion handle for nonblocking operations.
class Request {
 public:
  bool done() const { return !state_ || state_->done; }

 private:
  friend class Comm;
  friend class RankChare;
  struct State {
    bool done = false;
    // irecv target
    void* buffer = nullptr;
    std::size_t bytes = 0;
    int src = kAnySource;
    int tag = kAnyTag;
    int matched_src = -1;
    int matched_tag = -1;
  };
  std::shared_ptr<State> state_;
};

/// Per-rank communicator handle (only valid inside the rank function).
class Comm {
 public:
  int rank() const;
  int size() const;

  // -- point-to-point ------------------------------------------------------
  void send_bytes(int dst, int tag, const void* data, std::size_t bytes);
  /// Blocking receive of exactly `bytes`; returns the matched (src, tag).
  std::pair<int, int> recv_bytes(int src, int tag, void* data,
                                 std::size_t bytes);
  Request isend_bytes(int dst, int tag, const void* data, std::size_t bytes);
  Request irecv_bytes(int src, int tag, void* data, std::size_t bytes);
  void wait(Request& request);
  void waitall(std::vector<Request>& requests);

  template <class T>
  void send_value(int dst, int tag, const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(dst, tag, &value, sizeof(T));
  }
  template <class T>
  T recv_value(int src, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    T out{};
    recv_bytes(src, tag, &out, sizeof(T));
    return out;
  }

  // -- collectives (every rank must call, in the same order) ----------------
  void barrier();
  void bcast(void* data, std::size_t bytes, int root);
  enum class Op : std::uint8_t { kSum, kMin, kMax };
  void reduce(const double* in, double* out, std::size_t n, Op op, int root);
  void allreduce(double* data, std::size_t n, Op op);
  void allreduce_sum(double* data, std::size_t n) { allreduce(data, n, Op::kSum); }
  /// Gather `bytes` from every rank into rank `root`'s out buffer
  /// (size × bytes, rank order).
  void gather(const void* in, std::size_t bytes, void* out, int root);
  /// Root scatters size × bytes (rank order); everyone receives bytes.
  void scatter(const void* in, std::size_t bytes, void* out, int root);
  /// Everyone ends with all ranks' blocks (size × bytes, rank order).
  void allgather(const void* in, std::size_t bytes, void* out);
  /// Personalized exchange: block r of `in` goes to rank r; block s of
  /// `out` came from rank s. Both buffers are size × bytes.
  void alltoall(const void* in, std::size_t bytes, void* out);
  /// Combined send+receive (deadlock-free under the eager protocol).
  std::pair<int, int> sendrecv(int dst, int send_tag, const void* send_data,
                               std::size_t send_len, int src, int recv_tag,
                               void* recv_data, std::size_t recv_len);
  /// Nonblocking probe: is a matching message already queued?
  bool has_message(int src, int tag) const;

  // -- environment -----------------------------------------------------------
  /// Virtual seconds (SimMachine) or wall seconds (ThreadMachine).
  double wtime() const;
  /// Account modeled compute to this rank (drives the latency studies).
  void charge_ns(std::int64_t ns);
  core::Pe my_pe() const;

 private:
  friend class RankChare;
  explicit Comm(RankChare* rank) : rank_(rank) {}
  RankChare* rank_;
};

using RankFn = std::function<void(Comm&)>;

/// The chare hosting one MPI rank. Public only because ChareArray needs a
/// complete type; user code never touches it.
class RankChare final : public core::Chare {
 public:
  RankChare() = default;

  void start();                              // entry: spin up the fiber
  void message(int src, int tag, Bytes data);  // entry: deliver one message

  bool finished() const { return fiber_ && fiber_->finished(); }

 private:
  friend class Comm;
  friend class World;

  struct Pending {
    int src;
    int tag;
    Bytes data;
  };

  void block_until(const std::function<bool()>& ready);
  std::optional<std::size_t> find_match(int src, int tag) const;

  const World* world_ = nullptr;
  int rank_ = -1;
  std::unique_ptr<Fiber> fiber_;
  std::deque<Pending> mailbox_;
  std::vector<std::shared_ptr<Request::State>> posted_irecvs_;
  std::uint32_t collective_seq_ = 0;
};

/// Host-side handle: creates the rank array and launches the program.
class World {
 public:
  World(core::Runtime& rt, int ranks, RankFn fn);
  World(core::Runtime& rt, int ranks, RankFn fn, const core::MapFn& mapper);

  /// Start every rank (asynchronously); drive with rt.run().
  void launch();

  int ranks() const { return ranks_; }
  core::Runtime& runtime() const { return *rt_; }
  const core::ArrayProxy<RankChare>& proxy() const { return proxy_; }

  /// Ranks whose main function has not returned. Nonzero after rt.run()
  /// reaches quiescence means the MPI program deadlocked.
  int unfinished_ranks() const;

  /// MPI-level traffic counters, published under `ampi.*` on the
  /// machine's metric registry. Atomic: ranks execute on worker threads
  /// under ThreadMachine.
  struct Counters {
    std::atomic<std::uint64_t> p2p_sends{0};
    std::atomic<std::uint64_t> p2p_bytes{0};
    std::atomic<std::uint64_t> p2p_recvs{0};
    std::atomic<std::uint64_t> collective_phases{0};
    std::atomic<std::uint64_t> rank_blocks{0};  ///< blocking calls that yielded
  };
  const Counters& counters() const { return counters_; }

 private:
  friend class RankChare;
  friend class Comm;

  core::Runtime* rt_;
  int ranks_;
  RankFn fn_;
  core::ArrayProxy<RankChare> proxy_;
  mutable Counters counters_;
};

}  // namespace mdo::ampi

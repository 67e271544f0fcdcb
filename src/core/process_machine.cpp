#include "core/process_machine.hpp"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstring>

#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include "core/array_base.hpp"
#include "core/runtime.hpp"
#include "net/metrics.hpp"
#include "util/assert.hpp"

namespace mdo::core {
namespace {

// Control-plane framing: fixed header, then `len` payload bytes. The
// control sockets are blocking SOCK_STREAM pairs used strictly
// request/reply, so plain read/write loops (with EINTR retry) suffice.
constexpr std::uint32_t kCtlMagic = 0x4D444F43u;  // "MDOC"

struct CtlHeader {
  std::uint32_t magic = 0;
  std::uint32_t op = 0;
  std::uint64_t len = 0;
};

bool write_all(int fd, const std::byte* data, std::size_t len) {
  while (len > 0) {
    // MSG_NOSIGNAL: a SIGKILLed peer must surface as an error, not SIGPIPE.
    const ssize_t n = ::send(fd, data, len, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

bool read_all(int fd, std::byte* data, std::size_t len) {
  while (len > 0) {
    const ssize_t n = ::recv(fd, data, len, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (n == 0) return false;  // EOF: the peer process died
    data += n;
    len -= static_cast<std::size_t>(n);
  }
  return true;
}

bool ctl_send(int fd, std::uint32_t op, std::span<const std::byte> payload) {
  CtlHeader h{kCtlMagic, op, payload.size()};
  std::byte buf[sizeof(CtlHeader)];
  std::memcpy(buf, &h, sizeof h);
  if (!write_all(fd, buf, sizeof h)) return false;
  return payload.empty() || write_all(fd, payload.data(), payload.size());
}

bool ctl_recv(int fd, std::uint32_t& op, Bytes& payload) {
  std::byte buf[sizeof(CtlHeader)];
  if (!read_all(fd, buf, sizeof buf)) return false;
  CtlHeader h;
  std::memcpy(&h, buf, sizeof h);
  MDO_CHECK_MSG(h.magic == kCtlMagic, "control stream framing corrupted");
  MDO_CHECK(h.len < (1ull << 31));
  op = h.op;
  payload.resize(h.len);
  return h.len == 0 || read_all(fd, payload.data(), h.len);
}

/// Combine one child metric into the mesh-wide aggregate: counters and
/// gauges add (queue depths across PEs sum naturally), histograms merge
/// as count-weighted summaries.
void merge_metric(obs::MetricValue& into, const obs::MetricValue& from) {
  switch (from.kind) {
    case obs::MetricValue::Kind::kCounter:
      into.count += from.count;
      break;
    case obs::MetricValue::Kind::kGauge:
      into.value += from.value;
      break;
    case obs::MetricValue::Kind::kHistogram: {
      const std::uint64_t total = into.count + from.count;
      if (total > 0) {
        into.value = (into.value * static_cast<double>(into.count) +
                      from.value * static_cast<double>(from.count)) /
                     static_cast<double>(total);
      }
      into.min = into.count == 0 ? from.min : std::min(into.min, from.min);
      into.max = into.count == 0 ? from.max : std::max(into.max, from.max);
      into.count = total;
      break;
    }
  }
}

}  // namespace

void ProcessMachine::StagingHost::inject_send(const net::FilterDevice*,
                                              net::Packet&&) {
  MDO_CHECK_MSG(false, "no traffic may flow before the process mesh forks");
}

void ProcessMachine::StagingHost::inject_receive(const net::FilterDevice*,
                                                 net::Packet&&) {
  MDO_CHECK_MSG(false, "no traffic may flow before the process mesh forks");
}

ProcessMachine::ProcessMachine(net::Topology topo,
                               net::GridLatencyModel::Config link,
                               MachineOptions options)
    : Machine(std::move(topo)),
      options_(options),
      model_(&topo_, link),
      dead_(topo_.num_nodes()),
      sent_to_(topo_.num_nodes()),
      acct_from_(topo_.num_nodes()),
      undeliv_to_(topo_.num_nodes()) {
  MDO_CHECK(topo_.num_nodes() >= 1);
  // Devices installed before the fork bind to the staging host; the
  // per-process SocketFabric rebinds them when it takes the chain.
  chain_.set_host(&staging_);
  pids_.assign(topo_.num_nodes(), -1);
  ctl_fds_.assign(topo_.num_nodes(), -1);
  cached_status_.resize(topo_.num_nodes());
  for (auto& row : cached_status_) {
    row.sent_to.assign(topo_.num_nodes(), 0);
    row.acct_from.assign(topo_.num_nodes(), 0);
    row.undeliv_to.assign(topo_.num_nodes(), 0);
  }
  cached_metrics_.resize(topo_.num_nodes());

  // Each process's own reliable device drives its own congestion flags
  // and drains its own parking lot through its own fabric.
  chain_host_.bind(chain_, topo_, local_metrics_, nullptr,
                   [this] { return !forked_; });
  parking_.init(topo_.num_nodes(),
                [this](Envelope&& env) { dispatch(std::move(env)); });
  // Per-process sources: every process (parent included) publishes its
  // own scheduler/memory/trace state into local_metrics_; the fabric and
  // socket sources join at the fork (setup_process). Each process is one
  // scheduler shard by construction (shards sum to the mesh size in the
  // aggregated parent snapshot); a "handoff" is an envelope landing on
  // this process's queue, a "batch" one dequeue, and there is no
  // bounded-ring fallback path.
  register_sched_metrics(local_metrics_, [this] {
    SchedSample s;
    s.total = counters_.load();
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      s.queued = queue_.size();
    }
    s.handoffs = handoffs_.load(std::memory_order_relaxed);
    s.handoff_batches = handoff_pops_.load(std::memory_order_relaxed);
    s.shards = 1;
    return s;
  });
  traces_.register_metrics(local_metrics_);

  // The Machine-level registry carries one source: the cross-process
  // aggregator. It snapshots this process's local registry and, in the
  // forked parent, merges every child's snapshot (fetched over the
  // control plane; dead children contribute their last-known values) so
  // machine().metrics().snapshot() observes the whole mesh under the
  // same keys the single-process backends publish.
  metrics_.add_source("", [this](obs::MetricSink& sink) {
    std::map<std::string, obs::MetricValue> merged =
        local_metrics_.snapshot().values;
    if (role_ == Role::kParent && forked_) {
      for (Pe pe = 1; pe < num_pes(); ++pe) {
        const auto i = static_cast<std::size_t>(pe);
        if (!dead_[i].load(std::memory_order_acquire)) {
          auto reply = request(pe, kCtlMetrics, Bytes{});
          if (reply) {
            std::map<std::string, obs::MetricValue> remote;
            unpack_object(*reply, remote);
            cached_metrics_[i] = std::move(remote);
          }
        }
        for (const auto& [name, value] : cached_metrics_[i]) {
          auto it = merged.find(name);
          if (it == merged.end()) {
            merged.emplace(name, value);
          } else {
            merge_metric(it->second, value);
          }
        }
      }
    }
    for (const auto& [name, value] : merged) sink.raw(name, value);
  });
}

ProcessMachine::~ProcessMachine() {
  if (role_ == Role::kChild) {
    // Children never unwind to here (child_main never returns and the
    // control thread _exits); if one somehow does, die without touching
    // the shared sockets.
    ::_exit(0);
  }
  stop();
}

// -- pre-fork configuration --------------------------------------------------

void ProcessMachine::schedule_at(sim::TimeNs dt, std::function<void()> fn) {
  if (!forked_) {
    // Staged and replayed into *every* process at the fork.
    staging_.host_schedule(dt, std::move(fn));
    return;
  }
  fabric_->host_schedule(dt, std::move(fn));
}

net::SocketFabric::SocketStats ProcessMachine::socket_stats() const {
  return fabric_ ? fabric_->socket_stats() : net::SocketFabric::SocketStats{};
}

// -- fork & per-process bring-up --------------------------------------------

void ProcessMachine::boot() {
  MDO_CHECK(role_ == Role::kParent && !forked_);
  MDO_CHECK_MSG(rt_ != nullptr, "machine must be bound to a Runtime");
  const int n = num_pes();
  // Full mesh of connected non-blocking stream pairs; fds[i][j] is node
  // i's endpoint of the i<->j link.
  std::vector<std::vector<int>> fds(
      static_cast<std::size_t>(n),
      std::vector<int>(static_cast<std::size_t>(n), -1));
  for (int i = 0; i < n; ++i) {
    for (int j = i + 1; j < n; ++j) {
      int sv[2];
      MDO_CHECK_MSG(::socketpair(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0, sv) ==
                        0,
                    "socketpair failed for the data mesh");
      fds[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)] = sv[0];
      fds[static_cast<std::size_t>(j)][static_cast<std::size_t>(i)] = sv[1];
    }
  }
  // Blocking control pairs, parent <-> each child.
  std::vector<int> ctl_parent(static_cast<std::size_t>(n), -1);
  std::vector<int> ctl_child(static_cast<std::size_t>(n), -1);
  for (int pe = 1; pe < n; ++pe) {
    int sv[2];
    MDO_CHECK_MSG(::socketpair(AF_UNIX, SOCK_STREAM, 0, sv) == 0,
                  "socketpair failed for the control plane");
    ctl_parent[static_cast<std::size_t>(pe)] = sv[0];
    ctl_child[static_cast<std::size_t>(pe)] = sv[1];
  }
  forked_ = true;  // set pre-fork so every process inherits it
  for (int pe = 1; pe < n; ++pe) {
    const pid_t pid = ::fork();
    MDO_CHECK_MSG(pid >= 0, "fork failed");
    if (pid == 0) {
      role_ = Role::kChild;
      self_pe_ = static_cast<Pe>(pe);
      child_ctl_fd_ = ctl_child[static_cast<std::size_t>(pe)];
      // fd hygiene: a link's remote endpoint must exist only in the
      // remote process, so a SIGKILL there turns into EOF here.
      for (int i = 0; i < n; ++i) {
        if (i == pe) continue;
        for (int j = 0; j < n; ++j) {
          int& fd = fds[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
          if (fd >= 0) ::close(fd);
          fd = -1;
        }
      }
      for (int q = 1; q < n; ++q) {
        if (ctl_parent[static_cast<std::size_t>(q)] >= 0) {
          ::close(ctl_parent[static_cast<std::size_t>(q)]);
        }
        if (q != pe && ctl_child[static_cast<std::size_t>(q)] >= 0) {
          ::close(ctl_child[static_cast<std::size_t>(q)]);
        }
      }
      setup_process(std::move(fds[static_cast<std::size_t>(pe)]));
      child_main();
    }
    pids_[static_cast<std::size_t>(pe)] = pid;
    ctl_fds_[static_cast<std::size_t>(pe)] =
        ctl_parent[static_cast<std::size_t>(pe)];
  }
  for (int i = 1; i < n; ++i) {
    for (int j = 0; j < n; ++j) {
      const int fd = fds[static_cast<std::size_t>(i)][static_cast<std::size_t>(j)];
      if (fd >= 0) ::close(fd);
    }
  }
  for (int pe = 1; pe < n; ++pe) {
    ::close(ctl_child[static_cast<std::size_t>(pe)]);
  }
  setup_process(std::move(fds[0]));
  // Every child reports in before the setup traffic flows.
  for (int pe = 1; pe < n; ++pe) {
    std::uint32_t op = 0;
    Bytes payload;
    MDO_CHECK_MSG(ctl_recv(ctl_fds_[static_cast<std::size_t>(pe)], op, payload),
                  "a child process died during bring-up");
    MDO_CHECK(op == kCtlHello);
    std::int32_t child_pe = 0;
    unpack_object(payload, child_pe);
    MDO_CHECK(child_pe == pe);
  }
  flush_setup();
}

void ProcessMachine::setup_process(std::vector<int> peer_fds) {
  fabric_ = std::make_unique<net::SocketFabric>(
      &topo_, &model_, std::move(chain_), static_cast<net::NodeId>(self_pe_),
      std::move(peer_fds), epoch_);
  fabric_->set_node_up_probe([this](net::NodeId node) {
    return !dead_[static_cast<std::size_t>(node)].load(
        std::memory_order_acquire);
  });
  fabric_->set_delivery_handler(
      static_cast<net::NodeId>(self_pe_), [this](net::Packet&& packet) {
        // packet.src is the transmitting *process* — the quiescence
        // accounting key (the envelope's own src_pe survives inside for
        // application semantics).
        const Pe from = static_cast<Pe>(packet.src);
        Envelope env;
        unpack_object(packet.payload, env);
        ScratchArena::local().give(std::move(packet.payload));
        enqueue(from, std::move(env));
      });
  if (adaptive() != nullptr) adaptive()->attach(reliability(), *fabric_);
  net::register_fabric_metrics(local_metrics_, *fabric_);
  local_metrics_.add_source("fabric.socket", [this](obs::MetricSink& sink) {
    const auto s = fabric_->socket_stats();
    sink.counter("link_down_drops", s.link_down_drops);
    sink.counter("truncated_frames", s.truncated_frames);
    sink.counter("partial_writes", s.partial_writes);
    sink.counter("eintr_retries", s.eintr_retries);
    sink.counter("peer_disconnects", s.peer_disconnects);
    sink.counter("bad_frames", s.bad_frames);
  });
  if (role_ == Role::kChild) {
    // The parent routes (and has counted) the buffered setup sends for
    // the whole mesh; the inherited copies and counts must not double.
    setup_queue_.clear();
    counters_.reset();
    control_thread_ = std::thread([this] { control_loop(child_ctl_fd_); });
  }
  // Replay timers staged before the fork (detector watch, adaptive
  // start, link-drift schedules) into this process's own fabric — the
  // mechanism that arms per-node device state mesh-wide.
  auto staged = staging_.take();
  for (auto& [dt, fn] : staged) fabric_->host_schedule(dt, std::move(fn));
  fabric_->start();
}

[[noreturn]] void ProcessMachine::child_main() {
  while (true) {
    if (execute_one()) continue;
    std::unique_lock<std::mutex> lock(queue_mutex_);
    if (!queue_.empty()) continue;
    // idle == parked on an empty queue with no handler running; the
    // parent's quiescence wave reads it alongside the counters.
    idle_.store(true, std::memory_order_release);
    queue_cv_.wait(lock, [this] { return !queue_.empty(); });
    idle_.store(false, std::memory_order_release);
  }
}

// -- mailbox & routing -------------------------------------------------------

void ProcessMachine::send(Envelope&& env) {
  MDO_CHECK(env.dst_pe >= 0 && env.dst_pe < num_pes());
  counters_.sent.fetch_add(1, std::memory_order_relaxed);
  if (!forked_) {
    // Setup traffic is buffered and routed by the parent right after the
    // fork (the children clear their inherited copies).
    setup_queue_.push_back(std::move(env));
    return;
  }
  route(std::move(env));
}

void ProcessMachine::flush_setup() {
  std::vector<Envelope> pending;
  pending.swap(setup_queue_);
  for (auto& env : pending) route(std::move(env));
}

void ProcessMachine::route(Envelope&& env) {
  // Counted exactly once per envelope, before any squash/park decision;
  // re-dispatches (park drains) must go through dispatch() instead.
  sent_to_[static_cast<std::size_t>(env.dst_pe)].fetch_add(
      1, std::memory_order_acq_rel);
  dispatch(std::move(env));
}

void ProcessMachine::dispatch(Envelope&& env) {
  const Pe dst = env.dst_pe;
  if (dead_[static_cast<std::size_t>(dst)].load(std::memory_order_acquire)) {
    // The destination process is gone; balance the pair like a drop.
    // The count comes first so a wave that sees the balance sees it too.
    counters_.dropped.fetch_add(1, std::memory_order_relaxed);
    undeliv_to_[static_cast<std::size_t>(dst)].fetch_add(
        1, std::memory_order_acq_rel);
    return;
  }
  if (dst == self_pe_) {
    enqueue(self_pe_, std::move(env));
    return;
  }
  if (parking_.congested(dst)) {
    parking_.park(std::move(env));
    return;
  }
  net::Packet packet;
  // The frame's src is the transmitting process (the accounting and
  // transport identity: acks return here, the heartbeat refreshes this
  // node), which can differ from env.src_pe on forwarded messages.
  packet.src = static_cast<net::NodeId>(self_pe_);
  packet.dst = static_cast<net::NodeId>(dst);
  packet.priority = env.priority;
  packet.payload = pack_frame(env);
  fabric_->send(std::move(packet));
}

void ProcessMachine::enqueue(Pe from, Envelope&& env) {
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    queue_.push(env.priority, Inbound{from, std::move(env)});
  }
  handoffs_.fetch_add(1, std::memory_order_relaxed);
  queue_cv_.notify_one();
}

bool ProcessMachine::execute_one() {
  Inbound item;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    if (queue_.empty()) return false;
    item = queue_.pop();
  }
  handoff_pops_.fetch_add(1, std::memory_order_relaxed);
  execute_timed(std::move(item.env), self_pe_, options_.emulate_charge,
                counters_, traces_);
  bool idle_now = false;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    idle_now = queue_.empty();
  }
  // Outside the queue lock: the idle hook reaches into the fabric
  // (coalesce flush), whose lock is taken while delivering into the
  // mailbox.
  if (idle_now && on_pe_idle_) on_pe_idle_(self_pe_);
  // Accounted last: the wave must stay unbalanced until the handler and
  // everything it sent are fully recorded.
  MDO_CHECK(item.from >= 0 && item.from < num_pes());
  acct_from_[static_cast<std::size_t>(item.from)].fetch_add(
      1, std::memory_order_acq_rel);
  return true;
}

// -- control plane -----------------------------------------------------------

void ProcessMachine::control_loop(int fd) {
  if (!ctl_send(fd, kCtlHello, pack_object(std::int32_t{self_pe_}))) {
    ::_exit(0);
  }
  while (true) {
    std::uint32_t op = 0;
    Bytes payload;
    // EOF means the parent is gone; this process has no reason to live.
    if (!ctl_recv(fd, op, payload)) ::_exit(0);
    handle_control(op, std::move(payload), fd);
  }
}

void ProcessMachine::handle_control(std::uint32_t op, Bytes&& payload, int fd) {
  Bytes reply;
  switch (op) {
    case kCtlStatus:
      reply = pack_object(local_status());
      break;
    case kCtlMetrics:
      reply = pack_object(local_metrics_.snapshot().values);
      break;
    case kCtlTrace:
      reply = pack_object(traces_.drain(static_cast<std::size_t>(self_pe_)));
      break;
    case kCtlWatch: {
      std::int64_t horizon = 0;
      {
        Pup p = Pup::unpacker(payload);
        p | horizon;
      }
      if (net::HeartbeatDevice* hb = reliability().heartbeat) {
        // Hop onto the network thread so the arming serializes with all
        // other device work under the fabric lock.
        fabric_->host_schedule(0, [hb, horizon] { hb->watch(horizon); });
      }
      break;
    }
    case kCtlPack: {
      // Quiescent-point protocol: the parent only asks while this
      // process's main thread is idle-parked, so walking the arrays from
      // the control thread is race-free.
      std::vector<CtlBlob> blobs;
      for (std::size_t a = 0; a < rt_->num_arrays(); ++a) {
        const auto id = static_cast<ArrayId>(a);
        ArrayBase& arr = rt_->array(id);
        for (const Index& index : arr.all_indices()) {
          if (arr.location(index) != self_pe_) continue;
          CtlBlob blob;
          blob.array = id;
          blob.index = index;
          blob.to = self_pe_;
          {
            Pup p = Pup::packer(blob.state);
            arr.find(index)->pup(p);
          }
          blobs.push_back(std::move(blob));
        }
      }
      reply = pack_object(blobs);
      break;
    }
    case kCtlReplace: {
      CtlBlob blob;
      unpack_object(payload, blob);
      // on_element_replaced is a no-op in children, so no echo loop.
      rt_->replace_element(blob.array, blob.index, blob.to, blob.state);
      break;
    }
    case kCtlRebuild: {
      std::vector<std::uint8_t> alive8;
      unpack_object(payload, alive8);
      std::vector<bool> alive(alive8.size());
      for (std::size_t i = 0; i < alive8.size(); ++i) alive[i] = alive8[i] != 0;
      rt_->rebuild_tree(alive);
      break;
    }
    case kCtlPeDead: {
      std::int32_t pe = kInvalidPe;
      {
        Pup p = Pup::unpacker(payload);
        p | pe;
      }
      MDO_CHECK(pe >= 0 && pe < num_pes());
      dead_[static_cast<std::size_t>(pe)].store(true,
                                                std::memory_order_release);
      // Anything parked toward the dead peer resolves to a squash now.
      parking_.flush(static_cast<Pe>(pe));
      break;
    }
    case kCtlExit:
      ctl_send(fd, op, reply);
      ::_exit(0);
    default:
      MDO_CHECK_MSG(false, "unknown control op");
  }
  if (!ctl_send(fd, op, reply)) ::_exit(0);
}

ProcessMachine::CtlStatus ProcessMachine::local_status() {
  CtlStatus s;
  const auto n = static_cast<std::size_t>(num_pes());
  s.sent_to.resize(n);
  s.acct_from.resize(n);
  s.undeliv_to.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.sent_to[i] = sent_to_[i].load(std::memory_order_acquire);
    s.acct_from[i] = acct_from_[i].load(std::memory_order_acquire);
    s.undeliv_to[i] = undeliv_to_[i].load(std::memory_order_acquire);
  }
  s.stats = counters_.load();
  s.fstats = fabric_ ? fabric_->stats() : net::Fabric::Stats{};
  bool queue_empty = false;
  {
    std::lock_guard<std::mutex> lock(queue_mutex_);
    queue_empty = queue_.empty();
  }
  if (role_ == Role::kChild) {
    s.idle = (idle_.load(std::memory_order_acquire) && queue_empty) ? 1 : 0;
  } else {
    s.idle = queue_empty ? 1 : 0;
  }
  return s;
}

std::optional<Bytes> ProcessMachine::request(Pe child, std::uint32_t op,
                                             const Bytes& payload) {
  MDO_CHECK(role_ == Role::kParent);
  std::lock_guard<std::recursive_mutex> lock(ctl_mutex_);
  const auto i = static_cast<std::size_t>(child);
  if (dead_[i].load(std::memory_order_acquire)) return std::nullopt;
  const int fd = ctl_fds_[i];
  if (fd < 0) return std::nullopt;
  if (!ctl_send(fd, op, payload)) {
    handle_child_death(child);
    return std::nullopt;
  }
  std::uint32_t rop = 0;
  Bytes reply;
  if (!ctl_recv(fd, rop, reply)) {
    handle_child_death(child);
    return std::nullopt;
  }
  MDO_CHECK(rop == op);
  return reply;
}

void ProcessMachine::broadcast(std::uint32_t op, const Bytes& payload) {
  for (Pe pe = 1; pe < num_pes(); ++pe) {
    if (dead_[static_cast<std::size_t>(pe)].load(std::memory_order_acquire)) {
      continue;
    }
    request(pe, op, payload);
  }
}

void ProcessMachine::handle_child_death(Pe pe) {
  const auto i = static_cast<std::size_t>(pe);
  if (dead_[i].exchange(true, std::memory_order_acq_rel)) return;
  if (pids_[i] > 0) {
    ::waitpid(pids_[i], nullptr, 0);
    pids_[i] = -1;
  }
  parking_.flush(pe);
  Bytes payload;
  {
    Pup p = Pup::packer(payload);
    std::int32_t dead_pe = pe;
    p | dead_pe;
  }
  broadcast(kCtlPeDead, payload);
}

void ProcessMachine::reap_children() {
  for (Pe pe = 1; pe < num_pes(); ++pe) {
    const auto i = static_cast<std::size_t>(pe);
    if (pids_[i] <= 0) continue;
    if (dead_[i].load(std::memory_order_acquire)) continue;
    int status = 0;
    if (::waitpid(pids_[i], &status, WNOHANG) == pids_[i]) {
      pids_[i] = -1;
      handle_child_death(pe);
    }
  }
}

// -- quiescence --------------------------------------------------------------

bool ProcessMachine::collect_wave(std::vector<std::uint64_t>& wave) {
  const int n = num_pes();
  cached_status_[0] = local_status();
  bool settled = cached_status_[0].idle != 0;
  for (Pe pe = 1; pe < n; ++pe) {
    const auto i = static_cast<std::size_t>(pe);
    if (dead_[i].load(std::memory_order_acquire)) continue;
    auto reply = request(pe, kCtlStatus, Bytes{});
    if (!reply) {
      settled = false;  // died mid-wave; the next wave sees it dead
      continue;
    }
    CtlStatus s;
    unpack_object(*reply, s);
    if (s.idle == 0) settled = false;
    cached_status_[i] = std::move(s);
  }
  // Balance over alive pairs: everything i sent toward j was either
  // executed by j or provably squashed by i.
  for (int i = 0; i < n && settled; ++i) {
    if (dead_[static_cast<std::size_t>(i)].load(std::memory_order_acquire)) {
      continue;
    }
    for (int j = 0; j < n; ++j) {
      if (dead_[static_cast<std::size_t>(j)].load(std::memory_order_acquire)) {
        continue;
      }
      const auto& ri = cached_status_[static_cast<std::size_t>(i)];
      const auto& rj = cached_status_[static_cast<std::size_t>(j)];
      const auto sj = static_cast<std::size_t>(j);
      const auto si = static_cast<std::size_t>(i);
      if (ri.sent_to[sj] != rj.acct_from[si] + ri.undeliv_to[sj]) {
        settled = false;
        break;
      }
    }
  }
  // Stability compares every counter, dead rows included (frozen at
  // their last wave): messages from a dead sender still executing at a
  // receiver keep acct_from moving, which must defeat stability.
  wave.clear();
  for (int i = 0; i < n; ++i) {
    const auto& r = cached_status_[static_cast<std::size_t>(i)];
    wave.insert(wave.end(), r.sent_to.begin(), r.sent_to.end());
    wave.insert(wave.end(), r.acct_from.begin(), r.acct_from.end());
    wave.insert(wave.end(), r.undeliv_to.begin(), r.undeliv_to.end());
  }
  return settled;
}

void ProcessMachine::run() {
  MDO_CHECK_MSG(role_ == Role::kParent,
                "run() is driven by the host process only");
  if (!forked_) boot();
  std::vector<std::uint64_t> wave, prev_wave;
  bool have_prev = false;
  auto last_change = std::chrono::steady_clock::now();
  while (!stopping_.load(std::memory_order_acquire)) {
    while (execute_one()) {
    }
    reap_children();
    const bool settled = collect_wave(wave);
    bool queue_empty = false;
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      queue_empty = queue_.empty();
    }
    // Two consecutive identical settled waves over monotone counters
    // mean nothing happened between them: genuinely quiescent.
    if (settled && queue_empty && have_prev && wave == prev_wave) {
      // run() returning is the contract's quiescent point: host code is
      // about to read its local replicas (gather_mesh, reduction state,
      // checkpoint cuts), so pull the owners' element states home. The
      // children's copies of parent-owned elements stay stale — remote
      // execution is message-driven to owners, never replica reads.
      sync_remote_elements();
      return;
    }
    if (!have_prev || wave != prev_wave) {
      last_change = std::chrono::steady_clock::now();
    }
    prev_wave = wave;
    have_prev = true;
    if (options_.process_run_watchdog > 0) {
      const auto stalled =
          std::chrono::duration_cast<std::chrono::nanoseconds>(
              std::chrono::steady_clock::now() - last_change)
              .count();
      MDO_CHECK_MSG(stalled < options_.process_run_watchdog,
                    "ProcessMachine::run() made no progress within the "
                    "watchdog window (hung child or wedged socket?)");
    }
    std::unique_lock<std::mutex> lock(queue_mutex_);
    queue_cv_.wait_for(lock, std::chrono::microseconds(500), [this] {
      return !queue_.empty() || stopping_.load(std::memory_order_acquire);
    });
  }
}

void ProcessMachine::stop() {
  MDO_CHECK_MSG(role_ == Role::kParent,
                "stop() from inside a child process is not supported on "
                "ProcessMachine");
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) return;
  queue_cv_.notify_all();
  if (forked_) {
    std::lock_guard<std::recursive_mutex> lock(ctl_mutex_);
    for (Pe pe = 1; pe < num_pes(); ++pe) {
      const auto i = static_cast<std::size_t>(pe);
      if (dead_[i].load(std::memory_order_acquire)) continue;
      request(pe, kCtlExit, Bytes{});
      dead_[i].store(true, std::memory_order_release);
      if (pids_[i] > 0) {
        ::waitpid(pids_[i], nullptr, 0);
        pids_[i] = -1;
      }
    }
  }
  if (fabric_) fabric_->shutdown();
}

// -- crash injection ---------------------------------------------------------

void ProcessMachine::kill_pe(Pe pe) {
  MDO_CHECK_MSG(role_ == Role::kParent,
                "kill_pe is driven from the host process");
  MDO_CHECK_MSG(pe > 0, "PE 0 hosts the mainchare and cannot be killed");
  MDO_CHECK(pe < num_pes());
  MDO_CHECK_MSG(forked_, "kill_pe needs a live mesh (first run() forks it)");
  // Taking the control lock first means we never yank a socket out from
  // under an in-flight request.
  std::lock_guard<std::recursive_mutex> lock(ctl_mutex_);
  const auto i = static_cast<std::size_t>(pe);
  if (dead_[i].exchange(true, std::memory_order_acq_rel)) return;
  kills_.fetch_add(1, std::memory_order_acq_rel);
  if (pids_[i] > 0) {
    ::kill(pids_[i], SIGKILL);
    ::waitpid(pids_[i], nullptr, 0);
    pids_[i] = -1;
  }
  parking_.flush(pe);
  // Broadcast the death for routing (peers squash sends immediately);
  // the FT stack learns of it organically, via heartbeat silence.
  Bytes payload;
  {
    Pup p = Pup::packer(payload);
    std::int32_t dead_pe = pe;
    p | dead_pe;
  }
  broadcast(kCtlPeDead, payload);
}

bool ProcessMachine::pe_alive(Pe pe) const {
  MDO_CHECK(pe >= 0 && pe < num_pes());
  return !dead_[static_cast<std::size_t>(pe)].load(std::memory_order_acquire);
}

// -- stats, tracing, metrics -------------------------------------------------

PeStats ProcessMachine::pe_stats(Pe pe) const {
  MDO_CHECK(pe >= 0 && pe < num_pes());
  if (pe == self_pe_) return counters_.load();
  MDO_CHECK_MSG(role_ == Role::kParent, "remote pe_stats are host-side only");
  if (!forked_) return {};
  auto* self = const_cast<ProcessMachine*>(this);
  const auto i = static_cast<std::size_t>(pe);
  if (!dead_[i].load(std::memory_order_acquire)) {
    auto reply = self->request(pe, kCtlStatus, Bytes{});
    if (reply) {
      CtlStatus s;
      unpack_object(*reply, s);
      self->cached_status_[i] = std::move(s);
    }
  }
  return cached_status_[i].stats;
}

net::Fabric::Stats ProcessMachine::fabric_stats() const {
  if (!fabric_) return {};
  net::Fabric::Stats total = fabric_->stats();
  if (role_ != Role::kParent || !forked_) return total;
  auto* self = const_cast<ProcessMachine*>(this);
  for (Pe pe = 1; pe < num_pes(); ++pe) {
    const auto i = static_cast<std::size_t>(pe);
    if (!dead_[i].load(std::memory_order_acquire)) {
      auto reply = self->request(pe, kCtlStatus, Bytes{});
      if (reply) {
        CtlStatus s;
        unpack_object(*reply, s);
        self->cached_status_[i] = std::move(s);
      }
    }
    const auto& f = cached_status_[i].fstats;
    total.packets_sent += f.packets_sent;
    total.bytes_sent += f.bytes_sent;
    total.packets_delivered += f.packets_delivered;
    total.wan_packets += f.wan_packets;
    total.wan_bytes += f.wan_bytes;
    total.frames_injected += f.frames_injected;
    total.dead_node_drops += f.dead_node_drops;
    total.wire_frames += f.wire_frames;
    total.wan_wire_frames += f.wan_wire_frames;
    total.wake_signals += f.wake_signals;
  }
  return total;
}

void ProcessMachine::set_tracing(bool on) {
  traces_.set_enabled(on, static_cast<std::size_t>(num_pes()), forked_);
}

std::vector<TraceEvent> ProcessMachine::trace() const {
  // Events recorded by a killed child after our last drain die with it —
  // real crash semantics.
  std::vector<TraceEvent> remote;
  if (role_ == Role::kParent && forked_) {
    auto* self = const_cast<ProcessMachine*>(this);
    for (Pe pe = 1; pe < num_pes(); ++pe) {
      if (dead_[static_cast<std::size_t>(pe)].load(std::memory_order_acquire)) {
        continue;
      }
      auto reply = self->request(pe, kCtlTrace, Bytes{});
      if (!reply) continue;
      std::vector<TraceEvent> events;
      unpack_object(*reply, events);
      remote.insert(remote.end(), events.begin(), events.end());
    }
  }
  return traces_.collect(std::move(remote));
}

void ProcessMachine::trace_phase(std::int32_t phase) {
  // The parent's main thread owns the extra host ring; each child's main
  // thread owns its PE ring — one producer per ring either way.
  const std::size_t ring = role_ == Role::kChild
                               ? static_cast<std::size_t>(self_pe_)
                               : static_cast<std::size_t>(num_pes());
  traces_.mark_phase(ring, self_pe_, now(), phase);
}

// -- multi-process coordination hooks ---------------------------------------

void ProcessMachine::sync_remote_elements() {
  if (role_ != Role::kParent || !forked_) return;
  for (Pe pe = 1; pe < num_pes(); ++pe) {
    if (dead_[static_cast<std::size_t>(pe)].load(std::memory_order_acquire)) {
      continue;
    }
    auto reply = request(pe, kCtlPack, Bytes{});
    if (!reply) continue;
    std::vector<CtlBlob> blobs;
    unpack_object(*reply, blobs);
    in_sync_ = true;
    for (auto& blob : blobs) {
      rt_->replace_element(blob.array, blob.index, blob.to, blob.state);
    }
    in_sync_ = false;
  }
}

void ProcessMachine::on_element_replaced(ArrayId array, const Index& index,
                                         Pe to,
                                         std::span<const std::byte> state) {
  if (role_ != Role::kParent || !forked_ || in_sync_) return;
  CtlBlob blob;
  blob.array = array;
  blob.index = index;
  blob.to = to;
  blob.state.assign(state.begin(), state.end());
  broadcast(kCtlReplace, pack_object(blob));
}

void ProcessMachine::on_tree_rebuilt(const std::vector<bool>& alive) {
  if (role_ != Role::kParent || !forked_) return;
  std::vector<std::uint8_t> alive8(alive.size());
  for (std::size_t i = 0; i < alive.size(); ++i) alive8[i] = alive[i] ? 1 : 0;
  broadcast(kCtlRebuild, pack_object(alive8));
}

void ProcessMachine::watch_detector(sim::TimeNs horizon) {
  if (role_ != Role::kParent || !forked_) return;
  Bytes payload;
  {
    Pup p = Pup::packer(payload);
    std::int64_t h = horizon;
    p | h;
  }
  broadcast(kCtlWatch, payload);
}

}  // namespace mdo::core

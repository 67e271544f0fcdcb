#include "core/thread_machine.hpp"

#include "core/runtime.hpp"
#include "net/metrics.hpp"
#include "util/assert.hpp"

namespace mdo::core {
namespace {

thread_local Pe t_current_pe = kInvalidPe;

/// Per-PE inbox ring depth. Bursts beyond it spill to the mutex-guarded
/// overflow list (counted as handoff_fallbacks), so capacity bounds
/// memory, not correctness.
constexpr std::size_t kInboxCapacity = 1u << 10;

/// Max envelopes moved from the inbox into the run queue per refill.
constexpr std::size_t kPopBatch = 256;

}  // namespace

ThreadMachine::ThreadMachine(net::Topology topo,
                             net::GridLatencyModel::Config link, MachineOptions options)
    : Machine(std::move(topo)),
      options_(options),
      model_(&topo_, link) {
  fabric_ = std::make_unique<net::ThreadFabric>(&topo_, &model_, net::Chain{});
  fabric_->set_node_up_probe([this](net::NodeId node) {
    return !workers_[static_cast<std::size_t>(node)]->dead.load(
        std::memory_order_acquire);
  });
  workers_.reserve(topo_.num_nodes());
  for (std::size_t pe = 0; pe < topo_.num_nodes(); ++pe) {
    auto worker = std::make_unique<PeWorker>();
    worker->inbox = std::make_unique<obs::MpscRing<Envelope>>(kInboxCapacity);
    worker->batch.reserve(kPopBatch);
    workers_.push_back(std::move(worker));
  }
  for (std::size_t node = 0; node < topo_.num_nodes(); ++node) {
    fabric_->set_delivery_handler(
        static_cast<net::NodeId>(node), [this, node](net::Packet&& packet) {
          Envelope env;
          unpack_object(packet.payload, env);
          // The frame buffer was packed at its exact size on the sending
          // PE; recycling it here keeps the dispatcher thread's arena,
          // which the receive chain draws from, warm.
          ScratchArena::local().give(std::move(packet.payload));
          enqueue(static_cast<Pe>(node), std::move(env));
        });
  }
  chain_host_.bind(fabric_->chain(), topo_, metrics_, fabric_.get(),
                   [this] { return fabric_->stats().packets_sent == 0; });
  parking_.init(topo_.num_nodes(),
                [this](Envelope&& env) { route(std::move(env)); });
  net::register_fabric_metrics(metrics_, *fabric_);
  register_sched_metrics(metrics_, [this] {
    SchedSample s;
    for (const auto& worker : workers_) {
      const PeStats pe = worker->counters.load();
      s.total.msgs_executed += pe.msgs_executed;
      s.total.msgs_sent += pe.msgs_sent;
      s.total.msgs_dropped += pe.msgs_dropped;
      s.total.busy_ns += pe.busy_ns;
      s.queued += worker->runq_depth.load(std::memory_order_relaxed) +
                  worker->inbox->size() +
                  worker->overflow_count.load(std::memory_order_relaxed);
      s.handoffs += worker->inbox->pushed();
      s.handoff_batches += worker->inbox->batches();
      s.handoff_fallbacks += worker->spilled.load(std::memory_order_relaxed);
    }
    s.shards = workers_.size();
    return s;
  });
  traces_.register_metrics(metrics_);
  for (std::size_t pe = 0; pe < workers_.size(); ++pe) {
    workers_[pe]->thread =
        std::thread([this, pe] { worker_loop(static_cast<Pe>(pe)); });
  }
}

ThreadMachine::~ThreadMachine() { stop(); }

void ThreadMachine::set_tracing(bool on) {
  traces_.set_enabled(on, workers_.size(), !chain_host_.open());
}

void ThreadMachine::trace_phase(std::int32_t phase) {
  // Worker threads own their PE's ring; the host thread owns the extra
  // ring at index num_pes, so every ring keeps a single producer.
  const std::size_t ring =
      t_current_pe == kInvalidPe ? workers_.size()
                                 : static_cast<std::size_t>(t_current_pe);
  traces_.mark_phase(ring, current_pe(), now(), phase);
}

void ThreadMachine::kill_pe(Pe pe) {
  MDO_CHECK_MSG(pe > 0, "PE 0 hosts the mainchare and cannot be killed");
  MDO_CHECK(pe < num_pes());
  PeWorker& worker = *workers_[static_cast<std::size_t>(pe)];
  bool expected = false;
  if (!worker.dead.compare_exchange_strong(expected, true,
                                           std::memory_order_acq_rel)) {
    return;
  }
  kills_.fetch_add(1, std::memory_order_acq_rel);
  // The worker itself drains and discards its inbox/run queue: it stays
  // alive as a drain pump (see worker_loop), so an envelope pushed
  // concurrently with the kill is still consumed and its pending count
  // balanced — there is no push-after-drain window.
  {
    std::lock_guard<std::mutex> lock(worker.mutex);
    worker.cv.notify_all();
  }
}

Pe ThreadMachine::current_pe() const {
  return t_current_pe == kInvalidPe ? 0 : t_current_pe;
}

void ThreadMachine::send(Envelope&& env) {
  MDO_CHECK(env.dst_pe >= 0 && env.dst_pe < num_pes());
  // Charged to the source PE; host-thread sends act as PE 0.
  workers_[static_cast<std::size_t>(env.src_pe >= 0 ? env.src_pe : 0)]
      ->counters.sent.fetch_add(1, std::memory_order_relaxed);
  pending_.fetch_add(1, std::memory_order_acq_rel);
  route(std::move(env));
}

void ThreadMachine::settle(std::int64_t n) {
  if (n > 0 && pending_.fetch_sub(n, std::memory_order_acq_rel) == n) {
    std::lock_guard<std::mutex> lock(done_mutex_);
    done_cv_.notify_all();
  }
}

void ThreadMachine::route(Envelope&& env) {
  if (env.src_pe > 0 &&
      workers_[static_cast<std::size_t>(env.src_pe)]->dead.load(
          std::memory_order_acquire)) {
    // A handler that was mid-flight when its PE was killed: its output
    // never reaches the wire (matches the fabric-level squash for frames
    // from dead nodes, but keeps the pending count balanced).
    workers_[static_cast<std::size_t>(env.src_pe)]->counters.dropped.fetch_add(
        1, std::memory_order_relaxed);
    settle();
    return;
  }
  if (env.dst_pe == env.src_pe) {
    enqueue(env.dst_pe, std::move(env));
    return;
  }
  if (parking_.congested(env.dst_pe)) {
    parking_.park(std::move(env));
    return;
  }
  net::Packet packet;
  packet.src = static_cast<net::NodeId>(env.src_pe);
  packet.dst = static_cast<net::NodeId>(env.dst_pe);
  packet.priority = env.priority;
  packet.payload = pack_frame(env);
  fabric_->send(std::move(packet));
}

void ThreadMachine::enqueue(Pe pe, Envelope&& env) {
  PeWorker& worker = *workers_[static_cast<std::size_t>(pe)];
  if (worker.dead.load(std::memory_order_acquire)) {
    // Fast-path discard. An envelope that races past this check lands in
    // the inbox and is discarded by the worker's drain pump instead —
    // either way the pending count stays balanced.
    worker.counters.dropped.fetch_add(1, std::memory_order_relaxed);
    settle();
    return;
  }
  if (worker.overflow_count.load(std::memory_order_acquire) > 0 ||
      !worker.inbox->try_push(std::move(env))) {
    // Spill to the overflow list under the mutex: the ring is full, or
    // earlier envelopes wait there that this one must not overtake. Rare
    // by construction (the ring absorbs bursts), and never drops.
    std::lock_guard<std::mutex> lock(worker.mutex);
    worker.overflow.push_back(std::move(env));
    worker.overflow_count.store(worker.overflow.size(),
                                std::memory_order_release);
    worker.spilled.fetch_add(1, std::memory_order_relaxed);
    worker.cv.notify_one();
    return;
  }
  // Lock-free handoff done; wake the consumer only if it is (or is about
  // to go) sleeping. The seq_cst publish in try_push pairs with the
  // worker's seq_cst sleep-flag store: one of the two sides always sees
  // the other (store-buffering litmus), so no wake-up is lost.
  if (worker.sleeping.load(std::memory_order_seq_cst)) {
    std::lock_guard<std::mutex> lock(worker.mutex);
    worker.cv.notify_one();
  }
}

void ThreadMachine::refill_runq(PeWorker& worker) {
  worker.batch.clear();
  worker.inbox->pop_batch(worker.batch, kPopBatch);
  if (worker.overflow_count.load(std::memory_order_acquire) > 0) {
    // The ring first: a sender that spilled had pushed its earlier
    // envelopes to the ring before taking this mutex, so they are all
    // in what drain() waits for.
    std::lock_guard<std::mutex> lock(worker.mutex);
    worker.inbox->drain(worker.batch);
    for (Envelope& env : worker.overflow) worker.batch.push_back(std::move(env));
    worker.overflow.clear();
    worker.overflow_count.store(0, std::memory_order_release);
  }
  for (Envelope& env : worker.batch) {
    worker.runq.push(env.priority, std::move(env));
  }
}

void ThreadMachine::worker_loop(Pe pe) {
  t_current_pe = pe;
  PeWorker& worker = *workers_[static_cast<std::size_t>(pe)];
  while (true) {
    if (stopping_.load(std::memory_order_acquire)) return;
    refill_runq(worker);

    if (worker.dead.load(std::memory_order_acquire)) {
      // Drain pump: a killed PE never executes again, but its worker
      // keeps consuming (and discarding) whatever still lands in the
      // inbox so quiescence accounting cannot strand.
      const std::size_t dropped = worker.runq.clear();
      worker.runq_depth.store(0, std::memory_order_relaxed);
      worker.counters.dropped.fetch_add(dropped, std::memory_order_relaxed);
      settle(static_cast<std::int64_t>(dropped));
    }

    if (worker.runq.empty()) {
      std::unique_lock<std::mutex> lock(worker.mutex);
      worker.sleeping.store(true, std::memory_order_seq_cst);
      if (!worker.inbox->consumer_has_items() &&
          worker.overflow_count.load(std::memory_order_acquire) == 0 &&
          !stopping_.load(std::memory_order_acquire)) {
        worker.cv.wait(lock, [&] {
          return stopping_.load(std::memory_order_acquire) ||
                 worker.inbox->consumer_has_items() ||
                 worker.overflow_count.load(std::memory_order_acquire) > 0;
        });
      }
      worker.sleeping.store(false, std::memory_order_relaxed);
      continue;
    }

    Envelope env = worker.runq.pop();
    worker.runq_depth.store(worker.runq.size(), std::memory_order_relaxed);
    execute_timed(std::move(env), pe, options_.emulate_charge, worker.counters,
                  traces_);

    const bool idle_now =
        worker.runq.empty() && !worker.inbox->consumer_has_items();
    if (idle_now && on_pe_idle_ && !worker.dead.load(std::memory_order_acquire))
      on_pe_idle_(pe);

    settle();
  }
}

void ThreadMachine::run() {
  std::unique_lock<std::mutex> lock(done_mutex_);
  done_cv_.wait(lock, [this] {
    return pending_.load(std::memory_order_acquire) == 0 ||
           stopping_.load(std::memory_order_acquire);
  });
}

void ThreadMachine::stop() {
  bool expected = false;
  if (!stopping_.compare_exchange_strong(expected, true)) return;
  for (auto& worker : workers_) worker->cv.notify_all();
  for (auto& worker : workers_) {
    if (worker->thread.joinable()) worker->thread.join();
  }
  fabric_->shutdown();
  {
    std::lock_guard<std::mutex> lock(done_mutex_);
    done_cv_.notify_all();
  }
}

PeStats ThreadMachine::pe_stats(Pe pe) const {
  MDO_CHECK(pe >= 0 && pe < num_pes());
  return workers_[static_cast<std::size_t>(pe)]->counters.load();
}

bool ThreadMachine::pe_alive(Pe pe) const {
  MDO_CHECK(pe >= 0 && pe < num_pes());
  return !workers_[static_cast<std::size_t>(pe)]->dead.load(
      std::memory_order_acquire);
}

}  // namespace mdo::core

#pragma once

#include <cstdint>
#include <array>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "util/bytes.h"
#include "util/clock.h"
#include "util/random.h"
#include "util/status.h"

namespace mmlib::simnet {

/// Bandwidth/latency cost model of one network link.
struct Link {
  double bandwidth_bytes_per_second = 12.5e9;  // 100 Gbit/s InfiniBand
  double latency_seconds = 2e-6;

  /// Time to move `bytes` over this link (one message).
  double TransferSeconds(uint64_t bytes) const {
    return latency_seconds +
           static_cast<double>(bytes) / bandwidth_bytes_per_second;
  }

  /// The paper's evaluation link: 100G InfiniBand.
  static Link InfiniBand100G() { return Link{}; }

  /// A constrained uplink, e.g. a vehicle's cellular connection — the
  /// motivating scenario where saving bytes matters most (Section 1).
  static Link Cellular50M() { return Link{6.25e6, 30e-3}; }
};

/// Deterministic failure model for the simulated network: every message
/// draws one uniform sample from a seeded Rng and either succeeds, is
/// dropped (transient Unavailable), times out (DeadlineExceeded, charged
/// `timeout_seconds` of virtual time), or arrives with a corrupted payload.
/// The draw sequence depends only on the order of Transfer calls — the
/// save/recover pipeline issues them serially — so the exact same faults
/// fire on every run with the same seed, at any thread-pool size.
struct FaultPlan {
  /// Probability a message is lost in flight (receiver never sees it).
  /// Charged link latency only.
  double drop_probability = 0.0;
  /// Probability a message exceeds its deadline. Charged `timeout_seconds`.
  double timeout_probability = 0.0;
  /// Probability a delivered payload is damaged in flight. Charged the full
  /// transfer time; the payload has one deterministic byte flipped.
  double corrupt_probability = 0.0;
  /// Virtual time consumed by a timed-out message before the sender gives
  /// up on it.
  double timeout_seconds = 0.5;
  /// Seed of the fault-decision stream.
  uint64_t seed = 0x5eedfa17;

  bool active() const {
    return drop_probability > 0.0 || timeout_probability > 0.0 ||
           corrupt_probability > 0.0;
  }
};

/// Per-kind fault tally. Kept both globally, per operation type (see
/// Network::OpScope), and per node (NodeTally), so a multi-flow experiment
/// can attribute faults to one flow and one operation instead of reading a
/// counter that is cumulative across the whole process.
struct FaultCounters {
  uint64_t drops = 0;
  uint64_t timeouts = 0;
  uint64_t corruptions = 0;

  uint64_t Total() const { return drops + timeouts + corruptions; }

  bool operator==(const FaultCounters& other) const {
    return drops == other.drops && timeouts == other.timeouts &&
           corruptions == other.corruptions;
  }
};

/// Virtual-time cost of node lifecycle events. Detection models the failure
/// detector noticing a dead peer; restart models reboot plus process
/// start-up before the node serves again.
struct NodeCosts {
  double crash_detect_seconds = 0.05;
  double restart_seconds = 0.5;
};

/// Outcome of one message attempt under the active fault plan.
struct TransferAttempt {
  /// OK, Unavailable (dropped), or DeadlineExceeded (timed out).
  Status status = Status::OK();
  /// True when the message was delivered but its payload was damaged in
  /// flight. Only meaningful when `status` is OK.
  bool corrupted = false;
  /// Virtual time charged for this attempt.
  double seconds = 0.0;
};

/// The part a simulated node plays. Each role numbers its nodes from 0, so a
/// node is named by (role, index).
enum class Role : uint8_t {
  kParticipant,  // training node of a DIST flow (dist::EvaluationFlow)
  kReplica,      // storage replica of mmlib::repl
  kWorker,       // ring-all-reduce worker of mmlib::collective
};

/// Per-node tallies since the last ResetFaultCounters/Reset.
struct NodeTally {
  /// Fault draws on messages addressed to the node.
  FaultCounters faults;
  /// Messages rejected because the node was down or partitioned away.
  uint64_t rejects = 0;
  uint64_t crashes = 0;
  uint64_t restarts = 0;
};

/// Replica node id meaning "not bound to a simulated replica" (clients that
/// model a store without per-replica lifecycle).
inline constexpr size_t kNoReplica = static_cast<size_t>(-1);

/// Simulated network shared by the hosts of a distributed evaluation flow.
/// Every transfer advances a virtual clock and is accounted, so experiments
/// are deterministic and instantaneous regardless of modeled data volume.
///
/// One node table holds every simulated node. A node is up or down, sits in
/// a partition group (group 0 is the flow coordinator's side), and keeps a
/// NodeTally. The membership operations (Crash, Restart, Partition, Heal,
/// IsReachable, Tally) work the same for every role; the roles differ only
/// in which fault stream their traffic draws from:
///   - participant traffic draws from the global (storage) stream;
///   - a replica draws from its own plan (SetReplicaFaultPlan), or from the
///     global stream when it has none; replica-to-replica traffic draws
///     nothing (the anti-entropy channel retransmits at the link level);
///   - worker traffic draws from the collective stream, and a corruption
///     draw becomes one retransmission, so collective faults never shift
///     the storage fault sequence, and vice versa.
/// A message to an unreachable node is rejected without a draw.
///
/// Replicas alone carry per-node fault plans and a schedule of crashes,
/// restarts and partitions driven by the virtual clock.
class Network {
 public:
  explicit Network(Link link) : link_(link) {}
  Network() : Network(Link::InfiniBand100G()) {}

  const Link& link() const { return link_; }

  /// Installs a failure model and reseeds the fault stream; replaces any
  /// previous plan. Pass a default-constructed FaultPlan to disable faults.
  void set_fault_plan(const FaultPlan& plan);
  const FaultPlan& fault_plan() const { return storage_.plan; }

  /// Charges one message of `bytes` to the virtual clock; returns the
  /// transfer time in seconds. Never fails — the fault-free cost-model path
  /// used by callers that only model bandwidth (benchmarks, stats queries).
  double Transfer(uint64_t bytes);

  /// Attempts one message of `bytes` under the fault plan. On success
  /// charges the transfer time; a drop charges latency only; a timeout
  /// charges `timeout_seconds`. With no active plan this is exactly
  /// Transfer.
  TransferAttempt TryTransfer(uint64_t bytes);

  /// Deterministically flips one byte of `payload` (no-op when empty);
  /// called by remote-store clients when TryTransfer reports corruption on
  /// a payload-carrying response.
  void CorruptPayload(Bytes* payload);

  /// Advances the virtual clock without sending a message — models a sender
  /// waiting out a retry backoff.
  void ChargeSeconds(double seconds);

  /// --- Per-operation fault attribution. ---
  /// Scoped label naming the storage operation whose messages are in
  /// flight; faults that fire while a scope is open are also tallied under
  /// its label (PerOpFaultCounters). Scopes nest; the innermost label wins.
  class OpScope {
   public:
    OpScope(Network* network, const char* op) : network_(network) {
      if (network_ != nullptr) {
        previous_ = network_->current_op_;
        network_->current_op_ = op;
      }
    }
    ~OpScope() {
      if (network_ != nullptr) {
        network_->current_op_ = previous_;
      }
    }
    OpScope(const OpScope&) = delete;
    OpScope& operator=(const OpScope&) = delete;

   private:
    Network* network_;
    const char* previous_ = nullptr;
  };

  /// Fault tallies per operation label since the last
  /// ResetFaultCounters/set_fault_plan/Reset.
  const std::map<std::string, FaultCounters>& PerOpFaultCounters() const {
    return per_op_faults_;
  }

  /// --- Request-deadline propagation (serving front end, src/serve). ---
  /// Scoped absolute virtual-clock deadline of the request whose backend
  /// work is in flight. While a scope is open, every Retrier on this network
  /// abandons an operation whose deadline is already hopeless instead of
  /// walking the full backoff ladder — the client has given up, so the work
  /// is wasted either way. Scopes nest; the innermost (tightest-owning)
  /// deadline wins. 0 means "no deadline".
  class DeadlineScope {
   public:
    DeadlineScope(Network* network, double deadline_seconds)
        : network_(network) {
      if (network_ != nullptr) {
        previous_ = network_->request_deadline_seconds_;
        network_->request_deadline_seconds_ = deadline_seconds;
      }
    }
    ~DeadlineScope() {
      if (network_ != nullptr) {
        network_->request_deadline_seconds_ = previous_;
      }
    }
    DeadlineScope(const DeadlineScope&) = delete;
    DeadlineScope& operator=(const DeadlineScope&) = delete;

   private:
    Network* network_;
    double previous_ = 0.0;
  };

  /// Absolute virtual-clock deadline of the in-flight request; 0 when no
  /// DeadlineScope is open.
  double RequestDeadlineSeconds() const { return request_deadline_seconds_; }

  /// True when a request deadline is set and the virtual clock has passed
  /// it — any further backend work for this request is already wasted.
  bool RequestDeadlineExpired() const {
    return request_deadline_seconds_ > 0.0 &&
           clock_.NowSeconds() >= request_deadline_seconds_;
  }

  /// Zeroes every fault counter — global, per-operation, and per-node
  /// tallies — without touching the virtual clock, the fault plans, or the
  /// fault-decision streams. Flows call this on entry so their reported
  /// fault accounting is per-flow, not cumulative across an experiment run.
  void ResetFaultCounters();

  /// --- Node table. ---
  /// Each Configure call declares `count` nodes of its role, all up, all in
  /// group 0, with zero tallies, replacing that role's previous nodes.
  /// ConfigureReplicas also drops the replica fault plans and schedule.
  void ConfigureParticipants(size_t count);
  void ConfigureReplicas(size_t count);
  void ConfigureWorkers(size_t count);
  size_t NodeCount(Role role) const { return Nodes(role).size(); }

  /// True when the node is configured and currently up.
  bool IsUp(Role role, size_t node) const {
    return node < NodeCount(role) && Nodes(role)[node].up;
  }

  /// True when the node is up and in the coordinator's partition group
  /// (group 0) — i.e. a client request can reach it right now.
  bool IsReachable(Role role, size_t node) const {
    return IsUp(role, node) && Nodes(role)[node].group == 0;
  }

  /// True when two distinct nodes of one role can talk to each other: both
  /// up and in the same partition group (anti-entropy sessions and ring
  /// neighbours need this).
  bool PairReachable(Role role, size_t a, size_t b) const {
    return a != b && IsUp(role, a) && IsUp(role, b) &&
           Nodes(role)[a].group == Nodes(role)[b].group;
  }

  /// Kills a node: charges the failure-detection time and marks the node
  /// down, so messages to it fail Unavailable (feeding the Retrier).
  /// InvalidArgument for an unconfigured node, FailedPrecondition when
  /// already down.
  Status Crash(Role role, size_t node);

  /// Brings a crashed node back: charges the restart time and marks the
  /// node up. InvalidArgument / FailedPrecondition mirror Crash.
  Status Restart(Role role, size_t node);

  void set_node_costs(const NodeCosts& costs) { node_costs_ = costs; }
  const NodeCosts& node_costs() const { return node_costs_; }

  /// Splits one role's nodes into partition groups: `groups[i]` lists the
  /// nodes cut off into group i+1; nodes not listed stay in group 0, the
  /// side the flow coordinator is on. Messages across group boundaries fail
  /// Unavailable after one latency charge. InvalidArgument, with no group
  /// changed, when a node is unconfigured or listed twice. Other roles are
  /// untouched.
  Status Partition(Role role, const std::vector<std::vector<size_t>>& groups);

  /// Heals one role's partitions: every node of `role` rejoins group 0.
  void Heal(Role role);

  /// Attempts one coordinator-to-node message of `bytes`. An unreachable
  /// node (down or partitioned away) fails Unavailable after one latency
  /// charge without a fault draw; the sender's Retrier backs off and
  /// retries. A reachable node draws from its role's stream (class comment).
  /// A replica message first applies the due replica events.
  TransferAttempt TryTransferTo(Role role, size_t node, uint64_t bytes);

  /// Attempts one node-to-node message of `bytes` within a role (replica
  /// anti-entropy, worker gradient exchange). Fails like TryTransferTo when
  /// the pair cannot reach each other; the reject is tallied on `to`.
  TransferAttempt TryTransferBetween(Role role, size_t from, size_t to,
                                     uint64_t bytes);

  /// The node's tallies; InvalidArgument for an unconfigured node.
  Result<NodeTally> Tally(Role role, size_t node) const;

  /// --- Replica fault plans and schedule (virtual clock). ---
  /// Installs an independent failure model for one replica's link. The
  /// replica draws fault decisions from its own stream seeded by
  /// `plan.seed`, so faults on one replica never shift another replica's
  /// fault sequence. Pass an inactive plan to fall back to the global plan.
  /// Reset keeps the plan and reseeds its stream.
  Status SetReplicaFaultPlan(size_t replica, const FaultPlan& plan);

  /// Queues a replica crash/restart/partition/heal to fire once the virtual
  /// clock reaches `at_seconds`. Due events are applied, in time order and
  /// at equal times in scheduling order, at the start of the next
  /// replica-addressed transfer, so a flow's storage traffic drives its own
  /// degradation deterministically. A scheduled crash of an already-down
  /// replica (or restart of an up one) is a no-op.
  void ScheduleReplicaCrash(size_t replica, double at_seconds);
  void ScheduleReplicaRestart(size_t replica, double at_seconds);
  void ScheduleReplicaPartition(double at_seconds,
                                std::vector<std::vector<size_t>> groups);
  void ScheduleReplicaHeal(double at_seconds);

  /// Applies every scheduled replica event due at the current virtual time;
  /// called automatically by replica transfers.
  void ApplyDueReplicaEvents();

  /// --- Collective channel (worker traffic). ---
  /// Installs the failure model of the collective channel and reseeds its
  /// fault stream. Pass an inactive plan to disable collective faults.
  void set_collective_fault_plan(const FaultPlan& plan);
  const FaultPlan& collective_fault_plan() const { return collective_.plan; }

  /// Total simulated time spent in transfers (including faulted attempts
  /// and backoff waits).
  double TotalTransferSeconds() const { return clock_.NowSeconds(); }

  /// Total bytes moved by successful messages.
  uint64_t TotalBytes() const { return total_bytes_; }

  /// Number of messages attempted (successful, faulted or rejected).
  uint64_t MessageCount() const { return message_count_; }

  /// Fault counters since the last ResetFaultCounters/set_fault_plan/Reset.
  uint64_t DropCount() const { return faults_.drops; }
  uint64_t TimeoutCount() const { return faults_.timeouts; }
  uint64_t CorruptionCount() const { return faults_.corruptions; }
  uint64_t FaultCount() const { return faults_.Total(); }

  /// Rewinds the clock, reseeds every fault stream, brings every node up in
  /// group 0 with zero tallies and drops the replica schedule. Node counts
  /// and fault plans stay.
  void Reset();

 private:
  /// A fault plan and the stream its decisions are drawn from.
  struct Stream {
    explicit Stream(const FaultPlan& p = FaultPlan{}) : plan(p), rng(p.seed) {}
    FaultPlan plan;
    Rng rng;
  };

  struct Node {
    bool up = true;
    int group = 0;
    std::optional<Stream> own_stream;  // replicas only (SetReplicaFaultPlan)
    NodeTally tally;
  };

  struct ReplicaEvent {
    enum class Kind { kCrash, kRestart, kPartition, kHeal };
    double at_seconds = 0.0;
    Kind kind = Kind::kCrash;
    size_t replica = 0;
    std::vector<std::vector<size_t>> groups;
  };

  std::vector<Node>& Nodes(Role role) {
    return nodes_[static_cast<size_t>(role)];
  }
  const std::vector<Node>& Nodes(Role role) const {
    return nodes_[static_cast<size_t>(role)];
  }
  /// InvalidArgument unless `node` is configured in `role`.
  Status CheckConfigured(Role role, size_t node) const;
  void Configure(Role role, size_t count);
  /// Crash (up = false) or Restart (up = true).
  Status SetNodeUp(Role role, size_t node, bool up);
  /// Inserts after every event due no later, keeping the queue sorted.
  void Schedule(ReplicaEvent event);
  /// One latency charge and an Unavailable status; no fault draw, so a
  /// crash or partition window never shifts later fault decisions.
  TransferAttempt Reject(Role role, size_t node, const std::string& why);
  /// One message to a reachable node, drawn from its role's stream.
  TransferAttempt Deliver(Role role, size_t node, bool peer, uint64_t bytes);
  /// One fault decision over `bytes` from `stream` (none when null, or when
  /// its plan is inactive); tallies into the global, per-op, and (when
  /// given) per-node counters.
  TransferAttempt Attempt(Stream* stream, uint64_t bytes,
                          FaultCounters* node_faults);
  void CountFault(FaultCounters* node_faults, uint64_t FaultCounters::* kind);

  Link link_;
  VirtualClock clock_;
  Stream storage_;
  Stream collective_;
  NodeCosts node_costs_;
  std::array<std::vector<Node>, 3> nodes_;  // indexed by Role
  std::vector<ReplicaEvent> replica_events_;  // sorted by at_seconds, stable
  const char* current_op_ = nullptr;
  double request_deadline_seconds_ = 0.0;
  std::map<std::string, FaultCounters> per_op_faults_;
  uint64_t total_bytes_ = 0;
  uint64_t message_count_ = 0;
  FaultCounters faults_;
};

}  // namespace mmlib::simnet

#include "simnet/network.h"

#include <algorithm>

namespace mmlib::simnet {
namespace {

std::string NodeName(Role role, size_t node) {
  static constexpr const char* kNames[] = {"participant", "replica", "worker"};
  return std::string(kNames[static_cast<size_t>(role)]) + " " +
         std::to_string(node);
}

}  // namespace

void Network::set_fault_plan(const FaultPlan& plan) {
  storage_ = Stream(plan);
  ResetFaultCounters();
}

double Network::Transfer(uint64_t bytes) {
  const double seconds = link_.TransferSeconds(bytes);
  clock_.AdvanceSeconds(seconds);
  total_bytes_ += bytes;
  ++message_count_;
  return seconds;
}

void Network::CountFault(FaultCounters* node_faults,
                         uint64_t FaultCounters::* kind) {
  ++(faults_.*kind);
  if (current_op_ != nullptr) {
    ++(per_op_faults_[current_op_].*kind);
  }
  if (node_faults != nullptr) {
    ++(node_faults->*kind);
  }
}

TransferAttempt Network::Attempt(Stream* stream, uint64_t bytes,
                                 FaultCounters* node_faults) {
  TransferAttempt attempt;
  if (stream == nullptr || !stream->plan.active()) {
    attempt.seconds = Transfer(bytes);
    return attempt;
  }
  const FaultPlan& plan = stream->plan;
  ++message_count_;
  // One uniform draw per message keeps the fault stream's consumption a pure
  // function of the message sequence, whatever the outcome.
  const double u = stream->rng.NextDouble();
  if (u < plan.drop_probability) {
    CountFault(node_faults, &FaultCounters::drops);
    attempt.seconds = link_.latency_seconds;
    clock_.AdvanceSeconds(attempt.seconds);
    attempt.status = Status::Unavailable("message dropped in flight");
    return attempt;
  }
  if (u < plan.drop_probability + plan.timeout_probability) {
    CountFault(node_faults, &FaultCounters::timeouts);
    attempt.seconds = plan.timeout_seconds;
    clock_.AdvanceSeconds(attempt.seconds);
    attempt.status = Status::DeadlineExceeded("message timed out");
    return attempt;
  }
  attempt.seconds = link_.TransferSeconds(bytes);
  clock_.AdvanceSeconds(attempt.seconds);
  total_bytes_ += bytes;
  if (u < plan.drop_probability + plan.timeout_probability +
              plan.corrupt_probability) {
    CountFault(node_faults, &FaultCounters::corruptions);
    attempt.corrupted = true;
  }
  return attempt;
}

TransferAttempt Network::TryTransfer(uint64_t bytes) {
  return Attempt(&storage_, bytes, nullptr);
}

void Network::CorruptPayload(Bytes* payload) {
  if (payload == nullptr || payload->empty()) {
    return;
  }
  Rng& rng = storage_.rng;
  const size_t position = rng.NextBelow(payload->size());
  (*payload)[position] ^= static_cast<uint8_t>(1 + rng.NextBelow(255));
}

void Network::ChargeSeconds(double seconds) {
  clock_.AdvanceSeconds(seconds);
}

void Network::ResetFaultCounters() {
  faults_ = FaultCounters{};
  per_op_faults_.clear();
  for (std::vector<Node>& nodes : nodes_) {
    for (Node& node : nodes) {
      node.tally = NodeTally{};
    }
  }
}

// --- Node table -------------------------------------------------------------

void Network::Configure(Role role, size_t count) {
  Nodes(role).assign(count, Node{});
}

void Network::ConfigureParticipants(size_t count) {
  Configure(Role::kParticipant, count);
}

void Network::ConfigureReplicas(size_t count) {
  Configure(Role::kReplica, count);
  replica_events_.clear();
}

void Network::ConfigureWorkers(size_t count) {
  Configure(Role::kWorker, count);
}

Status Network::CheckConfigured(Role role, size_t node) const {
  if (node >= NodeCount(role)) {
    return Status::InvalidArgument(NodeName(role, node) +
                                   " is not configured");
  }
  return Status::OK();
}

Status Network::SetNodeUp(Role role, size_t node, bool up) {
  MMLIB_RETURN_IF_ERROR(CheckConfigured(role, node));
  Node& state = Nodes(role)[node];
  if (state.up == up) {
    return Status::FailedPrecondition(
        NodeName(role, node) + (up ? " is already up" : " is already down"));
  }
  state.up = up;
  ++(up ? state.tally.restarts : state.tally.crashes);
  clock_.AdvanceSeconds(up ? node_costs_.restart_seconds
                           : node_costs_.crash_detect_seconds);
  return Status::OK();
}

Status Network::Crash(Role role, size_t node) {
  return SetNodeUp(role, node, /*up=*/false);
}

Status Network::Restart(Role role, size_t node) {
  return SetNodeUp(role, node, /*up=*/true);
}

Status Network::Partition(Role role,
                          const std::vector<std::vector<size_t>>& groups) {
  std::vector<Node>& nodes = Nodes(role);
  std::vector<int> assignment(nodes.size(), 0);
  for (size_t g = 0; g < groups.size(); ++g) {
    for (size_t node : groups[g]) {
      MMLIB_RETURN_IF_ERROR(CheckConfigured(role, node));
      if (assignment[node] != 0) {
        return Status::InvalidArgument(NodeName(role, node) +
                                       " listed in more than one group");
      }
      assignment[node] = static_cast<int>(g) + 1;
    }
  }
  for (size_t n = 0; n < nodes.size(); ++n) {
    nodes[n].group = assignment[n];
  }
  return Status::OK();
}

void Network::Heal(Role role) {
  for (Node& node : Nodes(role)) {
    node.group = 0;
  }
}

TransferAttempt Network::Reject(Role role, size_t node,
                                const std::string& why) {
  // The sender learns nothing until its message goes unanswered; charge
  // one latency like a dropped message. No fault draw: the fault streams
  // stay a pure function of the *delivered* message sequence.
  TransferAttempt attempt;
  ++message_count_;
  if (node < NodeCount(role)) {
    ++Nodes(role)[node].tally.rejects;
  }
  attempt.seconds = link_.latency_seconds;
  clock_.AdvanceSeconds(attempt.seconds);
  attempt.status = Status::Unavailable(why);
  return attempt;
}

TransferAttempt Network::Deliver(Role role, size_t node, bool peer,
                                 uint64_t bytes) {
  Node& state = Nodes(role)[node];
  Stream* stream = &storage_;
  if (role == Role::kWorker) {
    stream = &collective_;
  } else if (role == Role::kReplica && peer) {
    // Replica-to-replica traffic is modeled with link-level retransmission
    // and no fault plan: it draws nothing and is never corrupted.
    stream = nullptr;
  } else if (state.own_stream) {
    stream = &*state.own_stream;
  }
  TransferAttempt attempt = Attempt(stream, bytes, &state.tally.faults);
  if (attempt.corrupted && role == Role::kWorker) {
    // Link-level retransmission: the damaged frame is detected and resent,
    // so the payload a worker reduces is always intact — arithmetic is
    // never perturbed by the fault plan. The resend costs one more full
    // transfer (no fault draw: retransmissions ride the reliable path).
    attempt.corrupted = false;
    attempt.seconds += Transfer(bytes);
  }
  return attempt;
}

TransferAttempt Network::TryTransferTo(Role role, size_t node,
                                       uint64_t bytes) {
  if (role == Role::kReplica) {
    ApplyDueReplicaEvents();
  }
  if (!IsReachable(role, node)) {
    return Reject(role, node, NodeName(role, node) + " is unreachable");
  }
  return Deliver(role, node, /*peer=*/false, bytes);
}

TransferAttempt Network::TryTransferBetween(Role role, size_t from, size_t to,
                                            uint64_t bytes) {
  if (role == Role::kReplica) {
    ApplyDueReplicaEvents();
  }
  if (!PairReachable(role, from, to)) {
    return Reject(role, to,
                  NodeName(role, from) + " cannot reach " +
                      NodeName(role, to));
  }
  return Deliver(role, to, /*peer=*/true, bytes);
}

Result<NodeTally> Network::Tally(Role role, size_t node) const {
  MMLIB_RETURN_IF_ERROR(CheckConfigured(role, node));
  return Nodes(role)[node].tally;
}

// --- Replica fault plans and schedule ---------------------------------------

Status Network::SetReplicaFaultPlan(size_t replica, const FaultPlan& plan) {
  MMLIB_RETURN_IF_ERROR(CheckConfigured(Role::kReplica, replica));
  std::optional<Stream>& own = Nodes(Role::kReplica)[replica].own_stream;
  if (plan.active()) {
    own.emplace(plan);
  } else {
    own.reset();
  }
  return Status::OK();
}

void Network::Schedule(ReplicaEvent event) {
  const auto position = std::upper_bound(
      replica_events_.begin(), replica_events_.end(), event.at_seconds,
      [](double at, const ReplicaEvent& queued) {
        return at < queued.at_seconds;
      });
  replica_events_.insert(position, std::move(event));
}

void Network::ScheduleReplicaCrash(size_t replica, double at_seconds) {
  Schedule({at_seconds, ReplicaEvent::Kind::kCrash, replica, {}});
}

void Network::ScheduleReplicaRestart(size_t replica, double at_seconds) {
  Schedule({at_seconds, ReplicaEvent::Kind::kRestart, replica, {}});
}

void Network::ScheduleReplicaPartition(
    double at_seconds, std::vector<std::vector<size_t>> groups) {
  Schedule({at_seconds, ReplicaEvent::Kind::kPartition, 0, std::move(groups)});
}

void Network::ScheduleReplicaHeal(double at_seconds) {
  Schedule({at_seconds, ReplicaEvent::Kind::kHeal, 0, {}});
}

void Network::ApplyDueReplicaEvents() {
  // Applying a crash/restart charges detection/restart time, which can make
  // further events due; loop until the front of the queue is in the future.
  while (!replica_events_.empty() &&
         replica_events_.front().at_seconds <= clock_.NowSeconds()) {
    ReplicaEvent event = std::move(replica_events_.front());
    replica_events_.erase(replica_events_.begin());
    switch (event.kind) {
      case ReplicaEvent::Kind::kCrash:
        // Crashing an already-down replica is a no-op, not an error: a
        // schedule derived from a random seed may race its own restarts.
        (void)Crash(Role::kReplica, event.replica);
        break;
      case ReplicaEvent::Kind::kRestart:
        (void)Restart(Role::kReplica, event.replica);
        break;
      case ReplicaEvent::Kind::kPartition:
        (void)Partition(Role::kReplica, event.groups);
        break;
      case ReplicaEvent::Kind::kHeal:
        Heal(Role::kReplica);
        break;
    }
  }
}

void Network::set_collective_fault_plan(const FaultPlan& plan) {
  collective_ = Stream(plan);
}

void Network::Reset() {
  clock_ = VirtualClock();
  storage_ = Stream(storage_.plan);
  collective_ = Stream(collective_.plan);
  for (std::vector<Node>& nodes : nodes_) {
    for (Node& node : nodes) {
      Node fresh;
      if (node.own_stream) {
        fresh.own_stream.emplace(node.own_stream->plan);
      }
      node = std::move(fresh);
    }
  }
  replica_events_.clear();
  total_bytes_ = 0;
  message_count_ = 0;
  faults_ = FaultCounters{};
  per_op_faults_.clear();
}

}  // namespace mmlib::simnet

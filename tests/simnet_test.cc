#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "simnet/network.h"

namespace mmlib::simnet {
namespace {

TEST(LinkTest, TransferSecondsCombineLatencyAndBandwidth) {
  Link link{1e9, 1e-3};  // 1 GB/s, 1 ms latency
  EXPECT_DOUBLE_EQ(link.TransferSeconds(0), 1e-3);
  EXPECT_DOUBLE_EQ(link.TransferSeconds(1'000'000'000), 1.001);
}

TEST(LinkTest, PresetLinksAreOrdered) {
  // The datacenter link is vastly faster than the vehicle uplink.
  const Link fast = Link::InfiniBand100G();
  const Link slow = Link::Cellular50M();
  EXPECT_LT(fast.TransferSeconds(100 << 20), slow.TransferSeconds(100 << 20));
  EXPECT_LT(fast.latency_seconds, slow.latency_seconds);
}

TEST(NetworkTest, AccumulatesTransfers) {
  Network network(Link{1000.0, 0.5});
  const double t1 = network.Transfer(500);
  EXPECT_DOUBLE_EQ(t1, 1.0);  // 0.5 latency + 500/1000
  network.Transfer(1500);
  EXPECT_EQ(network.TotalBytes(), 2000u);
  EXPECT_EQ(network.MessageCount(), 2u);
  EXPECT_DOUBLE_EQ(network.TotalTransferSeconds(), 1.0 + 2.0);
}

TEST(NetworkTest, ResetClearsState) {
  Network network;
  network.Transfer(1 << 20);
  network.Reset();
  EXPECT_EQ(network.TotalBytes(), 0u);
  EXPECT_EQ(network.MessageCount(), 0u);
  EXPECT_DOUBLE_EQ(network.TotalTransferSeconds(), 0.0);
}

TEST(NetworkTest, InfiniBandIsSubMillisecondForModelSizedPayloads) {
  // Sanity for the paper's setup: a 240 MB ResNet-152 snapshot crosses the
  // 100G link in ~20 ms — network time does not dominate save times.
  Network network(Link::InfiniBand100G());
  const double seconds = network.Transfer(240ull << 20);
  EXPECT_LT(seconds, 0.05);
  EXPECT_GT(seconds, 0.01);
}

TEST(FaultPlanTest, InactiveWithoutProbabilities) {
  EXPECT_FALSE(FaultPlan{}.active());
  FaultPlan plan;
  plan.drop_probability = 0.1;
  EXPECT_TRUE(plan.active());
}

TEST(FaultPlanTest, TryTransferMatchesTransferWithoutPlan) {
  Network network(Link{1000.0, 0.5});
  const TransferAttempt attempt = network.TryTransfer(500);
  EXPECT_TRUE(attempt.status.ok());
  EXPECT_FALSE(attempt.corrupted);
  EXPECT_DOUBLE_EQ(attempt.seconds, 1.0);
  EXPECT_EQ(network.TotalBytes(), 500u);
  EXPECT_EQ(network.FaultCount(), 0u);
}

TEST(FaultPlanTest, CertainDropIsUnavailableAndChargesLatencyOnly) {
  Network network(Link{1000.0, 0.5});
  FaultPlan plan;
  plan.drop_probability = 1.0;
  network.set_fault_plan(plan);

  const TransferAttempt attempt = network.TryTransfer(500);
  EXPECT_EQ(attempt.status.code(), StatusCode::kUnavailable);
  EXPECT_DOUBLE_EQ(attempt.seconds, 0.5);  // latency, no payload time
  EXPECT_EQ(network.DropCount(), 1u);
  // A dropped message moved no bytes but counts as an attempt.
  EXPECT_EQ(network.TotalBytes(), 0u);
  EXPECT_EQ(network.MessageCount(), 1u);
}

TEST(FaultPlanTest, CertainTimeoutChargesTimeoutSeconds) {
  Network network(Link{1000.0, 0.5});
  FaultPlan plan;
  plan.timeout_probability = 1.0;
  plan.timeout_seconds = 2.5;
  network.set_fault_plan(plan);

  const TransferAttempt attempt = network.TryTransfer(500);
  EXPECT_EQ(attempt.status.code(), StatusCode::kDeadlineExceeded);
  EXPECT_DOUBLE_EQ(attempt.seconds, 2.5);
  EXPECT_EQ(network.TimeoutCount(), 1u);
  EXPECT_DOUBLE_EQ(network.TotalTransferSeconds(), 2.5);
}

TEST(FaultPlanTest, CertainCorruptionDeliversDamagedPayload) {
  Network network(Link{1000.0, 0.5});
  FaultPlan plan;
  plan.corrupt_probability = 1.0;
  network.set_fault_plan(plan);

  const TransferAttempt attempt = network.TryTransfer(500);
  EXPECT_TRUE(attempt.status.ok());
  EXPECT_TRUE(attempt.corrupted);
  EXPECT_DOUBLE_EQ(attempt.seconds, 1.0);  // full transfer time charged
  EXPECT_EQ(network.CorruptionCount(), 1u);
  EXPECT_EQ(network.TotalBytes(), 500u);

  // CorruptPayload flips exactly one byte.
  const Bytes original(64, 0xAB);
  Bytes damaged = original;
  network.CorruptPayload(&damaged);
  size_t diffs = 0;
  for (size_t i = 0; i < original.size(); ++i) {
    diffs += original[i] != damaged[i] ? 1 : 0;
  }
  EXPECT_EQ(diffs, 1u);
}

TEST(FaultPlanTest, FaultSequenceIsSeedDeterministic) {
  FaultPlan plan;
  plan.drop_probability = 0.2;
  plan.timeout_probability = 0.1;
  plan.corrupt_probability = 0.1;
  plan.seed = 77;

  auto run = [&plan]() {
    Network network;
    network.set_fault_plan(plan);
    std::vector<StatusCode> codes;
    for (int i = 0; i < 200; ++i) {
      codes.push_back(network.TryTransfer(1000).status.code());
    }
    return std::make_pair(codes, network.FaultCount());
  };
  const auto [codes_a, faults_a] = run();
  const auto [codes_b, faults_b] = run();
  EXPECT_EQ(codes_a, codes_b);
  EXPECT_EQ(faults_a, faults_b);
  // With these rates, 200 messages see some but not only faults.
  EXPECT_GT(faults_a, 0u);
  EXPECT_LT(faults_a, 200u);
}

TEST(FaultPlanTest, SetFaultPlanReseedsAndClearsCounters) {
  Network network;
  FaultPlan plan;
  plan.drop_probability = 1.0;
  network.set_fault_plan(plan);
  network.TryTransfer(100);
  EXPECT_EQ(network.DropCount(), 1u);

  network.set_fault_plan(FaultPlan{});
  EXPECT_EQ(network.DropCount(), 0u);
  EXPECT_TRUE(network.TryTransfer(100).status.ok());
}

// ---------------------------------------------------------------------------
// Node table: the membership contract all three roles share
// ---------------------------------------------------------------------------

class NodeTableTest : public ::testing::TestWithParam<Role> {
 protected:
  Role role() const { return GetParam(); }

  void Configure(size_t count) {
    switch (role()) {
      case Role::kParticipant:
        network_.ConfigureParticipants(count);
        break;
      case Role::kReplica:
        network_.ConfigureReplicas(count);
        break;
      case Role::kWorker:
        network_.ConfigureWorkers(count);
        break;
    }
  }

  /// Installs a drop/timeout plan on the stream the role's traffic draws
  /// from: the global plan, one plan per replica, or the collective plan.
  void InstallFaultPlan() {
    FaultPlan plan;
    plan.drop_probability = 0.3;
    plan.timeout_probability = 0.2;
    plan.seed = 0xfeed;
    switch (role()) {
      case Role::kParticipant:
        network_.set_fault_plan(plan);
        break;
      case Role::kReplica:
        for (size_t r = 0; r < network_.NodeCount(Role::kReplica); ++r) {
          plan.seed = 0xfeed + r;
          ASSERT_TRUE(network_.SetReplicaFaultPlan(r, plan).ok());
        }
        break;
      case Role::kWorker:
        network_.set_collective_fault_plan(plan);
        break;
    }
  }

  /// One message of the role's own traffic to `node`: from the coordinator
  /// for participants and replicas, from a peer worker for workers.
  TransferAttempt Send(size_t node) {
    if (role() == Role::kWorker) {
      return network_.TryTransferBetween(role(), node == 0 ? 1 : 0, node,
                                         100);
    }
    return network_.TryTransferTo(role(), node, 100);
  }

  /// Status codes of `count` messages alternating between nodes 0 and 1.
  std::vector<StatusCode> Outcomes(int count) {
    std::vector<StatusCode> codes;
    for (int i = 0; i < count; ++i) {
      codes.push_back(Send(static_cast<size_t>(i % 2)).status.code());
    }
    return codes;
  }

  Network network_;
};

TEST_P(NodeTableTest, UnconfiguredNodeIsInvalidArgument) {
  Configure(2);
  EXPECT_EQ(network_.NodeCount(role()), 2u);
  EXPECT_FALSE(network_.IsUp(role(), 2));
  EXPECT_FALSE(network_.IsReachable(role(), 2));
  EXPECT_EQ(network_.Crash(role(), 2).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(network_.Restart(role(), 2).code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(network_.Tally(role(), 2).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(network_.Partition(role(), {{2}}).code(),
            StatusCode::kInvalidArgument);
  // A message to it is rejected like one to a down node.
  EXPECT_EQ(Send(2).status.code(), StatusCode::kUnavailable);
  EXPECT_DOUBLE_EQ(network_.TotalTransferSeconds(),
                   network_.link().latency_seconds);
}

TEST_P(NodeTableTest, CrashingADownOrRestartingAnUpNodeIsFailedPrecondition) {
  Configure(2);
  EXPECT_EQ(network_.Restart(role(), 0).code(),
            StatusCode::kFailedPrecondition);
  ASSERT_TRUE(network_.Crash(role(), 0).ok());
  const double after_crash = network_.TotalTransferSeconds();
  EXPECT_EQ(network_.Crash(role(), 0).code(), StatusCode::kFailedPrecondition);
  // A refused transition charges nothing and counts nothing.
  EXPECT_DOUBLE_EQ(network_.TotalTransferSeconds(), after_crash);
  const NodeTally tally = network_.Tally(role(), 0).value();
  EXPECT_EQ(tally.crashes, 1u);
  EXPECT_EQ(tally.restarts, 0u);
}

TEST_P(NodeTableTest, CrashAndRestartChargeNodeCostsAndBumpTallies) {
  Configure(2);
  network_.set_node_costs(NodeCosts{0.25, 1.5});
  ASSERT_TRUE(network_.Crash(role(), 1).ok());
  EXPECT_DOUBLE_EQ(network_.TotalTransferSeconds(), 0.25);
  EXPECT_FALSE(network_.IsUp(role(), 1));
  EXPECT_TRUE(network_.IsUp(role(), 0));
  EXPECT_EQ(Send(1).status.code(), StatusCode::kUnavailable);

  ASSERT_TRUE(network_.Restart(role(), 1).ok());
  EXPECT_DOUBLE_EQ(network_.TotalTransferSeconds(),
                   0.25 + network_.link().latency_seconds + 1.5);
  EXPECT_TRUE(Send(1).status.ok());

  const NodeTally tally = network_.Tally(role(), 1).value();
  EXPECT_EQ(tally.crashes, 1u);
  EXPECT_EQ(tally.restarts, 1u);
  EXPECT_EQ(tally.rejects, 1u);
  const NodeTally other = network_.Tally(role(), 0).value();
  EXPECT_EQ(other.crashes + other.restarts + other.rejects, 0u);
}

TEST_P(NodeTableTest, PartitionRejectsUnknownAndDuplicateIds) {
  network_.ConfigureParticipants(3);
  network_.ConfigureReplicas(3);
  network_.ConfigureWorkers(3);
  ASSERT_TRUE(network_.Partition(role(), {{2}}).ok());
  EXPECT_FALSE(network_.IsReachable(role(), 2));
  EXPECT_FALSE(network_.PairReachable(role(), 1, 2));
  EXPECT_EQ(Send(2).status.code(), StatusCode::kUnavailable);

  EXPECT_EQ(network_.Partition(role(), {{0}, {0}}).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(network_.Partition(role(), {{1}, {7}}).code(),
            StatusCode::kInvalidArgument);
  // The rejected calls changed no group.
  EXPECT_TRUE(network_.IsReachable(role(), 0));
  EXPECT_TRUE(network_.IsReachable(role(), 1));
  EXPECT_FALSE(network_.IsReachable(role(), 2));

  // The other roles' nodes are untouched.
  for (Role other : {Role::kParticipant, Role::kReplica, Role::kWorker}) {
    if (other != role()) {
      EXPECT_TRUE(network_.IsReachable(other, 2));
    }
  }

  network_.Heal(role());
  EXPECT_TRUE(network_.PairReachable(role(), 1, 2));
  EXPECT_TRUE(Send(2).status.ok());
}

TEST_P(NodeTableTest, RejectWindowDoesNotShiftTheNextFaultDecision) {
  Configure(2);
  InstallFaultPlan();
  const std::vector<StatusCode> clean = Outcomes(40);

  // The same traffic, after a crash window and a partition window during
  // which every message to node 1 was rejected.
  network_.Reset();
  ASSERT_TRUE(network_.Crash(role(), 1).ok());
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(Send(1).status.code(), StatusCode::kUnavailable);
  }
  ASSERT_TRUE(network_.Restart(role(), 1).ok());
  ASSERT_TRUE(network_.Partition(role(), {{1}}).ok());
  EXPECT_EQ(Send(1).status.code(), StatusCode::kUnavailable);
  network_.Heal(role());
  EXPECT_EQ(network_.Tally(role(), 1).value().rejects, 4u);
  EXPECT_EQ(network_.FaultCount(), 0u);

  EXPECT_EQ(Outcomes(40), clean);
  EXPECT_GT(network_.FaultCount(), 0u);
}

TEST_P(NodeTableTest, ResetFaultCountersZeroesTalliesAndResetKeepsPlans) {
  Configure(2);
  InstallFaultPlan();
  const std::vector<StatusCode> first = Outcomes(40);
  ASSERT_TRUE(network_.Crash(role(), 1).ok());
  (void)Send(1);
  ASSERT_GT(network_.Tally(role(), 0).value().faults.Total(), 0u);

  network_.ResetFaultCounters();
  for (size_t node = 0; node < 2; ++node) {
    const NodeTally tally = network_.Tally(role(), node).value();
    EXPECT_EQ(tally.faults.Total(), 0u) << node;
    EXPECT_EQ(tally.rejects + tally.crashes + tally.restarts, 0u) << node;
  }
  EXPECT_EQ(network_.FaultCount(), 0u);
  // Counters only: the node stays down.
  EXPECT_FALSE(network_.IsUp(role(), 1));

  // Reset brings the node back and replays the same faults: the plans
  // (per-replica ones included) survive, reseeded.
  network_.Reset();
  EXPECT_TRUE(network_.IsUp(role(), 1));
  EXPECT_EQ(Outcomes(40), first);
}

INSTANTIATE_TEST_SUITE_P(
    AllRoles, NodeTableTest,
    ::testing::Values(Role::kParticipant, Role::kReplica, Role::kWorker),
    [](const ::testing::TestParamInfo<Role>& info) {
      switch (info.param) {
        case Role::kParticipant:
          return "participant";
        case Role::kReplica:
          return "replica";
        case Role::kWorker:
          return "worker";
      }
      return "unknown";
    });

}  // namespace
}  // namespace mmlib::simnet

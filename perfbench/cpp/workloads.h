#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/types.h"
#include "json/json.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace perfbench {

/// One timed operation of a store workload. Every op of one `type` has the
/// same shape (model, chain depth, op), so percentiles over a type never
/// mix sizes.
struct OpRecord {
  std::string type;  // "save" or "recover"
  double wall_s = 0.0;
  /// Simulated storage-network seconds the op charged (virtual clock).
  double net_s = 0.0;
  int64_t stored_bytes = 0;  // saves: bytes the version added to the store
  bool has_breakdown = false;
  mmlib::core::RecoverBreakdown breakdown;  // recovers
  bool ok = true;
  std::string error;  // why the op failed or its output was wrong
};

/// A seeded workload driven through the library's public API. Setup()
/// builds every input from the seed and warms the process up; Step() runs
/// one closed-loop round and appends its timed ops.
class Workload {
 public:
  virtual ~Workload() = default;

  virtual mmlib::Status Setup() = 0;
  virtual mmlib::Status Step(std::vector<OpRecord>* ops) = 0;

  /// Calls public layer functions on the workload's own inputs inside
  /// probe spans (traced run only); returns what the spans cannot carry
  /// (payload sizes, compression ratio).
  virtual mmlib::json::Value Probe() = 0;

  /// Layer counters accumulated since Setup() finished.
  virtual mmlib::json::Value Counters() const = 0;

  /// Workload-specific results (serving reports); null when none.
  virtual mmlib::json::Value Extra() const { return mmlib::json::Value(); }

  /// Serving: simulated requests completed so far. Store workloads count
  /// their ops instead and return 0.
  virtual uint64_t SimulatedRequests() const { return 0; }
};

/// Names of the workloads MakeWorkload accepts.
const std::vector<std::string>& WorkloadNames();

/// Thread-pool size each workload fixes for itself (never derived from the
/// host), recorded with every result.
size_t PoolSizeFor(const std::string& name);

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       mmlib::util::ThreadPool* pool);

}  // namespace perfbench

#include "serve/backend.h"

#include "simnet/arrivals.h"

namespace mmlib::serve {
namespace {

/// Uniform double in [0, 1) from a 64-bit hash (53 mantissa bits, the same
/// construction as util::Rng::NextDouble).
double HashUnit(uint64_t h) {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

BackendOutcome SimulatedBackend::Execute(const Request& request,
                                         size_t batch_size,
                                         double now_seconds) {
  (void)now_seconds;
  BackendOutcome outcome;
  if (network_ != nullptr) {
    network_->ApplyDueReplicaEvents();
    if (!network_->IsReachable(simnet::Role::kReplica, replica_)) {
      outcome.code = StatusCode::kUnavailable;
      outcome.service_seconds = options_.unavailable_seconds;
      return outcome;
    }
  }
  // Every draw is keyed by the request identity, not a stream position, so
  // shedding or reordering neighbors never shifts this request's fate.
  const uint64_t identity =
      simnet::MixHash(options_.seed ^ simnet::MixHash(request.sequence));
  const uint64_t kind_salt =
      simnet::MixHash(identity ^ static_cast<uint64_t>(request.kind));

  if (options_.fault_probability > 0.0 &&
      HashUnit(simnet::MixHash(kind_salt ^ 0xfau)) <
          options_.fault_probability) {
    outcome.code = StatusCode::kUnavailable;
    outcome.service_seconds = options_.unavailable_seconds;
    return outcome;
  }

  const double base =
      options_.base_seconds[static_cast<size_t>(request.kind)];
  double seconds =
      base * (1.0 + options_.jitter_fraction *
                        HashUnit(simnet::MixHash(kind_salt ^ 0x11u)));
  if (options_.tail_probability > 0.0 &&
      HashUnit(simnet::MixHash(kind_salt ^ 0x77u)) <
          options_.tail_probability) {
    seconds *= options_.tail_multiplier;
  }
  if (batch_size > 1) {
    seconds *= 1.0 + (static_cast<double>(batch_size) - 1.0) *
                         options_.batch_marginal_fraction;
  }
  outcome.service_seconds = seconds;
  return outcome;
}

}  // namespace mmlib::serve

/// Battery-fleet scenario — the paper's motivating example (Section 1).
///
/// A fleet of electric vehicles each runs a battery-health model. Every
/// vehicle regularly fine-tunes the last layers of its model on locally
/// collected measurements (partially updated model versions) and reports
/// the new version to a central server over a constrained cellular uplink.
/// After an incident, the server must recover the *exact* model a specific
/// vehicle was running for debugging.
///
/// The adaptive save service picks the cheapest approach per save; with
/// head-only updates over a slow link, that is the parameter update
/// approach — compare the transferred bytes against full snapshots.
#include <cstdio>
#include <vector>

#include "core/adaptive.h"
#include "core/model_code.h"
#include "core/recover.h"
#include "docstore/document_store.h"
#include "env/environment.h"
#include "filestore/file_store.h"
#include "models/zoo.h"
#include "util/random.h"

using namespace mmlib;

namespace {

/// Stand-in for on-vehicle fine-tuning: perturbs the trainable (head)
/// parameters with measurements collected since the last update.
void FineTuneOnLocalData(nn::Model* model, uint64_t seed) {
  Rng rng(seed);
  for (size_t i = 0; i < model->node_count(); ++i) {
    for (nn::Param& param : model->layer(i)->params()) {
      if (param.trainable && !param.is_buffer) {
        for (int64_t k = 0; k < param.value.numel(); ++k) {
          param.value.at(k) += rng.NextGaussian() * 0.005f;
        }
      }
    }
  }
}

}  // namespace

int main() {
  std::printf("battery fleet example\n=====================\n\n");

  constexpr int kVehicles = 4;
  constexpr int kUpdateRounds = 3;

  // Central storage; every save crosses the fleet's cellular uplink.
  docstore::InMemoryDocumentStore docs;
  filestore::InMemoryFileStore files;
  simnet::Network uplink(simnet::Link::Cellular50M());
  docstore::RemoteDocumentStore remote_docs(&docs, &uplink);
  filestore::RemoteFileStore remote_files(&files, &uplink);
  core::StorageBackends backends{&remote_docs, &remote_files, &uplink};

  core::AdaptiveSaveService service(backends);
  const env::EnvironmentInfo environment = env::CollectEnvironment();

  // The battery model: a compact CNN over sensor "images".
  models::ModelConfig config =
      models::DefaultConfig(models::Architecture::kMobileNetV2);
  const json::Value code = core::CodeDescriptorFor(config);

  // U1: develop the initial model centrally and register it.
  auto initial = models::BuildModel(config).value();
  models::ApplyPartialUpdateFreeze(&initial);
  core::SaveRequest u1;
  u1.model = &initial;
  u1.code = code;
  u1.environment = &environment;
  const auto u1_save = service.SaveModel(u1).value();
  std::printf("registered initial model %s (%.2f MB, full snapshot)\n\n",
              u1_save.model_id.c_str(), u1_save.storage_bytes / 1e6);

  // Each vehicle gets a copy and fine-tunes it over several rounds.
  struct Vehicle {
    nn::Model model{""};
    std::string reported_id;
  };
  std::vector<Vehicle> fleet(kVehicles);
  for (int v = 0; v < kVehicles; ++v) {
    fleet[v].model =
        models::LoadModel(config, initial.SerializeParams()).value();
    models::ApplyPartialUpdateFreeze(&fleet[v].model);
    fleet[v].reported_id = u1_save.model_id;
  }

  int64_t reported_bytes = 0;
  int64_t snapshot_bytes = 0;
  for (int round = 1; round <= kUpdateRounds; ++round) {
    std::printf("round %d:\n", round);
    for (int v = 0; v < kVehicles; ++v) {
      FineTuneOnLocalData(&fleet[v].model, round * 100 + v);
      core::SaveRequest request;
      request.model = &fleet[v].model;
      request.code = code;
      request.environment = &environment;
      request.base_model_id = fleet[v].reported_id;
      const auto save = service.SaveModel(request).value();
      fleet[v].reported_id = save.model_id;
      reported_bytes += save.storage_bytes;
      snapshot_bytes +=
          static_cast<int64_t>(fleet[v].model.ParamByteSize());
      std::printf(
          "  vehicle %d reported %s via %s: %.0f KB in %.3f s over the "
          "uplink\n",
          v, save.model_id.c_str(),
          std::string(service.last_choice()).c_str(),
          save.storage_bytes / 1e3, save.tts_seconds);
    }
  }
  std::printf(
      "\nfleet reported %.2f MB total; full snapshots would have been "
      "%.2f MB (saved %.1f%%)\n",
      reported_bytes / 1e6, snapshot_bytes / 1e6,
      100.0 * (1.0 - static_cast<double>(reported_bytes) / snapshot_bytes));
  std::printf("uplink: %llu messages, %.2f MB, %.2f s of transfer time\n\n",
              static_cast<unsigned long long>(uplink.MessageCount()),
              uplink.TotalBytes() / 1e6, uplink.TotalTransferSeconds());

  // Incident on vehicle 2: recover the exact model it was running.
  core::ModelRecoverer recoverer(backends);
  const std::string incident_id = fleet[2].reported_id;
  auto recovered =
      recoverer.Recover(incident_id, core::RecoverOptions{}).value();
  const bool exact =
      recovered.model.ParamsHash() == fleet[2].model.ParamsHash();
  std::printf(
      "incident analysis: recovered vehicle 2's model %s in %.3f s; "
      "bit-exact: %s\n",
      incident_id.c_str(), recovered.breakdown.TotalSeconds(),
      exact ? "yes" : "no");
  return exact ? 0 : 1;
}

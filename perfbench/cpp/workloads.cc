#include "workloads.h"

#include <chrono>
#include <utility>

#include "core/baseline.h"
#include "core/catalog.h"
#include "core/model_code.h"
#include "core/param_update.h"
#include "core/provenance.h"
#include "core/recover.h"
#include "core/train_service.h"
#include "data/dataset.h"
#include "env/environment.h"
#include "kernels/plan_cache.h"
#include "models/zoo.h"
#include "probes.h"
#include "repl/replicated_store.h"
#include "serve/backend.h"
#include "serve/frontend.h"
#include "serve/workload.h"
#include "simnet/network.h"
#include "timed_stores.h"
#include "trace.h"
#include "util/random.h"

namespace perfbench {

namespace {

using namespace mmlib;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

/// The storage/TTS figures' laptop-scale model (channel divisor 4).
models::ModelConfig StorageScaleModel(models::Architecture arch,
                                      uint64_t seed) {
  models::ModelConfig config = models::DefaultConfig(arch);
  config.channel_divisor = 4;
  config.image_size = 56;
  config.num_classes = 250;
  config.init_seed = seed;
  return config;
}

/// The smaller configuration of the figures that really train (divisor 8).
models::ModelConfig TrainScaleModel(models::Architecture arch, uint64_t seed) {
  models::ModelConfig config = models::DefaultConfig(arch);
  config.channel_divisor = 8;
  config.image_size = 28;
  config.num_classes = 125;
  config.init_seed = seed;
  return config;
}

/// The paper's storage service (MongoDB plus shared storage): ~300 MB/s and
/// 0.2 ms per message.
simnet::Link StorageServiceLink() { return simnet::Link{300e6, 0.2e-3}; }

/// Seeded stand-in for a training run: nudges every trainable parameter.
void Perturb(nn::Model* model, uint64_t seed) {
  Rng rng(seed);
  for (size_t i = 0; i < model->node_count(); ++i) {
    for (nn::Param& param : model->layer(i)->params()) {
      if (!param.trainable || param.is_buffer) {
        continue;
      }
      float* values = param.value.data();
      for (int64_t k = 0; k < param.value.numel(); ++k) {
        values[k] += rng.NextGaussian() * 0.01f;
      }
    }
  }
}

Result<nn::Model> Clone(const models::ModelConfig& config,
                        const nn::Model& source) {
  MMLIB_ASSIGN_OR_RETURN(nn::Model copy, models::BuildModel(config));
  MMLIB_RETURN_IF_ERROR(copy.LoadParams(source.SerializeParams()));
  return copy;
}

/// A model version the workload saves over and over, with the parameter
/// bytes every recovery of it must reproduce.
struct Candidate {
  nn::Model model{""};
  Bytes params;
  core::ProvenanceData provenance;  // MPA only
};

/// Derives the seed of one input from the workload seed. Kept below 2^32:
/// provenance documents store training seeds as JSON numbers (doubles), so
/// a seed of 2^53 or more does not survive an MPA save and its replay
/// diverges.
uint64_t Mix(uint64_t seed, uint64_t salt) {
  SplitMix64 mix(seed ^ (salt * 0x9e3779b97f4a7c15ULL));
  return mix.Next() & 0xffffffffULL;
}

/// Shared plumbing of the three store workloads: timing decorators between
/// the services and the real stores, timed save/recover with the per-op
/// correctness check, and counter snapshots.
class StoreWorkload : public Workload {
 public:
  StoreWorkload(uint64_t seed, util::ThreadPool* pool)
      : seed_(seed), pool_(pool), environment_(env::CollectEnvironment()) {}

  json::Value Counters() const override {
    const kernels::PlanCache::Stats now =
        kernels::PlanCache::Instance().stats();
    json::Value counters = json::Value::MakeObject();
    counters.Set("plan_hits",
                 static_cast<int64_t>(now.conv_hits + now.linear_hits -
                                      plan_start_.conv_hits -
                                      plan_start_.linear_hits));
    counters.Set("plan_misses",
                 static_cast<int64_t>(now.conv_misses + now.linear_misses -
                                      plan_start_.conv_misses -
                                      plan_start_.linear_misses));
    return counters;
  }

 protected:
  void UseStores(docstore::DocumentStore* docs, filestore::FileStore* files,
                 simnet::Network* network) {
    timed_docs_ = std::make_unique<TimedDocumentStore>(docs);
    timed_files_ = std::make_unique<TimedFileStore>(files);
    network_ = network;
    backends_ = core::StorageBackends{timed_docs_.get(), timed_files_.get(),
                                      network, pool_};
    recoverer_ = std::make_unique<core::ModelRecoverer>(backends_);
  }

  core::SaveRequest Request(nn::Model* model, const std::string& base_id,
                            const core::ProvenanceData* provenance) const {
    core::SaveRequest request;
    request.model = model;
    request.code = code_;
    request.environment = &environment_;
    request.base_model_id = base_id;
    request.provenance = provenance;
    return request;
  }

  /// Untimed save used while building the workload's fixed chain.
  Result<std::string> SetupSave(nn::Model* model, const std::string& base_id,
                                const core::ProvenanceData* provenance) {
    MMLIB_ASSIGN_OR_RETURN(
        core::SaveResult saved,
        service_->SaveModel(Request(model, base_id, provenance)));
    return saved.model_id;
  }

  /// One timed save; returns the new version's id, or "" when it failed.
  std::string TimedSave(Candidate* candidate, const std::string& base_id,
                        std::vector<OpRecord>* ops) {
    OpRecord record;
    record.type = "save";
    const core::SaveRequest request =
        Request(&candidate->model, base_id,
                candidate->provenance.dataset != nullptr
                    ? &candidate->provenance
                    : nullptr);
    const double net_start = network_->TotalTransferSeconds();
    const auto start = std::chrono::steady_clock::now();
    Result<core::SaveResult> saved = [&] {
      Tracer::Scope span("op.save");
      return service_->SaveModel(request);
    }();
    record.wall_s = SecondsSince(start);
    record.net_s = network_->TotalTransferSeconds() - net_start;
    std::string id;
    if (saved.ok()) {
      record.stored_bytes = saved.value().storage_bytes;
      id = saved.value().model_id;
    } else {
      record.ok = false;
      record.error = "save: " + saved.status().ToString();
    }
    ops->push_back(std::move(record));
    return id;
  }

  /// One timed recover of `id`, checked against the version it was saved
  /// from: the library's own checksum verdict must hold, and the recovered
  /// parameter bytes must equal the saved version's (which implies equal
  /// ParamsHash() at a fraction of a second SHA-256 pass).
  void TimedRecover(const std::string& id, const Candidate& expected,
                    std::vector<OpRecord>* ops) {
    OpRecord record;
    record.type = "recover";
    const double net_start = network_->TotalTransferSeconds();
    const auto start = std::chrono::steady_clock::now();
    Result<core::RecoveredModel> recovered = [&] {
      Tracer::Scope span("op.recover");
      return recoverer_->Recover(id, core::RecoverOptions{});
    }();
    record.wall_s = SecondsSince(start);
    record.net_s = network_->TotalTransferSeconds() - net_start;
    if (!recovered.ok()) {
      record.ok = false;
      record.error = "recover: " + recovered.status().ToString();
    } else {
      const core::RecoveredModel& model = recovered.value();
      record.has_breakdown = true;
      record.breakdown = model.breakdown;
      if (!model.checksum_verified) {
        record.ok = false;
        record.error = "recover: checksum not verified";
      } else if (!model.environment_matches) {
        record.ok = false;
        record.error = "recover: environment mismatch";
      } else if (model.model.SerializeParams() != expected.params) {
        record.ok = false;
        record.error = "recover: parameters differ from the saved version";
      }
    }
    ops->push_back(std::move(record));
  }

  /// Runs `rounds` untimed rounds (warm-up: plan cache, scratch pools,
  /// allocator) and fails if any of their ops failed.
  Status WarmUp(int rounds) {
    std::vector<OpRecord> ops;
    for (int i = 0; i < rounds; ++i) {
      MMLIB_RETURN_IF_ERROR(Step(&ops));
    }
    for (const OpRecord& op : ops) {
      if (!op.ok) {
        return Status::Internal("warm-up " + op.error);
      }
    }
    plan_start_ = kernels::PlanCache::Instance().stats();
    return Status::OK();
  }

  uint64_t seed_;
  util::ThreadPool* pool_;
  const env::EnvironmentInfo environment_;
  json::Value code_;
  simnet::Network* network_ = nullptr;
  std::unique_ptr<TimedDocumentStore> timed_docs_;
  std::unique_ptr<TimedFileStore> timed_files_;
  core::StorageBackends backends_;
  std::unique_ptr<core::SaveService> service_;
  std::unique_ptr<core::ModelRecoverer> recoverer_;
  std::vector<Candidate> candidates_;
  uint64_t round_ = 0;
  kernels::PlanCache::Stats plan_start_;
};

/// In-memory stores reached over the simulated storage-service link.
struct RemoteStores {
  simnet::Network network{StorageServiceLink()};
  docstore::InMemoryDocumentStore docs_raw;
  filestore::InMemoryFileStore files_raw;
  docstore::RemoteDocumentStore docs{&docs_raw, &network};
  filestore::RemoteFileStore files{&files_raw, &network};
};

constexpr size_t kCandidates = 4;

/// PUA on ResNet-152, partially updated: each round saves one new version
/// on top of a fixed depth-3 chain, then recovers it at depth 4.
class PuaChain : public StoreWorkload {
 public:
  using StoreWorkload::StoreWorkload;

  Status Setup() override {
    UseStores(&stores_.docs, &stores_.files, &stores_.network);
    service_ = std::make_unique<core::ParamUpdateSaveService>(backends_);
    config_ = StorageScaleModel(models::Architecture::kResNet152,
                                Mix(seed_, 1));
    code_ = core::CodeDescriptorFor(config_);
    MMLIB_ASSIGN_OR_RETURN(model_, models::BuildModel(config_));
    models::ApplyPartialUpdateFreeze(&model_);
    MMLIB_ASSIGN_OR_RETURN(tip_id_, SetupSave(&model_, "", nullptr));
    for (uint64_t depth = 1; depth <= 3; ++depth) {
      Perturb(&model_, Mix(seed_, 10 + depth));
      MMLIB_ASSIGN_OR_RETURN(tip_id_, SetupSave(&model_, tip_id_, nullptr));
    }
    for (size_t k = 0; k < kCandidates; ++k) {
      Candidate candidate;
      MMLIB_ASSIGN_OR_RETURN(candidate.model, Clone(config_, model_));
      models::ApplyPartialUpdateFreeze(&candidate.model);
      Perturb(&candidate.model, Mix(seed_, 100 + k));
      candidate.params = candidate.model.SerializeParams();
      candidates_.push_back(std::move(candidate));
    }
    return WarmUp(2);
  }

  Status Step(std::vector<OpRecord>* ops) override {
    Candidate& candidate = candidates_[round_++ % candidates_.size()];
    const std::string id = TimedSave(&candidate, tip_id_, ops);
    if (!id.empty()) {
      TimedRecover(id, candidate, ops);
    }
    return Status::OK();
  }

  json::Value Probe() override {
    json::Value out = json::Value::MakeObject();
    ProbeMerkle(model_, pool_, &out);
    ProbeSha256(model_.SerializeParams(), &out);
    ProbeCodec(service_->params_codec(), model_.SerializeParams(), &out);
    return out;
  }

 private:
  RemoteStores stores_;
  models::ModelConfig config_;
  nn::Model model_{""};
  std::string tip_id_;
};

/// MPA on MobileNetV2 with real deterministic training: each round saves a
/// version derived from a fixed root by one training run, then recovers it
/// at depth 1 by replaying that training.
class MpaReplay : public StoreWorkload {
 public:
  using StoreWorkload::StoreWorkload;

  Status Setup() override {
    UseStores(&stores_.docs, &stores_.files, &stores_.network);
    // The library's default dataset codec (LZ77).
    service_ = std::make_unique<core::ProvenanceSaveService>(backends_);
    config_ = TrainScaleModel(models::Architecture::kMobileNetV2,
                              Mix(seed_, 2));
    code_ = core::CodeDescriptorFor(config_);
    // CO-512 scaled like the model (divisor 8^2), materialized once: the
    // paper's datasets are files on disk.
    data::SyntheticImageDataset source(data::PaperDatasetId::kCocoOutdoor512,
                                       64);
    dataset_ = data::Materialize(source);
    MMLIB_ASSIGN_OR_RETURN(root_, models::BuildModel(config_));
    root_.SetTrainableAll(true);
    MMLIB_ASSIGN_OR_RETURN(root_id_, SetupSave(&root_, "", nullptr));
    for (size_t k = 0; k < kCandidates; ++k) {
      Candidate candidate;
      MMLIB_ASSIGN_OR_RETURN(candidate.model, Clone(config_, root_));
      candidate.model.SetTrainableAll(true);
      core::ImageTrainService trainer(dataset_.get(), TrainConfigFor(k));
      trainer.set_thread_pool(pool_);
      MMLIB_ASSIGN_OR_RETURN(candidate.provenance,
                             trainer.CaptureProvenance());
      MMLIB_RETURN_IF_ERROR(
          trainer.Train(&candidate.model, /*deterministic=*/true, 0).status());
      candidate.params = candidate.model.SerializeParams();
      candidates_.push_back(std::move(candidate));
    }
    return WarmUp(2);
  }

  Status Step(std::vector<OpRecord>* ops) override {
    Candidate& candidate = candidates_[round_++ % candidates_.size()];
    const std::string id = TimedSave(&candidate, root_id_, ops);
    if (!id.empty()) {
      TimedRecover(id, candidate, ops);
    }
    return Status::OK();
  }

  json::Value Probe() override {
    json::Value out = json::Value::MakeObject();
    ProbeMerkle(root_, pool_, &out);
    ProbeSha256(root_.SerializeParams(), &out);
    Result<Bytes> payload = ArchivePayload(*dataset_);
    if (payload.ok()) {
      ProbeCodec(core::ProvenanceOptions{}.dataset_codec, payload.value(),
                 &out);
    }
    // On a copy: training-mode forward passes update batch-norm buffers.
    Result<nn::Model> copy = Clone(config_, candidates_.front().model);
    if (copy.ok()) {
      ProbeTraining(&copy.value(), *dataset_, TrainConfigFor(0).loader,
                    pool_, &out);
    }
    return out;
  }

 private:
  core::TrainConfig TrainConfigFor(size_t k) const {
    core::TrainConfig train;
    train.sgd.momentum = 0.0f;  // no optimizer state files, as in the flows
    train.seed = Mix(seed_, 200 + k);
    train.loader.seed = train.seed;
    train.loader.image_size = config_.image_size;
    train.loader.num_classes = config_.num_classes;
    return train;
  }

  RemoteStores stores_;
  models::ModelConfig config_;
  std::unique_ptr<data::InMemoryDataset> dataset_;
  nn::Model root_{""};
  std::string root_id_;
};

/// BA on ResNet-50, fully updated, over 3-way replicated stores (W=2) with
/// seeded drops and corruption: saves alternate with recovers of a seeded
/// choice among earlier versions, all full snapshots (depth 0).
class BaReplicated : public StoreWorkload {
 public:
  using StoreWorkload::StoreWorkload;

  static constexpr size_t kReplicas = 3;
  /// Versions kept in the store; older ones are deleted (untimed) so a
  /// long run does not grow without bound.
  static constexpr size_t kRetained = 8;

  Status Setup() override {
    network_storage_.ConfigureReplicas(kReplicas);
    std::vector<filestore::RemoteFileStore*> file_ptrs;
    std::vector<docstore::RemoteDocumentStore*> doc_ptrs;
    for (size_t r = 0; r < kReplicas; ++r) {
      file_raw_.push_back(std::make_unique<filestore::InMemoryFileStore>());
      doc_raw_.push_back(std::make_unique<docstore::InMemoryDocumentStore>());
      file_remote_.push_back(std::make_unique<filestore::RemoteFileStore>(
          file_raw_.back().get(), &network_storage_));
      doc_remote_.push_back(std::make_unique<docstore::RemoteDocumentStore>(
          doc_raw_.back().get(), &network_storage_));
      file_remote_.back()->BindReplica(r);
      doc_remote_.back()->BindReplica(r);
      file_ptrs.push_back(file_remote_.back().get());
      doc_ptrs.push_back(doc_remote_.back().get());
      // Two healthy replicas and one flaky one: transport retries absorb
      // the healthy replicas' faults, while the flaky replica's exhausted
      // retries leave it stale and force read fallbacks and repairs.
      const bool flaky = r == kReplicas - 1;
      simnet::FaultPlan plan;
      plan.drop_probability = flaky ? 0.5 : 0.02;
      plan.corrupt_probability = flaky ? 0.2 : 0.02;
      plan.seed = Mix(seed_, 300 + r);
      MMLIB_RETURN_IF_ERROR(network_storage_.SetReplicaFaultPlan(r, plan));
    }
    repl::QuorumConfig quorum;
    quorum.write_quorum = 2;
    quorum.read_quorum = 2;
    MMLIB_ASSIGN_OR_RETURN(files_, repl::ReplicatedFileStore::Create(
                                       file_ptrs, &network_storage_, quorum));
    MMLIB_ASSIGN_OR_RETURN(docs_, repl::ReplicatedDocumentStore::Create(
                                      doc_ptrs, &network_storage_, quorum));
    UseStores(docs_.get(), files_.get(), &network_storage_);
    service_ = std::make_unique<core::BaselineSaveService>(backends_);
    config_ = StorageScaleModel(models::Architecture::kResNet50,
                                Mix(seed_, 3));
    code_ = core::CodeDescriptorFor(config_);
    MMLIB_ASSIGN_OR_RETURN(nn::Model base, models::BuildModel(config_));
    for (size_t k = 0; k < kCandidates; ++k) {
      Candidate candidate;
      MMLIB_ASSIGN_OR_RETURN(candidate.model, Clone(config_, base));
      candidate.model.SetTrainableAll(true);
      Perturb(&candidate.model, Mix(seed_, 400 + k));
      candidate.params = candidate.model.SerializeParams();
      candidates_.push_back(std::move(candidate));
    }
    for (size_t k = 0; k < kCandidates; ++k) {
      MMLIB_ASSIGN_OR_RETURN(std::string id,
                             SetupSave(&candidates_[k].model, "", nullptr));
      versions_.push_back({id, k});
    }
    chooser_ = Rng(Mix(seed_, 500));
    MMLIB_RETURN_IF_ERROR(WarmUp(2));
    counter_start_ = ReplCounters();
    return Status::OK();
  }

  Status Step(std::vector<OpRecord>* ops) override {
    const size_t k = round_++ % candidates_.size();
    const std::string id = TimedSave(&candidates_[k], "", ops);
    // A seeded choice among the versions saved before this round.
    const auto& [recover_id, recover_k] =
        versions_[chooser_.NextBelow(versions_.size())];
    TimedRecover(recover_id, candidates_[recover_k], ops);
    if (!id.empty()) {
      versions_.push_back({id, k});
    }
    while (versions_.size() > kRetained) {
      core::ModelCatalog catalog(backends_);
      Status deleted = catalog.DeleteModel(versions_.front().first);
      if (!deleted.ok()) {
        return deleted;
      }
      versions_.erase(versions_.begin());
    }
    return Status::OK();
  }

  json::Value Counters() const override {
    json::Value counters = StoreWorkload::Counters();
    const ReplSnapshot now = ReplCounters();
    counters.Set("simnet_retries",
                 static_cast<int64_t>(now.retries - counter_start_.retries));
    counters.Set("simnet_faults",
                 static_cast<int64_t>(now.faults - counter_start_.faults));
    counters.Set("repl_read_fallbacks",
                 static_cast<int64_t>(now.read_fallbacks -
                                      counter_start_.read_fallbacks));
    counters.Set("repl_read_repairs",
                 static_cast<int64_t>(now.read_repairs -
                                      counter_start_.read_repairs));
    return counters;
  }

  json::Value Probe() override {
    json::Value out = json::Value::MakeObject();
    const nn::Model& model = candidates_.front().model;
    ProbeMerkle(model, pool_, &out);
    ProbeSha256(model.SerializeParams(), &out);
    ProbeCodec(service_->params_codec(), model.SerializeParams(), &out);
    return out;
  }

 private:
  struct ReplSnapshot {
    uint64_t retries = 0;
    uint64_t faults = 0;
    uint64_t read_fallbacks = 0;
    uint64_t read_repairs = 0;
  };

  ReplSnapshot ReplCounters() const {
    ReplSnapshot snapshot;
    snapshot.retries =
        files_->TransportRetryCount() + docs_->TransportRetryCount();
    snapshot.faults = network_storage_.FaultCount();
    for (size_t r = 0; r < kReplicas; ++r) {
      for (const repl::ReplicaCounters* c :
           {&files_->replica_counters(r), &docs_->replica_counters(r)}) {
        snapshot.read_fallbacks += c->read_fallbacks;
        snapshot.read_repairs += c->read_repairs;
      }
    }
    return snapshot;
  }

  simnet::Network network_storage_{StorageServiceLink()};
  std::vector<std::unique_ptr<filestore::InMemoryFileStore>> file_raw_;
  std::vector<std::unique_ptr<docstore::InMemoryDocumentStore>> doc_raw_;
  std::vector<std::unique_ptr<filestore::RemoteFileStore>> file_remote_;
  std::vector<std::unique_ptr<docstore::RemoteDocumentStore>> doc_remote_;
  std::unique_ptr<repl::ReplicatedFileStore> files_;
  std::unique_ptr<repl::ReplicatedDocumentStore> docs_;
  models::ModelConfig config_;
  std::vector<std::pair<std::string, size_t>> versions_;  // id, candidate
  Rng chooser_{0};
  ReplSnapshot counter_start_;
};

/// Open-loop serving on the virtual clock: ServingFrontend over three
/// SimulatedBackends at twice the saturation rate, with one replica
/// crash/restart window per episode. Each Step() simulates one episode of
/// fixed horizon; episode i is seeded from (seed, i), so every process
/// running a seed produces the same episode digests.
class ServeOverload : public Workload {
 public:
  /// Offered load: twice the 6000 rps offered rate at which this
  /// configuration saturates (about 2.9k rps served).
  static constexpr double kOfferedRps = 12000.0;
  static constexpr double kHorizonSeconds = 30.0;

  ServeOverload(uint64_t seed, util::ThreadPool*) : seed_(seed) {}

  Status Setup() override {
    // Warm-up: one episode of the timed shape outside the timed set.
    RunEpisode(Mix(seed_, 900), kHorizonSeconds);
    episodes_ = json::Value::MakeArray();
    return Status::OK();
  }

  Status Step(std::vector<OpRecord>*) override {
    const uint64_t episode_seed = Mix(seed_, 1000 + episode_count_);
    const auto start = std::chrono::steady_clock::now();
    serve::ServeReport report;
    {
      Tracer::Scope span("op.serve_episode");
      report = RunEpisode(episode_seed, kHorizonSeconds);
    }
    const double wall = SecondsSince(start);
    requests_ += report.counters.arrivals;
    json::Value episode = json::Value::MakeObject();
    episode.Set("wall_s", wall);
    episode.Set("digest", report.Digest());
    episode.Set("arrivals", static_cast<int64_t>(report.counters.arrivals));
    episode.Set("admitted", static_cast<int64_t>(report.counters.admitted));
    episode.Set("served", static_cast<int64_t>(report.counters.served()));
    episode.Set("shed", static_cast<int64_t>(report.counters.shed()));
    episode.Set("goodput_rps", report.goodput_rps);
    episode.Set("admitted_p99_ms", report.latency.Quantile(0.99) * 1e3);
    episode.Set("breaker_trips",
                static_cast<int64_t>(report.counters.breaker_trips));
    episode.Set("expired_in_queue",
                static_cast<int64_t>(report.counters.expired_in_queue));
    episode.Set("hedged_reads",
                static_cast<int64_t>(report.counters.hedged_reads));
    episode.Set("backend_failures",
                static_cast<int64_t>(report.counters.backend_failures));
    episodes_.Append(std::move(episode));
    ++episode_count_;
    return Status::OK();
  }

  json::Value Probe() override { return json::Value::MakeObject(); }
  json::Value Counters() const override { return json::Value::MakeObject(); }

  json::Value Extra() const override {
    json::Value extra = json::Value::MakeObject();
    extra.Set("offered_rps", kOfferedRps);
    extra.Set("horizon_s", kHorizonSeconds);
    // Arrival times are drawn on the virtual clock and the simulator
    // advances to each one, so the generator is never late.
    extra.Set("generator_lateness_s", 0.0);
    extra.Set("episodes", episodes_);
    return extra;
  }

  uint64_t SimulatedRequests() const override { return requests_; }

 private:
  static serve::ServeReport RunEpisode(uint64_t seed, double horizon) {
    simnet::Network network(simnet::Link{1e9, 1e-4});
    network.ConfigureReplicas(3);
    network.ScheduleReplicaCrash(1, 0.2 * horizon);
    network.ScheduleReplicaRestart(1, 0.6 * horizon);

    serve::SimulatedBackendOptions backend_options;
    backend_options.seed = seed ^ 0xbacULL;
    std::vector<std::unique_ptr<serve::SimulatedBackend>> backends;
    std::vector<serve::ServeBackend*> backend_ptrs;
    for (size_t r = 0; r < 3; ++r) {
      backends.push_back(std::make_unique<serve::SimulatedBackend>(
          backend_options, &network, r));
      backend_ptrs.push_back(backends.back().get());
    }
    serve::FrontendOptions options;
    options.node_count = 3;
    options.workers_per_node = 4;
    options.tenant_count = 4;
    options.queue.per_tenant_capacity = 32;
    options.breaker.failure_threshold = 4;
    options.breaker.open_seconds = 0.25;
    options.seed = seed ^ 0xf207ULL;
    serve::ServingFrontend frontend(options, backend_ptrs, &network);

    serve::WorkloadSpec spec;
    spec.arrival_rate_per_second = kOfferedRps;
    spec.horizon_seconds = horizon;
    spec.deadline_seconds = 0.5;
    spec.seed = seed;
    serve::WorkloadGenerator workload(spec, options.tenant_count);
    return frontend.Run(workload);
  }

  uint64_t seed_;
  uint64_t episode_count_ = 0;
  uint64_t requests_ = 0;
  json::Value episodes_ = json::Value::MakeArray();
};

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {
      "pua_chain", "mpa_replay", "ba_replicated", "serve_overload"};
  return names;
}

size_t PoolSizeFor(const std::string&) {
  // One thread for every workload. Co-tenants of a shared host slow each
  // core on its own schedule, and an op spread over two cores mixes two
  // such schedules: on a 4-core VM a second thread raised pua_chain's op
  // rate by about a third but made it spread about twice as widely between
  // runs, and left mpa_replay's and ba_replicated's rates unchanged.
  return 1;
}

std::unique_ptr<Workload> MakeWorkload(const std::string& name, uint64_t seed,
                                       util::ThreadPool* pool) {
  if (name == "pua_chain") {
    return std::make_unique<PuaChain>(seed, pool);
  }
  if (name == "mpa_replay") {
    return std::make_unique<MpaReplay>(seed, pool);
  }
  if (name == "ba_replicated") {
    return std::make_unique<BaReplicated>(seed, pool);
  }
  if (name == "serve_overload") {
    return std::make_unique<ServeOverload>(seed, pool);
  }
  return nullptr;
}

}  // namespace perfbench

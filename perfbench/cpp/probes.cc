#include "probes.h"

#include <string>

#include "data/archive.h"
#include "hash/sha256.h"
#include "nn/execution_context.h"
#include "nn/loss.h"
#include "trace.h"

namespace perfbench {

using namespace mmlib;

namespace {

constexpr int kRepeats = 5;

void Fail(json::Value* out, const std::string& what, const Status& status) {
  out->Set("probe_error", what + ": " + status.ToString());
}

}  // namespace

void ProbeMerkle(const nn::Model& model, util::ThreadPool* pool,
                 json::Value* out) {
  for (int i = 0; i < kRepeats; ++i) {
    Tracer::Scope span("probe.merkle_build");
    span.set_bytes(model.ParamByteSize());
    Result<MerkleTree> tree = model.BuildMerkleTree(pool);
    if (!tree.ok()) {
      Fail(out, "merkle", tree.status());
      return;
    }
  }
}

void ProbeSha256(const Bytes& params, json::Value* out) {
  Digest first;
  for (int i = 0; i < kRepeats; ++i) {
    Tracer::Scope span("probe.sha256");
    span.set_bytes(params.size());
    const Digest digest = Sha256::Hash(params);
    if (i == 0) {
      first = digest;
    } else if (digest != first) {
      out->Set("probe_error", std::string("sha256: digest not repeatable"));
    }
  }
}

void ProbeCodec(CodecKind kind, const Bytes& payload, json::Value* out) {
  const Codec* codec = Codec::ForKind(kind);
  out->Set("codec", std::string(codec->name()));
  out->Set("codec_input_bytes", static_cast<int64_t>(payload.size()));
  for (int i = 0; i < kRepeats; ++i) {
    Result<Bytes> encoded = [&] {
      Tracer::Scope span("probe.codec_encode");
      span.set_bytes(payload.size());
      return codec->Compress(payload);
    }();
    if (!encoded.ok()) {
      Fail(out, "codec encode", encoded.status());
      return;
    }
    out->Set("codec_output_bytes",
             static_cast<int64_t>(encoded.value().size()));
    Result<Bytes> decoded = [&] {
      Tracer::Scope span("probe.codec_decode");
      span.set_bytes(payload.size());
      return codec->Decompress(encoded.value());
    }();
    if (!decoded.ok() || decoded.value() != payload) {
      out->Set("probe_error", std::string("codec: round trip differs"));
      return;
    }
  }
}

Result<Bytes> ArchivePayload(const data::Dataset& dataset) {
  data::DatasetArchiver archiver(Codec::ForKind(CodecKind::kIdentity));
  return archiver.Archive(dataset);
}

void ProbeTraining(nn::Model* model, const data::Dataset& dataset,
                   const data::DataLoaderOptions& loader_options,
                   util::ThreadPool* pool, json::Value* out) {
  data::DataLoader loader(&dataset, loader_options);
  loader.StartEpoch(0);
  nn::ExecutionContext ctx = nn::ExecutionContext::Deterministic(1);
  ctx.set_training(true);
  ctx.set_pool(pool);
  for (int i = 0; i < kRepeats; ++i) {
    Result<data::Batch> batch = [&] {
      Tracer::Scope span("probe.loader_batch");
      return loader.GetBatch(static_cast<size_t>(i) %
                             loader.BatchesPerEpoch());
    }();
    if (!batch.ok()) {
      Fail(out, "loader", batch.status());
      return;
    }
    model->ZeroGrad();
    Result<Tensor> logits = [&] {
      Tracer::Scope span("probe.forward");
      return model->Forward(batch.value().images, &ctx);
    }();
    if (!logits.ok()) {
      Fail(out, "forward", logits.status());
      return;
    }
    Result<nn::LossResult> loss =
        nn::SoftmaxCrossEntropy(logits.value(), batch.value().labels);
    if (!loss.ok()) {
      Fail(out, "loss", loss.status());
      return;
    }
    Result<Tensor> grad = [&] {
      Tracer::Scope span("probe.backward");
      return model->Backward(loss.value().grad_logits, &ctx);
    }();
    if (!grad.ok()) {
      Fail(out, "backward", grad.status());
      return;
    }
  }
}

}  // namespace perfbench

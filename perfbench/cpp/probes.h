#pragma once

#include "compress/codec.h"
#include "data/dataloader.h"
#include "data/dataset.h"
#include "json/json.h"
#include "nn/model.h"
#include "util/bytes.h"
#include "util/result.h"
#include "util/thread_pool.h"

namespace perfbench {

// Layer probes of the traced run. Each calls one public layer function a few
// times on the workload's own inputs, inside a "probe.*" span per call, and
// records into `out` what a span cannot carry.

/// Model::BuildMerkleTree on the workload's pool.
void ProbeMerkle(const mmlib::nn::Model& model, mmlib::util::ThreadPool* pool,
                 mmlib::json::Value* out);

/// SHA-256 over the serialized parameter bytes.
void ProbeSha256(const mmlib::Bytes& params, mmlib::json::Value* out);

/// The workload's codec: compress then decompress `payload`.
void ProbeCodec(mmlib::CodecKind kind, const mmlib::Bytes& payload,
                mmlib::json::Value* out);

/// The dataset bytes the MPA archiver hands to its codec.
mmlib::Result<mmlib::Bytes> ArchivePayload(const mmlib::data::Dataset& dataset);

/// One loader batch, then one deterministic forward and backward pass of
/// `model` on it.
void ProbeTraining(mmlib::nn::Model* model, const mmlib::data::Dataset& dataset,
                   const mmlib::data::DataLoaderOptions& loader_options,
                   mmlib::util::ThreadPool* pool, mmlib::json::Value* out);

}  // namespace perfbench

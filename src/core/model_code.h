#pragma once

#include "json/json.h"
#include "models/zoo.h"
#include "nn/model.h"
#include "util/bytes.h"
#include "util/result.h"

namespace mmlib::core {

/// mmlib saves "the model architecture by its implementation in code"
/// (paper Section 3.1). In this reproduction the unit of model code is a
/// *code descriptor*: a JSON document naming a zoo architecture and its
/// build configuration, replayed through models::LoadModel on recovery.
/// The substitution (source text -> replayable descriptor) is documented in
/// DESIGN.md Section 1.

/// Serializes a build configuration into a code descriptor document.
json::Value CodeDescriptorFor(const models::ModelConfig& config);

/// Parses a code descriptor back into a build configuration.
Result<models::ModelConfig> ConfigFromCodeDescriptor(const json::Value& doc);

/// Instantiates the model a code descriptor names, with every parameter and
/// buffer loaded from `params` (see models::LoadModel: no weight is drawn
/// from the descriptor's init_seed, and a snapshot that does not fit the
/// architecture is Corruption).
Result<nn::Model> LoadModelFromCode(const json::Value& doc,
                                    const Bytes& params);

}  // namespace mmlib::core


#include "nn/layer.h"

namespace mmlib::nn {

int64_t Layer::TrainableParamCount() const {
  int64_t count = 0;
  for (const Param& p : params_) {
    if (p.trainable && !p.is_buffer) {
      count += p.value.numel();
    }
  }
  return count;
}

int64_t Layer::TotalParamCount() const {
  int64_t count = 0;
  for (const Param& p : params_) {
    count += p.value.numel();
  }
  return count;
}

void Layer::SetTrainable(bool trainable) {
  for (Param& p : params_) {
    if (!p.is_buffer) {
      p.trainable = trainable;
    }
  }
}

bool Layer::HasTrainableParams() const {
  for (const Param& p : params_) {
    if (p.trainable && !p.is_buffer) {
      return true;
    }
  }
  return false;
}

void Layer::ZeroGrad() {
  for (Param& p : params_) {
    p.grad.Fill(0.0f);
  }
}

Digest Layer::ParamHash() const {
  std::vector<Digest> digests;
  digests.reserve(params_.size());
  for (const Param& p : params_) {
    digests.push_back(p.value.ContentHash());
  }
  return ParamHashWith(digests);
}

Digest Layer::ParamHashWith(const std::vector<Digest>& param_digests) const {
  Sha256 hasher;
  for (size_t i = 0; i < params_.size(); ++i) {
    hasher.Update(params_[i].name);
    const Digest& d = param_digests[i];
    hasher.Update(d.bytes.data(), d.bytes.size());
  }
  return hasher.Finish();
}

void Layer::SerializeParams(BytesWriter* writer) const {
  writer->WriteU64(params_.size());
  for (const Param& p : params_) {
    writer->WriteString(p.name);
    p.value.SerializeTo(writer);
  }
}

Status Layer::DeserializeParams(BytesReader* reader) {
  MMLIB_ASSIGN_OR_RETURN(uint64_t count, reader->ReadU64());
  if (count != params_.size()) {
    return Status::Corruption("layer " + name_ + ": parameter count mismatch");
  }
  for (Param& p : params_) {
    MMLIB_ASSIGN_OR_RETURN(std::string name, reader->ReadString());
    if (name != p.name) {
      return Status::Corruption("layer " + name_ + ": expected parameter " +
                                p.name + ", found " + name);
    }
    MMLIB_ASSIGN_OR_RETURN(Tensor value, Tensor::Deserialize(reader));
    if (value.shape() != p.value.shape()) {
      return Status::Corruption("layer " + name_ + ": parameter " + p.name +
                                " shape mismatch");
    }
    p.value = std::move(value);
  }
  return Status::OK();
}

size_t Layer::AddParam(std::string name, Tensor value, bool trainable,
                       bool is_buffer) {
  Param p;
  p.name = std::move(name);
  p.grad = Tensor(value.shape());
  p.value = std::move(value);
  p.trainable = trainable && !is_buffer;
  p.is_buffer = is_buffer;
  params_.push_back(std::move(p));
  return params_.size() - 1;
}

float AccumulateDot(const float* a, const float* b, size_t n,
                    bool has_fast_det_kernel, ExecutionContext* ctx) {
  return AccumulateDotKernel(a, b, n, has_fast_det_kernel,
                             ctx->deterministic(), ctx->scheduler_rng());
}

float AccumulateDotKernel(const float* a, const float* b, size_t n,
                          bool has_fast_det_kernel, bool deterministic,
                          Rng* scheduler_rng) {
  if (n == 0) {
    return 0.0f;
  }
  if (deterministic) {
    if (has_fast_det_kernel) {
      // Fixed-order plain summation; cheap and reproducible.
      return DotSerial(a, b, n);
    }
    // No fast deterministic kernel for this layer: fall back to compensated
    // summation (fixed order, extra per-element work).
    float sum = 0.0f;
    float compensation = 0.0f;
    for (size_t i = 0; i < n; ++i) {
      const float y = a[i] * b[i] - compensation;
      const float t = sum + y;
      compensation = (t - sum) - y;
      sum = t;
    }
    return sum;
  }
  return ScheduledDot(a, b, n, scheduler_rng);
}

float ScheduledDot(const float* a, const float* b, size_t n,
                   Rng* scheduler_rng) {
  // Short reductions are not worth parallelizing on a real device; they
  // stay serial (and thus deterministic) in both modes.
  constexpr size_t kMinParallelLength = 32;
  if (n < kMinParallelLength) {
    return DotSerial(a, b, n);
  }
  // Non-deterministic: the reduction is split where the scheduler happened
  // to partition the work, so association order varies between runs.
  const size_t split = 1 + static_cast<size_t>(scheduler_rng->NextBelow(n - 1));
  return DotSerial(a, b, split) + DotSerial(a + split, b + split, n - split);
}

}  // namespace mmlib::nn

#include "nn/conv2d.h"

#include "kernels/plan_cache.h"
#include "tensor/validate.h"
#include "util/thread_pool.h"
#include <cmath>
#include <cstring>

namespace mmlib::nn {

namespace {

/// Upper bound on forward chunks: enough slack for 16-way pools while
/// keeping per-chunk setup (patch buffer allocation) negligible.
constexpr int64_t kMaxForwardChunks = 64;

/// Upper bound on backward chunks. Backward chunks each carry a
/// weight-gradient scratch buffer of the full weight size, so the count
/// also caps scratch memory. Must be a constant (never the thread count):
/// chunk boundaries feed the fixed-order gradient reduction, and results
/// must not change with the pool size.
constexpr int64_t kMaxBackwardChunks = 8;

}  // namespace

Conv2d::Conv2d(std::string name, int64_t in_channels, int64_t out_channels,
               int64_t kernel_size, int64_t stride, int64_t padding,
               int64_t groups, Rng* rng)
    : Layer(std::move(name)),
      in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_size_(kernel_size),
      stride_(stride),
      padding_(padding),
      groups_(groups),
      group_in_(in_channels / groups),
      group_out_(out_channels / groups) {
  Shape weight_shape{out_channels, group_in_, kernel_size, kernel_size};
  if (rng == nullptr) {
    AddParam("weight", Tensor(std::move(weight_shape)));
    return;
  }
  // Kaiming-normal initialization: std = sqrt(2 / fan_in).
  const int64_t fan_in = group_in_ * kernel_size * kernel_size;
  const float stddev = std::sqrt(2.0f / static_cast<float>(fan_in));
  AddParam("weight", Tensor::Gaussian(std::move(weight_shape), stddev, rng));
}

void Conv2d::GatherPatch(const float* input, int64_t height, int64_t width,
                         int64_t n, int64_t g, int64_t oy, int64_t ox,
                         float* patch) const {
  const int64_t base_y = oy * stride_ - padding_;
  const int64_t base_x = ox * stride_ - padding_;
  int64_t idx = 0;
  for (int64_t c = 0; c < group_in_; ++c) {
    const int64_t channel = g * group_in_ + c;
    const float* plane =
        input + ((n * in_channels_ + channel) * height) * width;
    for (int64_t ky = 0; ky < kernel_size_; ++ky) {
      const int64_t y = base_y + ky;
      for (int64_t kx = 0; kx < kernel_size_; ++kx) {
        const int64_t x = base_x + kx;
        patch[idx++] = (y >= 0 && y < height && x >= 0 && x < width)
                           ? plane[y * width + x]
                           : 0.0f;
      }
    }
  }
}

const kernels::ConvPlan& Conv2d::PlanFor(int64_t batch, int64_t height,
                                         int64_t width) {
  if (!plan_ || plan_->geom().batch != batch ||
      plan_->geom().height != height || plan_->geom().width != width) {
    plan_ = kernels::PlanCache::Instance().GetConvPlan(kernels::ConvGeom{
        batch, in_channels_, out_channels_, kernel_size_, stride_, padding_,
        groups_, height, width, cached_out_h_, cached_out_w_});
  }
  return *plan_;
}

Result<Tensor> Conv2d::Forward(const std::vector<const Tensor*>& inputs,
                               ExecutionContext* ctx) {
  MMLIB_RETURN_IF_ERROR(check::ValidateArity(inputs, 1, name_));
  const Tensor& x = *inputs[0];
  if (x.shape().rank() != 4 || x.shape().dim(1) != in_channels_) {
    return Status::InvalidArgument("conv2d " + name_ + ": bad input shape " +
                                   x.shape().ToString());
  }
  cached_input_ = x;
  const int64_t batch = x.shape().dim(0);
  const int64_t height = x.shape().dim(2);
  const int64_t width = x.shape().dim(3);
  const int64_t out_h = (height + 2 * padding_ - kernel_size_) / stride_ + 1;
  const int64_t out_w = (width + 2 * padding_ - kernel_size_) / stride_ + 1;
  if (out_h <= 0 || out_w <= 0) {
    return Status::InvalidArgument("conv2d " + name_ +
                                   ": input too small for kernel");
  }
  cached_out_h_ = out_h;
  cached_out_w_ = out_w;
  has_forward_ = true;

  Tensor y(Shape{batch, out_channels_, out_h, out_w});
  const float* weight = params_[0].value.data();

  // Deterministic executions run in the kernel-plan layer: every plan's
  // reduction order is a pure function of the shape, so any pool size
  // produces bit-identical results. Non-deterministic executions take the
  // direct loop below, which models scheduler-driven reduction splits.
  if (ctx->deterministic()) {
    PlanFor(batch, height, width).Forward(x.data(), weight, y.data(),
                                          ctx->pool());
    return y;
  }

  // Shard over (sample, group): every task writes a disjoint channel block
  // of y, each output element one scheduler-split dot product.
  const int64_t patch_size = group_in_ * kernel_size_ * kernel_size_;
  const int64_t tasks = batch * groups_;
  const int64_t grain = util::GrainForMaxChunks(tasks, kMaxForwardChunks);
  const uint64_t epoch = ctx->NextParallelEpoch();
  util::ParallelFor(
      ctx->pool(), tasks, grain,
      [&](int64_t begin, int64_t end, size_t chunk_index) {
        std::vector<float> patch(patch_size);
        Rng scheduler(ctx->ChunkSchedulerSeed(epoch, chunk_index));
        for (int64_t t = begin; t < end; ++t) {
          const int64_t n = t / groups_;
          const int64_t g = t % groups_;
          for (int64_t oy = 0; oy < out_h; ++oy) {
            for (int64_t ox = 0; ox < out_w; ++ox) {
              GatherPatch(x.data(), height, width, n, g, oy, ox, patch.data());
              for (int64_t oc = 0; oc < group_out_; ++oc) {
                const int64_t out_channel = g * group_out_ + oc;
                const float* wrow = weight + out_channel * patch_size;
                y.data()[((n * out_channels_ + out_channel) * out_h + oy) *
                             out_w +
                         ox] =
                    ScheduledDot(wrow, patch.data(), patch_size, &scheduler);
              }
            }
          }
        }
      });
  return y;
}

Result<std::vector<Tensor>> Conv2d::Backward(const Tensor& grad_output,
                                             ExecutionContext* ctx) {
  if (!has_forward_) {
    return Status::InvalidArgument("conv2d " + name_ +
                                   ": Backward called before Forward");
  }
  const Tensor& x = cached_input_;
  const int64_t batch = x.shape().dim(0);
  const int64_t height = x.shape().dim(2);
  const int64_t width = x.shape().dim(3);
  const int64_t out_h = cached_out_h_;
  const int64_t out_w = cached_out_w_;
  MMLIB_RETURN_IF_ERROR(check::ValidateShapesMatch(
      grad_output.shape(), Shape{batch, out_channels_, out_h, out_w},
      "conv2d " + name_ + " grad_output"));
  const float* weight = params_[0].value.data();
  float* grad_weight = params_[0].grad.data();
  Tensor grad_input(x.shape());
  std::vector<Tensor> grads;

  if (ctx->deterministic()) {
    PlanFor(batch, height, width)
        .Backward(x.data(), weight, grad_output.data(), grad_input.data(),
                  grad_weight, ctx->pool());
    grads.push_back(std::move(grad_input));
    return grads;
  }
  // Weight gradients accumulate across every output position — on parallel
  // devices this is the classic source of convolution-backward
  // nondeterminism (atomic reduction order). Here every chunk accumulates
  // into its own scratch buffer and the buffers are reduced in chunk order
  // below; the input-gradient dot products take scheduler-chosen splits.
  const int64_t patch_size = group_in_ * kernel_size_ * kernel_size_;
  const size_t gw_numel = static_cast<size_t>(params_[0].grad.numel());

  // Weight transposed within each group: [patch_size][group_out]. Shared
  // read-only by all chunks.
  std::vector<float> weight_t(static_cast<size_t>(groups_) * patch_size *
                              group_out_);
  for (int64_t g = 0; g < groups_; ++g) {
    for (int64_t oc = 0; oc < group_out_; ++oc) {
      const float* wrow = weight + (g * group_out_ + oc) * patch_size;
      for (int64_t j = 0; j < patch_size; ++j) {
        weight_t[(g * patch_size + j) * group_out_ + oc] = wrow[j];
      }
    }
  }

  const int64_t grain = util::GrainForMaxChunks(batch, kMaxBackwardChunks);
  const size_t num_chunks =
      static_cast<size_t>(util::NumChunks(batch, grain));
  std::vector<float> weight_grad_scratch(num_chunks * gw_numel, 0.0f);
  const uint64_t epoch = ctx->NextParallelEpoch();
  util::ParallelFor(
      ctx->pool(), batch, grain,
      [&](int64_t n_begin, int64_t n_end, size_t chunk_index) {
        std::vector<float> patch(patch_size);
        std::vector<float> grad_patch(patch_size);
        std::vector<float> gout_vec(group_out_);
        float* gw_chunk = weight_grad_scratch.data() + chunk_index * gw_numel;
        Rng scheduler(ctx->ChunkSchedulerSeed(epoch, chunk_index));
        for (int64_t n = n_begin; n < n_end; ++n) {
          for (int64_t g = 0; g < groups_; ++g) {
            for (int64_t oy = 0; oy < out_h; ++oy) {
              for (int64_t ox = 0; ox < out_w; ++ox) {
                GatherPatch(x.data(), height, width, n, g, oy, ox,
                            patch.data());
                for (int64_t oc = 0; oc < group_out_; ++oc) {
                  const int64_t out_channel = g * group_out_ + oc;
                  gout_vec[oc] =
                      grad_output.data()[((n * out_channels_ + out_channel) *
                                              out_h +
                                          oy) *
                                             out_w +
                                         ox];
                }
                // Parameter gradients: grad_W[oc] += gout[oc] * patch,
                // accumulated into this chunk's private scratch.
                for (int64_t oc = 0; oc < group_out_; ++oc) {
                  const float gv = gout_vec[oc];
                  if (gv == 0.0f) {
                    continue;
                  }
                  const int64_t row_offset =
                      (g * group_out_ + oc) * patch_size;
                  float* gwrow = gw_chunk + row_offset;
                  for (int64_t j = 0; j < patch_size; ++j) {
                    gwrow[j] += gv * patch[j];
                  }
                }
                // Input gradients: grad_patch[j] = W^T[j] . gout.
                for (int64_t j = 0; j < patch_size; ++j) {
                  grad_patch[j] = ScheduledDot(
                      weight_t.data() + (g * patch_size + j) * group_out_,
                      gout_vec.data(), group_out_, &scheduler);
                }
                // Scatter grad_patch back to grad_input; sample n belongs
                // to exactly one chunk, so these writes are disjoint.
                const int64_t base_y = oy * stride_ - padding_;
                const int64_t base_x = ox * stride_ - padding_;
                int64_t idx = 0;
                for (int64_t c = 0; c < group_in_; ++c) {
                  const int64_t channel = g * group_in_ + c;
                  float* plane =
                      grad_input.data() +
                      ((n * in_channels_ + channel) * height) * width;
                  for (int64_t ky = 0; ky < kernel_size_; ++ky) {
                    const int64_t yy = base_y + ky;
                    for (int64_t kx = 0; kx < kernel_size_; ++kx) {
                      const int64_t xx = base_x + kx;
                      if (yy >= 0 && yy < height && xx >= 0 && xx < width) {
                        plane[yy * width + xx] += grad_patch[idx];
                      }
                      ++idx;
                    }
                  }
                }
              }
            }
          }
        }
      });

  for (size_t c = 0; c < num_chunks; ++c) {
    const float* gw_chunk = weight_grad_scratch.data() + c * gw_numel;
    for (size_t j = 0; j < gw_numel; ++j) {
      grad_weight[j] += gw_chunk[j];
    }
  }
  grads.push_back(std::move(grad_input));
  return grads;
}

}  // namespace mmlib::nn

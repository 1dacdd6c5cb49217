#pragma once

#include <cstdint>

#include "kernels/direct_conv.h"
#include "kernels/im2col.h"
#include "util/scratch_pool.h"
#include "util/thread_pool.h"

namespace mmlib::kernels {

/// Strategy chosen for a convolution shape.
enum class ConvAlgo {
  /// Direct convolution in vector lanes (kernels/direct_conv.h):
  /// depthwise and tiny shapes where packing overhead exceeds the GEMM win.
  kDirect,
  /// im2col gather into packed panels + cache-blocked GEMM.
  kIm2ColGemm,
  /// 1x1/stride-1/pad-0: the input plane already is the im2col matrix, so
  /// the gather degenerates to contiguous panel packing.
  kPointwiseGemm,
};

/// An executable plan for one Conv2d shape: algorithm choice, tile sizes,
/// loop orders, and precomputed scratch footprints. Plans are immutable
/// after construction (safe to share across threads); the embedded scratch
/// pool is internally synchronized. Chunk counts are constants of the plan
/// — never the thread count — so the weight-gradient reduction order is a
/// pure function of shape (DESIGN.md "Kernel plan layer").
class ConvPlan {
 public:
  explicit ConvPlan(const ConvGeom& geom);

  const ConvGeom& geom() const { return geom_; }
  ConvAlgo algo() const { return algo_; }
  /// Output-pixel tile width (the GEMM's NC); a multiple of kGemmNR.
  int64_t nc() const { return nc_; }
  /// Reduction block (the GEMM's KC).
  int64_t kc() const { return kc_; }
  /// Backward chunk count, over (sample, group) tasks for the GEMM
  /// algorithms and over samples for kDirect; sizes the weight-gradient
  /// scratch and fixes the reduction order.
  int64_t backward_chunks() const { return backward_chunks_; }

  util::ScratchPool* scratch() const { return &scratch_; }

  /// y(batch, out_channels, out_h, out_w) = conv(x, w). Overwrites y.
  void Forward(const float* input, const float* weight, float* output,
               util::ThreadPool* pool) const;

  /// grad_input += col2im(W^T . gout) (expects grad_input zero-filled) and
  /// grad_weight += gout . col^T, both in fixed order.
  void Backward(const float* input, const float* weight,
                const float* grad_output, float* grad_input,
                float* grad_weight, util::ThreadPool* pool) const;

 private:
  ConvGeom geom_;
  ConvAlgo algo_ = ConvAlgo::kDirect;
  int64_t nc_ = 0;
  int64_t kc_ = 0;
  int64_t forward_col_tiles_ = 0;
  int64_t backward_chunks_ = 0;
  bool forward_rows_outer_ = false;
  bool data_grad_rows_outer_ = false;
  bool weight_grad_rows_outer_ = false;
  DirectTiling direct_;  // kDirect only
  mutable util::ScratchPool scratch_;
};

}  // namespace mmlib::kernels

#pragma once

#include <cstdint>

#include "kernels/im2col.h"
#include "util/scratch_pool.h"
#include "util/thread_pool.h"

namespace mmlib::kernels {

/// Direct convolution kernels behind ConvAlgo::kDirect. Every output is a
/// Kahan-compensated sum over (channel, ky, kx), zero-padded taps included
/// (a plain serial sum for 1x1/pad-0); the weight gradient accumulates over
/// (sample, pixel) in fixed sample chunks, skipping zero output gradients,
/// and the chunks are reduced in chunk order; every input-gradient element
/// receives its adds in raster order of the outputs that read it. Outputs
/// sit in the lanes of GCC/Clang generic vectors, each lane running exactly
/// the scalar operation sequence, so results are bit-identical at every
/// pool size and on every instruction set.
///
/// Depthwise shapes put channels in lanes over a zero-padded,
/// channel-interleaved copy of each input plane, so every tap is one vector
/// load. Other shapes put output pixels in lanes over gathered tap rows and
/// output channels in lanes for the weight gradient.
struct DirectTiling {
  /// Output rows per tile (pixel-lane kernel).
  int64_t rows = 1;
  /// Whole images per tile when one image fits a tile.
  int64_t samples = 1;
  /// Weight-gradient chunks over samples; fixes the reduction order.
  int64_t backward_chunks = 1;
};

DirectTiling PlanDirectTiling(const ConvGeom& geom);

/// y = conv(x, w); overwrites y.
void DirectConvForward(const ConvGeom& geom, const DirectTiling& tiling,
                       const float* input, const float* weight, float* output,
                       util::ThreadPool* pool, util::ScratchPool* scratch);

/// grad_input += dconv/dx (expects grad_input zero-filled) and grad_weight
/// += dconv/dw.
void DirectConvBackward(const ConvGeom& geom, const DirectTiling& tiling,
                        const float* input, const float* weight,
                        const float* grad_output, float* grad_input,
                        float* grad_weight, util::ThreadPool* pool,
                        util::ScratchPool* scratch);

}  // namespace mmlib::kernels

#include "kernels/conv_plan.h"

#include <algorithm>

#include "kernels/gemm.h"

namespace mmlib::kernels {

namespace {

/// Below this many multiply-adds per (sample, group) GEMM, packing costs
/// more than it saves; the plan takes the direct kernels.
constexpr int64_t kMinGemmWork = 16384;

/// Forward chunk cap, matching the layer's historical constant: enough
/// slack for 16-way pools, small enough that per-chunk packing stays
/// amortized. A constant so chunk boundaries never depend on the pool.
constexpr int64_t kMaxForwardChunks = 64;

/// Backward chunk cap: every chunk carries a full weight-gradient scratch
/// buffer, so this also bounds scratch memory.
constexpr int64_t kMaxBackwardChunks = 8;

}  // namespace

ConvPlan::ConvPlan(const ConvGeom& geom) : geom_(geom) {
  const int64_t m = geom.group_out();
  const int64_t k = geom.patch_size();
  const int64_t n = geom.out_pixels();

  const bool depthwise = geom.group_in() == 1 && geom.group_out() == 1;
  if (depthwise || m * k * n < kMinGemmWork) {
    algo_ = ConvAlgo::kDirect;
    direct_ = PlanDirectTiling(geom);
    backward_chunks_ = direct_.backward_chunks;
    return;
  }
  algo_ = geom.is_pointwise() ? ConvAlgo::kPointwiseGemm
                              : ConvAlgo::kIm2ColGemm;

  // NC: bound the packed im2col tile (K x NC floats) to ~L2 while keeping
  // whole panels; KC: L1-resident B panel slices.
  constexpr int64_t kMaxTileFloats = 64 * 1024;  // 256 KiB
  int64_t nc = std::min<int64_t>(256, kMaxTileFloats / std::max<int64_t>(k, 1));
  nc = std::max<int64_t>(nc - nc % kGemmNR, kGemmNR);
  nc_ = std::min(nc, CeilDiv(n, kGemmNR) * kGemmNR);
  kc_ = std::min<int64_t>(kGemmKC, k);
  forward_col_tiles_ = CeilDiv(n, nc_);
  backward_chunks_ =
      util::NumChunks(geom.batch * geom.groups,
                      util::GrainForMaxChunks(geom.batch * geom.groups,
                                              kMaxBackwardChunks));

  // Loop orders: keep the smaller operand cache-resident (see GemmPacked).
  forward_rows_outer_ = m > nc_;           // A = weights (m x k)
  data_grad_rows_outer_ = k > nc_;         // A = W^T (k x m)
  weight_grad_rows_outer_ = m > k;         // A = gout tile (m x nc)
}

void ConvPlan::Forward(const float* input, const float* weight, float* output,
                       util::ThreadPool* pool) const {
  if (algo_ == ConvAlgo::kDirect) {
    DirectConvForward(geom_, direct_, input, weight, output, pool, &scratch_);
    return;
  }
  const int64_t m = geom_.group_out();
  const int64_t k = geom_.patch_size();
  const int64_t n = geom_.out_pixels();
  const int64_t tiles = forward_col_tiles_;
  const int64_t tasks = geom_.batch * geom_.groups * tiles;

  // Weights packed once per call, shared read-only by every chunk.
  const int64_t strip_floats = PackedStripFloats(m, k);
  util::ScratchPool::Lease a_lease =
      scratch_.Acquire(static_cast<size_t>(geom_.groups * strip_floats));
  for (int64_t g = 0; g < geom_.groups; ++g) {
    PackStrips(weight + g * m * k, m, k, 0, k,
               a_lease.data() + g * strip_floats);
  }
  const float* a_pack = a_lease.data();

  const int64_t panel_floats = PackedPanelFloats(k, nc_);
  const int64_t grain = util::GrainForMaxChunks(tasks, kMaxForwardChunks);
  util::ParallelFor(
      pool, tasks, grain,
      [&](int64_t begin, int64_t end, size_t /*chunk_index*/) {
        util::ScratchPool::Lease b_lease =
            scratch_.Acquire(static_cast<size_t>(panel_floats));
        for (int64_t t = begin; t < end; ++t) {
          const int64_t n_idx = t / (geom_.groups * tiles);
          const int64_t rem = t % (geom_.groups * tiles);
          const int64_t g = rem / tiles;
          const int64_t tile = rem % tiles;
          const int64_t col_begin = tile * nc_;
          const int64_t ncols = std::min(nc_, n - col_begin);
          Im2ColPanels(geom_, input, n_idx, g, col_begin, ncols,
                       b_lease.data());
          float* c = output + (n_idx * geom_.out_channels + g * m) * n +
                     col_begin;
          GemmPacked(a_pack + g * strip_floats, b_lease.data(), m, ncols, k,
                     kc_, c, n, /*accumulate=*/false, forward_rows_outer_,
                     /*bias=*/nullptr);
        }
      });
}

void ConvPlan::Backward(const float* input, const float* weight,
                        const float* grad_output, float* grad_input,
                        float* grad_weight, util::ThreadPool* pool) const {
  if (algo_ == ConvAlgo::kDirect) {
    DirectConvBackward(geom_, direct_, input, weight, grad_output, grad_input,
                       grad_weight, pool, &scratch_);
    return;
  }
  const int64_t m = geom_.group_out();
  const int64_t k = geom_.patch_size();
  const int64_t n = geom_.out_pixels();
  const int64_t gw_numel = geom_.out_channels * k;
  const int64_t tasks = geom_.batch * geom_.groups;

  // W^T packed once per call (strips over patch rows, k dimension = m).
  const int64_t wt_strip_floats = PackedStripFloats(k, m);
  util::ScratchPool::Lease wt_lease =
      scratch_.Acquire(static_cast<size_t>(geom_.groups * wt_strip_floats));
  for (int64_t g = 0; g < geom_.groups; ++g) {
    PackStripsTransposed(weight + g * m * k, m, k, k,
                         wt_lease.data() + g * wt_strip_floats);
  }
  const float* wt_pack = wt_lease.data();

  // Per-chunk weight-gradient scratch, reduced in chunk order below. The
  // chunk count is a constant of the plan, so the reduction order is a
  // pure function of shape.
  const int64_t grain = util::GrainForMaxChunks(tasks, kMaxBackwardChunks);
  const int64_t num_chunks = util::NumChunks(tasks, grain);
  util::ScratchPool::Lease gw_lease =
      scratch_.Acquire(static_cast<size_t>(num_chunks * gw_numel));
  float* gw_scratch = gw_lease.data();
  std::fill(gw_scratch, gw_scratch + num_chunks * gw_numel, 0.0f);

  // Per-chunk tile scratch: gout panels + gout strips + colgrad tile +
  // patch panels, carved out of one lease.
  const int64_t gout_panel_floats = PackedPanelFloats(m, nc_);
  const int64_t gout_strip_floats = PackedStripFloats(m, nc_);
  const int64_t colgrad_floats = k * nc_;
  const int64_t patch_panel_floats = PackedPanelFloats(nc_, k);
  const int64_t chunk_floats = gout_panel_floats + gout_strip_floats +
                               colgrad_floats + patch_panel_floats;
  const int64_t kc_m = std::min<int64_t>(kGemmKC, m);

  util::ParallelFor(
      pool, tasks, grain,
      [&](int64_t begin, int64_t end, size_t chunk_index) {
        util::ScratchPool::Lease lease =
            scratch_.Acquire(static_cast<size_t>(chunk_floats));
        float* gout_panels = lease.data();
        float* gout_strips = gout_panels + gout_panel_floats;
        float* colgrad = gout_strips + gout_strip_floats;
        float* patch_panels = colgrad + colgrad_floats;
        float* gw_chunk =
            gw_scratch + static_cast<int64_t>(chunk_index) * gw_numel;
        for (int64_t t = begin; t < end; ++t) {
          const int64_t n_idx = t / geom_.groups;
          const int64_t g = t % geom_.groups;
          const float* gout_base =
              grad_output + (n_idx * geom_.out_channels + g * m) * n;
          for (int64_t col_begin = 0; col_begin < n; col_begin += nc_) {
            const int64_t ncols = std::min(nc_, n - col_begin);
            // Data gradient: colgrad = W^T . gout, then scatter. Pixel
            // tiles run in order, so the scatter's add order per
            // grad_input element is pixel-major exactly as in the direct
            // loop.
            PackPanels(gout_base, m, n, col_begin, ncols, gout_panels);
            GemmPacked(wt_pack + g * wt_strip_floats, gout_panels, k, ncols,
                       m, kc_m, colgrad, ncols, /*accumulate=*/false,
                       data_grad_rows_outer_, /*bias=*/nullptr);
            Col2ImScatter(geom_, colgrad, n_idx, g, col_begin, ncols,
                          grad_input);
            // Weight gradient: gw_chunk += gout_tile . col_tile^T. The
            // GEMM reduction dimension is the pixel tile, accumulated in
            // pixel order; tiles and samples accumulate in ascending
            // order, preserving the (sample, pixel) reduction order of
            // the reference kernel.
            PackStrips(gout_base, m, n, col_begin, ncols, gout_strips);
            Im2ColPatchPanels(geom_, input, n_idx, g, col_begin, ncols,
                              patch_panels);
            GemmPacked(gout_strips, patch_panels, m, k, ncols,
                       std::min<int64_t>(kGemmKC, ncols),
                       gw_chunk + g * m * k, k, /*accumulate=*/true,
                       weight_grad_rows_outer_, /*bias=*/nullptr);
          }
        }
      });

  // Fixed-order reduction of the per-chunk weight gradients.
  for (int64_t c = 0; c < num_chunks; ++c) {
    const float* gw_chunk = gw_scratch + c * gw_numel;
    for (int64_t j = 0; j < gw_numel; ++j) {
      grad_weight[j] += gw_chunk[j];
    }
  }
}

}  // namespace mmlib::kernels

#include "kernels/direct_conv.h"

#include <algorithm>
#include <cstring>

#include "kernels/gemm.h"

namespace mmlib::kernels {

namespace {

/// Forward and input-gradient task chunk cap, as in the layer's direct
/// loop. Their results do not depend on the chunking.
constexpr int64_t kMaxTaskChunks = 64;

/// Weight-gradient chunk cap over samples. A constant, never the thread
/// count: the chunk boundaries fix the reduction order.
constexpr int64_t kMaxBackwardChunks = 8;

// Generic vectors: one SSE register on baseline x86-64. Vector arithmetic
// is element-wise IEEE and the library is built with -ffp-contract=off, so
// each lane computes exactly what the scalar expression would.
constexpr int64_t kVec = 4;
typedef float Vf __attribute__((vector_size(kVec * sizeof(float))));
typedef int32_t Vi __attribute__((vector_size(kVec * sizeof(int32_t))));

/// Vectors per register block of LaneDots: independent Kahan chains that
/// hide each other's add latency.
constexpr int64_t kBlockVecs = 4;
constexpr int64_t kBlock = kVec * kBlockVecs;

/// Gathered floats per tile (taps x columns) of the pixel-lane kernel.
constexpr int64_t kTileFloats = 8 * 1024;

inline void LoadV(Vf* v, const float* p) { std::memcpy(v, p, sizeof(Vf)); }
inline void StoreV(float* p, const Vf& v) { std::memcpy(p, &v, sizeof(Vf)); }

inline int64_t RoundUp(int64_t a, int64_t b) { return CeilDiv(a, b) * b; }

/// *dst = a in the lanes where `keep` is set; other lanes keep *dst.
inline void Blend(const Vi& keep, const Vf& a, Vf* dst) {
  *dst = (Vf)(((Vi)a & keep) | ((Vi)*dst & ~keep));
}

/// sum += prod: a Kahan step, or a plain add when kSerial.
template <bool kSerial>
inline void Accumulate(const Vf& prod, Vf* sum, Vf* comp) {
  if (kSerial) {
    *sum = *sum + prod;
    return;
  }
  const Vf y = prod - *comp;
  const Vf t = *sum + y;
  *comp = (t - *sum) - y;
  *sum = t;
}

/// Accumulate in the lanes where `keep` is set only: a zero output
/// gradient adds nothing to the weight gradient, as in the scalar loop.
template <bool kSerial>
inline void MaskedAccumulate(const Vi& keep, const Vf& prod, Vf* sum,
                             Vf* comp) {
  if (kSerial) {
    Blend(keep, *sum + prod, sum);
    return;
  }
  const Vf y = prod - *comp;
  const Vf t = *sum + y;
  Blend(keep, (t - *sum) - y, comp);
  Blend(keep, t, sum);
}

/// 1x1/pad-0 convolutions sum plainly; all others compensate.
bool SerialSums(const ConvGeom& geom) {
  return geom.kernel == 1 && geom.padding == 0;
}

bool IsDepthwise(const ConvGeom& geom) {
  return geom.group_in() == 1 && geom.group_out() == 1;
}

/// Adds the per-chunk weight gradients to grad_weight in chunk order.
/// Chunk c's running sums start at states + c * 2 * state_floats;
/// index(oc, j) locates weight (oc, j) in them.
template <typename Index>
void ReduceChunks(const ConvGeom& geom, int64_t chunks, const float* states,
                  int64_t state_floats, const Index& index,
                  float* grad_weight) {
  const int64_t k = geom.patch_size();
  for (int64_t c = 0; c < chunks; ++c) {
    const float* sums = states + c * 2 * state_floats;
    for (int64_t oc = 0; oc < geom.out_channels; ++oc) {
      for (int64_t j = 0; j < k; ++j) {
        grad_weight[oc * k + j] += sums[index(oc, j)];
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Depthwise: kVec channels in lanes. Each block of channels is copied into
// a zero-padded, channel-interleaved plane xi, so the tap (ky, kx) of
// output (oy, ox) is the vector at padded position (oy*s + ky, ox*s + kx).

/// xi[((iy + pad) * pw + ix + pad) * kVec + lane] = x(n, c0 + lane, iy, ix);
/// zero borders and zero lanes past the last channel.
void InterleavePadded(const ConvGeom& geom, const float* input, int64_t n,
                      int64_t c0, float* xi) {
  const int64_t pw = geom.width + 2 * geom.padding;
  const int64_t ph = geom.height + 2 * geom.padding;
  std::fill(xi, xi + ph * pw * kVec, 0.0f);
  const int64_t live = std::min(kVec, geom.in_channels - c0);
  for (int64_t lane = 0; lane < live; ++lane) {
    const float* plane =
        input + (n * geom.in_channels + c0 + lane) * geom.height * geom.width;
    for (int64_t iy = 0; iy < geom.height; ++iy) {
      float* dst =
          xi + ((iy + geom.padding) * pw + geom.padding) * kVec + lane;
      const float* src = plane + iy * geom.width;
      for (int64_t ix = 0; ix < geom.width; ++ix) {
        dst[ix * kVec] = src[ix];
      }
    }
  }
}

/// Lane-interleaved copy of kVec per-channel rows of `len` floats, rows
/// `stride` apart: dst[i * kVec + lane] = src[lane * stride + i], zero past
/// `live` lanes.
void InterleaveRows(const float* src, int64_t stride, int64_t len,
                    int64_t live, float* dst) {
  for (int64_t lane = 0; lane < kVec; ++lane) {
    for (int64_t i = 0; i < len; ++i) {
      dst[i * kVec + lane] = lane < live ? src[lane * stride + i] : 0.0f;
    }
  }
}

/// Outputs of kU consecutive pixels (oy, ox..ox+kU) of one channel block:
/// a sum over the taps in (ky, kx) order. lanes[u * kVec + lane].
template <bool kSerial, int kU>
inline void DepthwisePixels(const ConvGeom& geom, const float* xi, int64_t pw,
                            const float* wt, int64_t oy, int64_t ox,
                            float* lanes) {
  const int64_t s = geom.stride;
  Vf sum[kU] = {};
  Vf comp[kU] = {};
  for (int64_t ky = 0; ky < geom.kernel; ++ky) {
    const float* row = xi + ((oy * s + ky) * pw + ox * s) * kVec;
    for (int64_t kx = 0; kx < geom.kernel; ++kx) {
      Vf w;
      LoadV(&w, wt + (ky * geom.kernel + kx) * kVec);
      for (int u = 0; u < kU; ++u) {
        Vf x;
        LoadV(&x, row + (u * s + kx) * kVec);
        Accumulate<kSerial>(w * x, &sum[u], &comp[u]);
      }
    }
  }
  for (int u = 0; u < kU; ++u) {
    StoreV(lanes + u * kVec, sum[u]);
  }
}

template <bool kSerial>
void DepthwiseForwardBlock(const ConvGeom& geom, const float* xi,
                           const float* wt, int64_t live, float* out) {
  constexpr int kU = 4;
  const int64_t pw = geom.width + 2 * geom.padding;
  const int64_t plane = geom.out_pixels();
  float lanes[kU * kVec];
  auto store = [&](int64_t pix, int64_t count) {
    for (int64_t u = 0; u < count; ++u) {
      for (int64_t lane = 0; lane < live; ++lane) {
        out[lane * plane + pix + u] = lanes[u * kVec + lane];
      }
    }
  };
  for (int64_t oy = 0; oy < geom.out_h; ++oy) {
    int64_t ox = 0;
    for (; ox + kU <= geom.out_w; ox += kU) {
      DepthwisePixels<kSerial, kU>(geom, xi, pw, wt, oy, ox, lanes);
      store(oy * geom.out_w + ox, kU);
    }
    for (; ox < geom.out_w; ++ox) {
      DepthwisePixels<kSerial, 1>(geom, xi, pw, wt, oy, ox, lanes);
      store(oy * geom.out_w + ox, 1);
    }
  }
}

/// Input gradient of one channel block into the padded plane gi: each
/// tap's value is the one-term dot product over the group's single output
/// channel, added in raster order of the outputs.
template <bool kSerial>
void DepthwiseDataGrad(const ConvGeom& geom, const float* gout,
                       const float* wt, float* gi) {
  const int64_t pw = geom.width + 2 * geom.padding;
  const int64_t s = geom.stride;
  for (int64_t oy = 0; oy < geom.out_h; ++oy) {
    for (int64_t ox = 0; ox < geom.out_w; ++ox) {
      Vf g;
      LoadV(&g, gout + (oy * geom.out_w + ox) * kVec);
      for (int64_t ky = 0; ky < geom.kernel; ++ky) {
        float* row = gi + ((oy * s + ky) * pw + ox * s) * kVec;
        for (int64_t kx = 0; kx < geom.kernel; ++kx) {
          Vf w;
          LoadV(&w, wt + (ky * geom.kernel + kx) * kVec);
          Vf tap = {};
          Vf comp = {};
          Accumulate<kSerial>(w * g, &tap, &comp);
          Vf acc;
          LoadV(&acc, row + kx * kVec);
          StoreV(row + kx * kVec, acc + tap);
        }
      }
    }
  }
}

/// Weight gradient of taps (ky, kx0 .. kx0 + kJ) of one channel block over
/// one sample's pixels in raster order. `state` holds the running sums per
/// tap, `comp_offset` floats before their compensations.
template <bool kSerial, int kJ>
void DepthwiseWeightGradTaps(const ConvGeom& geom, const float* xi,
                             const float* gout, int64_t ky, int64_t kx0,
                             float* state, int64_t comp_offset) {
  const int64_t pw = geom.width + 2 * geom.padding;
  const int64_t s = geom.stride;
  float* sums = state + (ky * geom.kernel + kx0) * kVec;
  Vf sum[kJ];
  Vf comp[kJ];
  for (int jj = 0; jj < kJ; ++jj) {
    LoadV(&sum[jj], sums + jj * kVec);
    LoadV(&comp[jj], sums + comp_offset + jj * kVec);
  }
  for (int64_t oy = 0; oy < geom.out_h; ++oy) {
    const float* row = xi + ((oy * s + ky) * pw + kx0) * kVec;
    for (int64_t ox = 0; ox < geom.out_w; ++ox) {
      Vf g;
      LoadV(&g, gout + (oy * geom.out_w + ox) * kVec);
      const Vi keep = g != Vf{};
      for (int jj = 0; jj < kJ; ++jj) {
        Vf x;
        LoadV(&x, row + (ox * s + jj) * kVec);
        MaskedAccumulate<kSerial>(keep, g * x, &sum[jj], &comp[jj]);
      }
    }
  }
  for (int jj = 0; jj < kJ; ++jj) {
    StoreV(sums + jj * kVec, sum[jj]);
    StoreV(sums + comp_offset + jj * kVec, comp[jj]);
  }
}

template <bool kSerial>
void DepthwiseWeightGrad(const ConvGeom& geom, const float* xi,
                         const float* gout, float* state,
                         int64_t comp_offset) {
  for (int64_t ky = 0; ky < geom.kernel; ++ky) {
    int64_t kx = 0;
    for (; kx + 3 <= geom.kernel; kx += 3) {
      DepthwiseWeightGradTaps<kSerial, 3>(geom, xi, gout, ky, kx, state,
                                          comp_offset);
    }
    for (; kx < geom.kernel; ++kx) {
      DepthwiseWeightGradTaps<kSerial, 1>(geom, xi, gout, ky, kx, state,
                                          comp_offset);
    }
  }
}

void DepthwiseForward(const ConvGeom& geom, const float* input,
                      const float* weight, float* output,
                      util::ThreadPool* pool, util::ScratchPool* scratch) {
  const int64_t taps = geom.patch_size();
  const int64_t padded = (geom.height + 2 * geom.padding) *
                         (geom.width + 2 * geom.padding) * kVec;
  const int64_t blocks = CeilDiv(geom.out_channels, kVec);
  const int64_t tasks = geom.batch * blocks;
  const bool serial = SerialSums(geom);
  util::ParallelFor(
      pool, tasks, util::GrainForMaxChunks(tasks, kMaxTaskChunks),
      [&](int64_t begin, int64_t end, size_t /*chunk_index*/) {
        util::ScratchPool::Lease lease =
            scratch->Acquire(static_cast<size_t>(padded + taps * kVec));
        float* xi = lease.data();
        float* wt = xi + padded;
        for (int64_t t = begin; t < end; ++t) {
          const int64_t n = t / blocks;
          const int64_t c0 = (t % blocks) * kVec;
          const int64_t live = std::min(kVec, geom.out_channels - c0);
          InterleaveRows(weight + c0 * taps, taps, taps, live, wt);
          InterleavePadded(geom, input, n, c0, xi);
          float* out =
              output + (n * geom.out_channels + c0) * geom.out_pixels();
          if (serial) {
            DepthwiseForwardBlock<true>(geom, xi, wt, live, out);
          } else {
            DepthwiseForwardBlock<false>(geom, xi, wt, live, out);
          }
        }
      });
}

void DepthwiseBackward(const ConvGeom& geom, const DirectTiling& tiling,
                       const float* input, const float* weight,
                       const float* grad_output, float* grad_input,
                       float* grad_weight, util::ThreadPool* pool,
                       util::ScratchPool* scratch) {
  const int64_t taps = geom.patch_size();
  const int64_t pw = geom.width + 2 * geom.padding;
  const int64_t padded = (geom.height + 2 * geom.padding) * pw * kVec;
  const int64_t pixels = geom.out_pixels();
  const int64_t in_plane = geom.height * geom.width;
  const int64_t blocks = CeilDiv(geom.out_channels, kVec);
  const bool serial = SerialSums(geom);
  // Per chunk: [block][tap][lane] running sums, then compensations.
  const int64_t state_floats = blocks * taps * kVec;
  util::ScratchPool::Lease state_lease = scratch->Acquire(
      static_cast<size_t>(tiling.backward_chunks * 2 * state_floats));
  float* states = state_lease.data();
  std::fill(states, states + tiling.backward_chunks * 2 * state_floats, 0.0f);
  util::ParallelFor(
      pool, geom.batch,
      util::GrainForMaxChunks(geom.batch, kMaxBackwardChunks),
      [&](int64_t n_begin, int64_t n_end, size_t chunk_index) {
        util::ScratchPool::Lease lease = scratch->Acquire(
            static_cast<size_t>(2 * padded + (pixels + taps) * kVec));
        float* xi = lease.data();
        float* gi = xi + padded;
        float* gout = gi + padded;
        float* wt = gout + pixels * kVec;
        float* state =
            states + static_cast<int64_t>(chunk_index) * 2 * state_floats;
        for (int64_t n = n_begin; n < n_end; ++n) {
          for (int64_t b = 0; b < blocks; ++b) {
            const int64_t c0 = b * kVec;
            const int64_t live = std::min(kVec, geom.out_channels - c0);
            InterleaveRows(weight + c0 * taps, taps, taps, live, wt);
            InterleavePadded(geom, input, n, c0, xi);
            InterleaveRows(
                grad_output + (n * geom.out_channels + c0) * pixels, pixels,
                pixels, live, gout);
            std::fill(gi, gi + padded, 0.0f);
            float* block_state = state + b * taps * kVec;
            if (serial) {
              DepthwiseDataGrad<true>(geom, gout, wt, gi);
              DepthwiseWeightGrad<true>(geom, xi, gout, block_state,
                                        state_floats);
            } else {
              DepthwiseDataGrad<false>(geom, gout, wt, gi);
              DepthwiseWeightGrad<false>(geom, xi, gout, block_state,
                                         state_floats);
            }
            // gi started at +0, so its sums are never -0 and adding them
            // to the zero-filled grad_input leaves them bit-exact.
            for (int64_t lane = 0; lane < live; ++lane) {
              float* plane =
                  grad_input + (n * geom.in_channels + c0 + lane) * in_plane;
              for (int64_t iy = 0; iy < geom.height; ++iy) {
                const float* src =
                    gi + ((iy + geom.padding) * pw + geom.padding) * kVec +
                    lane;
                for (int64_t ix = 0; ix < geom.width; ++ix) {
                  plane[iy * geom.width + ix] += src[ix * kVec];
                }
              }
            }
          }
        }
      });
  ReduceChunks(
      geom, tiling.backward_chunks, states, state_floats,
      [&](int64_t oc, int64_t j) {
        return ((oc / kVec) * taps + j) * kVec + oc % kVec;
      },
      grad_weight);
}

// ---------------------------------------------------------------------------
// Other shapes: output pixels in lanes. A tile holds output rows [oy0, oy1)
// of samples [n0, n1), sample-major; multi-sample tiles hold whole images.

struct Tile {
  int64_t n0, n1, oy0, oy1;
  int64_t seg;   // columns per sample
  int64_t cols;  // all columns
  int64_t ld;    // cols rounded up to kBlock
};

Tile MakeTile(const ConvGeom& geom, int64_t n0, int64_t n1, int64_t oy0,
              int64_t oy1) {
  const int64_t seg = (oy1 - oy0) * geom.out_w;
  return Tile{n0, n1, oy0, oy1, seg, (n1 - n0) * seg,
              RoundUp((n1 - n0) * seg, kBlock)};
}

/// Output columns [*lo, *hi) whose tap column kx lies inside the input.
void ValidColumns(const ConvGeom& geom, int64_t kx, int64_t* lo,
                  int64_t* hi) {
  const int64_t first = geom.padding - kx;  // need ox * stride >= first
  const int64_t last = geom.width - 1 + geom.padding - kx;  // and <= last
  *lo = first <= 0 ? 0 : std::min(CeilDiv(first, geom.stride), geom.out_w);
  *hi = last < 0 ? 0 : std::min(last / geom.stride + 1, geom.out_w);
  *hi = std::max(*hi, *lo);
}

/// Gathers the taps of group g over a tile: col[j * ld + column] is the
/// input under tap j = (c, ky, kx), zero for padded taps and for the
/// columns [cols, ld).
void GatherTaps(const ConvGeom& geom, const float* input, int64_t g,
                const Tile& tile, float* col) {
  const int64_t ow = geom.out_w;
  int64_t j = 0;
  for (int64_t c = 0; c < geom.group_in(); ++c) {
    for (int64_t ky = 0; ky < geom.kernel; ++ky) {
      for (int64_t kx = 0; kx < geom.kernel; ++kx, ++j) {
        float* row = col + j * tile.ld;
        int64_t lo = 0;
        int64_t hi = 0;
        ValidColumns(geom, kx, &lo, &hi);
        for (int64_t n = tile.n0; n < tile.n1; ++n) {
          const float* plane =
              input + (n * geom.in_channels + g * geom.group_in() + c) *
                          geom.height * geom.width;
          for (int64_t oy = tile.oy0; oy < tile.oy1; ++oy) {
            float* out =
                row + (n - tile.n0) * tile.seg + (oy - tile.oy0) * ow;
            const int64_t iy = oy * geom.stride - geom.padding + ky;
            const bool inside = iy >= 0 && iy < geom.height;
            const float* in = plane + (inside ? iy : 0) * geom.width;
            int64_t ox = 0;
            for (; ox < (inside ? lo : ow); ++ox) {
              out[ox] = 0.0f;
            }
            for (; ox < hi; ++ox) {
              out[ox] = in[ox * geom.stride - geom.padding + kx];
            }
            for (; ox < ow; ++ox) {
              out[ox] = 0.0f;
            }
          }
        }
        std::fill(row + tile.cols, row + tile.ld, 0.0f);
      }
    }
  }
}

/// out[col] = sum over j in [0, k) of w[j * w_stride] * rows[j * ld + col]
/// for col in [0, cols), in j order. `rows` holds ld >= cols columns, ld a
/// multiple of kBlock.
template <bool kSerial>
void LaneDots(const float* w, int64_t w_stride, const float* rows,
              int64_t ld, int64_t k, int64_t cols, float* out) {
  for (int64_t c0 = 0; c0 < cols; c0 += kBlock) {
    Vf sum[kBlockVecs] = {};
    Vf comp[kBlockVecs] = {};
    for (int64_t j = 0; j < k; ++j) {
      const float wj = w[j * w_stride];
      const float* r = rows + j * ld + c0;
      for (int64_t u = 0; u < kBlockVecs; ++u) {
        Vf x;
        LoadV(&x, r + u * kVec);
        Accumulate<kSerial>(wj * x, &sum[u], &comp[u]);
      }
    }
    float lanes[kBlock];
    for (int64_t u = 0; u < kBlockVecs; ++u) {
      StoreV(lanes + u * kVec, sum[u]);
    }
    std::memcpy(out + c0, lanes,
                static_cast<size_t>(std::min(kBlock, cols - c0)) *
                    sizeof(float));
  }
}

void LaneDots(bool serial, const float* w, int64_t w_stride,
              const float* rows, int64_t ld, int64_t k, int64_t cols,
              float* out) {
  if (serial) {
    LaneDots<true>(w, w_stride, rows, ld, k, cols, out);
  } else {
    LaneDots<false>(w, w_stride, rows, ld, k, cols, out);
  }
}

/// Weight gradient of one output channel over a tile's columns in order:
/// for every column whose gout is nonzero (a zero gout adds nothing, as in
/// the scalar loop), sum[j] += gout * patches[col * kp + j] for all taps,
/// kVec taps per vector.
template <bool kSerial>
void TapLaneWeightGrad(const float* gout, const float* patches, int64_t kp,
                       int64_t cols, float* sum, float* comp) {
  for (int64_t col = 0; col < cols; ++col) {
    const float g = gout[col];
    if (g == 0.0f) {
      continue;
    }
    const float* x = patches + col * kp;
    for (int64_t j = 0; j < kp; j += kVec) {
      Vf s;
      Vf c;
      Vf xv;
      LoadV(&s, sum + j);
      LoadV(&c, comp + j);
      LoadV(&xv, x + j);
      Accumulate<kSerial>(g * xv, &s, &c);
      StoreV(sum + j, s);
      StoreV(comp + j, c);
    }
  }
}

int64_t MaxTileLd(const ConvGeom& geom, const DirectTiling& tiling) {
  return RoundUp(tiling.samples * tiling.rows * geom.out_w, kBlock);
}

void PixelLaneForward(const ConvGeom& geom, const DirectTiling& tiling,
                      const float* input, const float* weight, float* output,
                      util::ThreadPool* pool, util::ScratchPool* scratch) {
  const int64_t m = geom.group_out();
  const int64_t k = geom.patch_size();
  const int64_t out_pixels = geom.out_pixels();
  const bool serial = SerialSums(geom);
  const int64_t max_ld = MaxTileLd(geom, tiling);
  const int64_t tasks = CeilDiv(geom.batch, tiling.samples) * geom.groups;
  util::ParallelFor(
      pool, tasks, util::GrainForMaxChunks(tasks, kMaxTaskChunks),
      [&](int64_t begin, int64_t end, size_t /*chunk_index*/) {
        util::ScratchPool::Lease lease =
            scratch->Acquire(static_cast<size_t>((k + 1) * max_ld));
        float* col = lease.data();
        float* sums = col + k * max_ld;
        for (int64_t t = begin; t < end; ++t) {
          const int64_t n0 = (t / geom.groups) * tiling.samples;
          const int64_t n1 = std::min(geom.batch, n0 + tiling.samples);
          const int64_t g = t % geom.groups;
          for (int64_t oy0 = 0; oy0 < geom.out_h; oy0 += tiling.rows) {
            const Tile tile = MakeTile(
                geom, n0, n1, oy0, std::min(geom.out_h, oy0 + tiling.rows));
            GatherTaps(geom, input, g, tile, col);
            for (int64_t oc = g * m; oc < (g + 1) * m; ++oc) {
              LaneDots(serial, weight + oc * k, 1, col, tile.ld, k, tile.cols,
                       sums);
              for (int64_t n = n0; n < n1; ++n) {
                std::copy(sums + (n - n0) * tile.seg,
                          sums + (n - n0 + 1) * tile.seg,
                          output + (n * geom.out_channels + oc) * out_pixels +
                              oy0 * geom.out_w);
              }
            }
          }
        }
      });
}

void PixelLaneBackward(const ConvGeom& geom, const DirectTiling& tiling,
                       const float* input, const float* weight,
                       const float* grad_output, float* grad_input,
                       float* grad_weight, util::ThreadPool* pool,
                       util::ScratchPool* scratch) {
  const int64_t m = geom.group_out();
  const int64_t k = geom.patch_size();
  const int64_t kernel = geom.kernel;
  const int64_t ow = geom.out_w;
  const int64_t oh = geom.out_h;
  const int64_t out_pixels = geom.out_pixels();
  const bool serial = SerialSums(geom);
  const int64_t max_ld = MaxTileLd(geom, tiling);

  // Input gradient, over the forward's tiles: colgrad[j] = sum over oc of
  // W[oc][j] * gout[oc] with columns in lanes, then a scatter that gives
  // every input element its adds in raster order of the outputs reading
  // it: row tiles in order, descending (ky, kx), ascending columns.
  const int64_t tasks = CeilDiv(geom.batch, tiling.samples) * geom.groups;
  util::ParallelFor(
      pool, tasks, util::GrainForMaxChunks(tasks, kMaxTaskChunks),
      [&](int64_t begin, int64_t end, size_t /*chunk_index*/) {
        util::ScratchPool::Lease lease =
            scratch->Acquire(static_cast<size_t>((k + m) * max_ld));
        float* colgrad = lease.data();
        float* gout = colgrad + k * max_ld;
        for (int64_t t = begin; t < end; ++t) {
          const int64_t n0 = (t / geom.groups) * tiling.samples;
          const int64_t n1 = std::min(geom.batch, n0 + tiling.samples);
          const int64_t g = t % geom.groups;
          for (int64_t oy0 = 0; oy0 < oh; oy0 += tiling.rows) {
            const Tile tile =
                MakeTile(geom, n0, n1, oy0, std::min(oh, oy0 + tiling.rows));
            for (int64_t oc = 0; oc < m; ++oc) {
              float* row = gout + oc * tile.ld;
              for (int64_t n = n0; n < n1; ++n) {
                const float* src =
                    grad_output +
                    (n * geom.out_channels + g * m + oc) * out_pixels +
                    oy0 * ow;
                std::copy(src, src + tile.seg, row + (n - n0) * tile.seg);
              }
              std::fill(row + tile.cols, row + tile.ld, 0.0f);
            }
            for (int64_t j = 0; j < k; ++j) {
              LaneDots(serial, weight + g * m * k + j, k, gout, tile.ld, m,
                       tile.cols, colgrad + j * tile.ld);
            }
            for (int64_t n = n0; n < n1; ++n) {
              for (int64_t c = 0; c < geom.group_in(); ++c) {
                float* plane = grad_input + (n * geom.in_channels +
                                             g * geom.group_in() + c) *
                                                geom.height * geom.width;
                for (int64_t ky = kernel - 1; ky >= 0; --ky) {
                  for (int64_t kx = kernel - 1; kx >= 0; --kx) {
                    const float* row =
                        colgrad +
                        ((c * kernel + ky) * kernel + kx) * tile.ld +
                        (n - n0) * tile.seg;
                    int64_t lo = 0;
                    int64_t hi = 0;
                    ValidColumns(geom, kx, &lo, &hi);
                    for (int64_t oy = tile.oy0; oy < tile.oy1; ++oy) {
                      const int64_t iy = oy * geom.stride - geom.padding + ky;
                      if (iy < 0 || iy >= geom.height) {
                        continue;
                      }
                      float* dst = plane + iy * geom.width;
                      const float* src = row + (oy - tile.oy0) * ow;
                      for (int64_t ox = lo; ox < hi; ++ox) {
                        dst[ox * geom.stride - geom.padding + kx] += src[ox];
                      }
                    }
                  }
                }
              }
            }
          }
        }
      });

  // Weight gradient in the fixed sample chunks: every (oc, tap) accumulates
  // over (sample, pixel) in order, taps in lanes. State per chunk:
  // [oc][tap] sums, then compensations, taps padded to whole vectors.
  const int64_t kp = RoundUp(k, kVec);
  const int64_t state_floats = geom.out_channels * kp;
  util::ScratchPool::Lease state_lease = scratch->Acquire(
      static_cast<size_t>(tiling.backward_chunks * 2 * state_floats));
  float* states = state_lease.data();
  std::fill(states, states + tiling.backward_chunks * 2 * state_floats, 0.0f);
  const int64_t max_cols = tiling.samples * tiling.rows * ow;
  util::ParallelFor(
      pool, geom.batch,
      util::GrainForMaxChunks(geom.batch, kMaxBackwardChunks),
      [&](int64_t n_begin, int64_t n_end, size_t chunk_index) {
        util::ScratchPool::Lease lease = scratch->Acquire(
            static_cast<size_t>(k * max_ld + max_cols * (kp + 1)));
        float* col = lease.data();
        float* patches = col + k * max_ld;
        float* gout = patches + max_cols * kp;
        float* sums =
            states + static_cast<int64_t>(chunk_index) * 2 * state_floats;
        for (int64_t n0 = n_begin; n0 < n_end; n0 += tiling.samples) {
          const int64_t n1 = std::min(n_end, n0 + tiling.samples);
          for (int64_t oy0 = 0; oy0 < oh; oy0 += tiling.rows) {
            const Tile tile =
                MakeTile(geom, n0, n1, oy0, std::min(oh, oy0 + tiling.rows));
            for (int64_t g = 0; g < geom.groups; ++g) {
              GatherTaps(geom, input, g, tile, col);
              for (int64_t c = 0; c < tile.cols; ++c) {
                for (int64_t j = 0; j < kp; ++j) {
                  patches[c * kp + j] = j < k ? col[j * tile.ld + c] : 0.0f;
                }
              }
              for (int64_t oc = g * m; oc < (g + 1) * m; ++oc) {
                for (int64_t n = n0; n < n1; ++n) {
                  const float* src =
                      grad_output + (n * geom.out_channels + oc) * out_pixels +
                      oy0 * ow;
                  std::copy(src, src + tile.seg, gout + (n - n0) * tile.seg);
                }
                if (serial) {
                  TapLaneWeightGrad<true>(gout, patches, kp, tile.cols,
                                          sums + oc * kp,
                                          sums + state_floats + oc * kp);
                } else {
                  TapLaneWeightGrad<false>(gout, patches, kp, tile.cols,
                                           sums + oc * kp,
                                           sums + state_floats + oc * kp);
                }
              }
            }
          }
        }
      });
  ReduceChunks(
      geom, tiling.backward_chunks, states, state_floats,
      [&](int64_t oc, int64_t j) { return oc * kp + j; }, grad_weight);
}

}  // namespace

DirectTiling PlanDirectTiling(const ConvGeom& geom) {
  DirectTiling tiling;
  // Pixel-lane tiles: output rows of one sample, or whole images of
  // several samples when one image is small, so tiny planes fill the lanes.
  const int64_t per_row =
      std::max(geom.patch_size(), geom.group_out()) * geom.out_w;
  tiling.rows = std::clamp<int64_t>(kTileFloats / per_row, 1, geom.out_h);
  tiling.samples =
      tiling.rows < geom.out_h
          ? 1
          : std::clamp<int64_t>(kTileFloats / (per_row * geom.out_h), 1,
                                geom.batch);
  tiling.backward_chunks = util::NumChunks(
      geom.batch, util::GrainForMaxChunks(geom.batch, kMaxBackwardChunks));
  return tiling;
}

void DirectConvForward(const ConvGeom& geom, const DirectTiling& tiling,
                       const float* input, const float* weight, float* output,
                       util::ThreadPool* pool, util::ScratchPool* scratch) {
  if (IsDepthwise(geom)) {
    DepthwiseForward(geom, input, weight, output, pool, scratch);
  } else {
    PixelLaneForward(geom, tiling, input, weight, output, pool, scratch);
  }
}

void DirectConvBackward(const ConvGeom& geom, const DirectTiling& tiling,
                        const float* input, const float* weight,
                        const float* grad_output, float* grad_input,
                        float* grad_weight, util::ThreadPool* pool,
                        util::ScratchPool* scratch) {
  if (IsDepthwise(geom)) {
    DepthwiseBackward(geom, tiling, input, weight, grad_output, grad_input,
                      grad_weight, pool, scratch);
  } else {
    PixelLaneBackward(geom, tiling, input, weight, grad_output, grad_input,
                      grad_weight, pool, scratch);
  }
}

}  // namespace mmlib::kernels

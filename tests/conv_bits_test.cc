#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/train_service.h"
#include "data/dataset.h"
#include "hash/sha256.h"
#include "kernels/conv_plan.h"
#include "models/zoo.h"
#include "nn/conv2d.h"
#include "util/thread_pool.h"

namespace mmlib {
namespace {

/// Pinned bits of deterministic convolutions. The digests below are the
/// SHA-256 of the raw float bytes produced by the scalar direct loop that
/// preceded the plan layer's direct kernels; any change to the order or the
/// kind of floating-point operations of a deterministic convolution (the
/// Kahan tap order, the gout == 0 skip, the backward chunk reduction, the
/// data-gradient scatter order) changes them. They must also hold on every
/// instruction set the library is built for.

std::string HexOf(const Tensor& t) {
  return Sha256::Hash(reinterpret_cast<const uint8_t*>(t.data()),
                      static_cast<size_t>(t.numel()) * sizeof(float))
      .ToHex();
}

struct ConvCase {
  const char* name;
  int64_t batch;
  int64_t in_channels;
  int64_t out_channels;
  int64_t kernel;
  int64_t stride;
  int64_t padding;
  int64_t groups;
  int64_t height;
  int64_t width;
  const char* output_hex;
  const char* grad_input_hex;
  const char* grad_weight_hex;
};

struct ConvRun {
  std::string output;
  std::string grad_input;
  std::string grad_weight;
};

ConvRun RunConv(const ConvCase& c, size_t threads) {
  util::ThreadPool pool(threads);
  Rng init(31 + static_cast<uint64_t>(c.in_channels * 7 + c.kernel));
  nn::Conv2d conv("conv", c.in_channels, c.out_channels, c.kernel, c.stride,
                  c.padding, c.groups, &init);
  nn::ExecutionContext ctx = nn::ExecutionContext::Deterministic(5);
  ctx.set_pool(&pool);

  Rng data_rng(1000 + static_cast<uint64_t>(c.batch * 13 + c.height));
  const Tensor input = Tensor::Uniform(
      Shape{c.batch, c.in_channels, c.height, c.width}, -1.0f, 1.0f,
      &data_rng);
  const Tensor output = conv.Forward({&input}, &ctx).value();
  // Every fifth output gradient is exactly zero (every tenth a negative
  // zero): the weight gradient must skip those terms, not add 0 * x.
  Tensor grad_output =
      Tensor::Uniform(output.shape(), -1.0f, 1.0f, &data_rng);
  for (int64_t i = 0; i < grad_output.numel(); i += 5) {
    grad_output.data()[i] = (i % 10 == 0) ? -0.0f : 0.0f;
  }
  conv.ZeroGrad();
  const std::vector<Tensor> grads = conv.Backward(grad_output, &ctx).value();
  return ConvRun{HexOf(output), HexOf(grads[0]),
                 HexOf(conv.params()[0].grad)};
}

kernels::ConvAlgo AlgoFor(const ConvCase& c) {
  const int64_t out_h = (c.height + 2 * c.padding - c.kernel) / c.stride + 1;
  const int64_t out_w = (c.width + 2 * c.padding - c.kernel) / c.stride + 1;
  return kernels::ConvPlan(kernels::ConvGeom{
                               c.batch, c.in_channels, c.out_channels,
                               c.kernel, c.stride, c.padding, c.groups,
                               c.height, c.width, out_h, out_w})
      .algo();
}

const ConvCase kCases[] = {
    {"depthwise_k3_s1_p1", 3, 12, 12, 3, 1, 1, 12, 14, 14,
     "9bebd8346678c147ec159ac6b3140dec332ac668528475b49439d7472cb7ae6b",
     "36c1a4b04315fb7f459d547a4d5ec5d6da6cfb8e5a6ee12644983c0d5139a06a",
     "d9aff87bce080fa2e03a8723e27f344f73ed725c49ea25cd698a3c55f293624d"},
    {"depthwise_k3_s2_p1_odd", 2, 10, 10, 3, 2, 1, 10, 11, 13,
     "51a8abddee1a758785d4a8f113eb31833846074937d78f693593c7c1bf2d8dbb",
     "6e3926a65cb1bc48f6ec96d90edbe9720244c654cf5cce68ed17650286be27b1",
     "7046320fa1b2661a1699f429527818cd28a884b184d8af559e5b89dc76612f11"},
    // Batch 11 splits into backward chunks of 2,2,2,2,2,1.
    {"depthwise_uneven_chunks", 11, 8, 8, 3, 1, 1, 8, 7, 7,
     "4b17643c658b5ee597ec7f18034398447cc34cf3628ecc333e8d5126a903cf9e",
     "9e6d540afdff18e0a701f3bf461bd9407e0a6d26de5ffee2f446cc82f4ec8df5",
     "c1892094b85a74521179659a3541522da1c458c6a83f5d8c9e02bfe4610aff69"},
    {"pointwise_s1_small", 3, 8, 12, 1, 1, 0, 1, 6, 6,
     "bb69924b62f8c6749a1fd62b5b84581908597dc17f9bed6a40cf90ca8d585193",
     "6c9fb5bd37368ac26be8a24923f5acf30c6cbb94f4689ca150e8d89f2f42b8f8",
     "35e3b798709f99fc840498fa03471618557b79c9ad0dd1b3ba5e5acbc1796153"},
    {"pointwise_s2_small", 2, 6, 10, 1, 2, 0, 1, 9, 9,
     "7050abfaa4203dd8d3271f12b044a6f82f6751953c4bea0b17d1c0373ad24215",
     "12cdeeab502068a2912e286847e925830c1974f0324bb2d9a462406f3ac93eee",
     "1f0cdbbbe261135c192e9e1294021023059ed0c22febad9f8cf837832519fb22"},
    {"grouped_k3_tiny", 2, 4, 6, 3, 1, 1, 2, 5, 5,
     "5ad248979846818084b713f7dd304090f198cd3afab7d91cc647cc18c96892cc",
     "e2dfe1ee0b1edf649d329e0dc243bb9827b3bef712ca334884acf7ee9c3dcb00",
     "fca9a0e64a484c82acf582236fa35794d853ad70729be4db863c3a7a7ece4bd1"},
    // One output channel per group and a larger image: the tap rows of
    // one sample are split into several tiles of output rows.
    {"grouped_k3_row_tiles", 2, 8, 2, 3, 1, 1, 2, 20, 20,
     "21ad6b0d6eeba44068ca3bdd96224183250829668208d129c6b1fd046a122200",
     "02ae6eac38240615c11e1d445431c06a3724102fb8821a4019f68e84c12da79b",
     "9447cb06a8955e18289ddffe6f0a0abe741d605c45f60cb76f22efa2ff6b0146"},
    {"grouped_k3_s2_row_tiles", 2, 8, 2, 3, 2, 1, 2, 40, 30,
     "ef62d07caab7d45624a06d8272b484453fd51d2d16e0bde2f2ed1f4c4aa0589f",
     "f46295946a8148b71b9bf60490ac254af22395f53393b96a3b66ac76547ed182",
     "66b7db97b9aa690c1386c1dd9531c03574480b06307ed2e96b26c55ed9e991ef"},
};

class ConvBitsTest : public ::testing::TestWithParam<ConvCase> {};

TEST_P(ConvBitsTest, DirectShapeTakesDirectAlgo) {
  EXPECT_EQ(AlgoFor(GetParam()), kernels::ConvAlgo::kDirect);
}

TEST_P(ConvBitsTest, PinnedDigestsAtEveryPoolSize) {
  const ConvCase& c = GetParam();
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE(std::string(c.name) + " threads=" + std::to_string(threads));
    const ConvRun run = RunConv(c, threads);
    EXPECT_EQ(run.output, c.output_hex);
    EXPECT_EQ(run.grad_input, c.grad_input_hex);
    EXPECT_EQ(run.grad_weight, c.grad_weight_hex);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvBitsTest, ::testing::ValuesIn(kCases),
    [](const ::testing::TestParamInfo<ConvCase>& info) {
      return std::string(info.param.name);
    });

/// A whole deterministic training run of MobileNetV2 (divisor 8, 28 px):
/// depthwise and small pointwise convolutions on the direct kernels, the
/// larger ones on GEMM plans, batch norm and the optimizer in between.
TEST(ConvBitsTrainingTest, MobileNetV2TrainingParamsHashIsPinned) {
  models::ModelConfig model_config =
      models::DefaultConfig(models::Architecture::kMobileNetV2);
  model_config.channel_divisor = 8;
  model_config.image_size = 28;
  model_config.num_classes = 10;
  model_config.init_seed = 3;
  core::TrainConfig train;
  train.epochs = 2;
  train.max_batches_per_epoch = 2;
  train.seed = 77;
  train.sgd.momentum = 0.9f;
  train.loader.image_size = 28;
  train.loader.num_classes = 10;
  train.loader.seed = 77;
  const data::SyntheticImageDataset dataset(
      data::PaperDatasetId::kCocoOutdoor512, 64);
  for (size_t threads : {size_t{1}, size_t{4}}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    util::ThreadPool pool(threads);
    nn::Model model = models::BuildModel(model_config).value();
    core::ImageTrainService service(&dataset, train);
    service.set_thread_pool(&pool);
    ASSERT_TRUE(service.Train(&model, /*deterministic=*/true, 0).ok());
    EXPECT_EQ(model.ParamsHash().ToHex(),
              "5179d220210fb0e5f94447583dd71da02e2144a8e0090abf906208db618d2802");
  }
}

}  // namespace
}  // namespace mmlib

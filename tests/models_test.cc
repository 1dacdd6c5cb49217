#include <gtest/gtest.h>

#include <map>
#include <string>

#include "models/zoo.h"

namespace mmlib::models {
namespace {

/// The headline fidelity check: at full scale, every architecture's
/// trainable parameter count and partially-updated parameter count match the
/// paper's Table 2 exactly.
class Table2Fidelity : public ::testing::TestWithParam<Table2Row> {};

TEST_P(Table2Fidelity, FullScaleParamCountsMatchPaper) {
  const Table2Row row = GetParam();
  const Architecture arch = ArchitectureFromName(row.name).value();
  auto model = BuildModel(FullScaleConfig(arch));
  ASSERT_TRUE(model.ok()) << model.status();
  EXPECT_EQ(model->TrainableParamCount(), row.params);
  EXPECT_EQ(ApplyPartialUpdateFreeze(&model.value()),
            row.partially_updated_params);
}

INSTANTIATE_TEST_SUITE_P(PaperTable2, Table2Fidelity,
                         ::testing::ValuesIn(Table2Reference()));

class ZooForward : public ::testing::TestWithParam<Architecture> {};

TEST_P(ZooForward, DefaultConfigForwardBackwardWork) {
  ModelConfig config = DefaultConfig(GetParam());
  // Keep the smoke test fast.
  config.channel_divisor = 8;
  config.image_size = 28;
  config.num_classes = 10;
  auto model = BuildModel(config);
  ASSERT_TRUE(model.ok()) << model.status();

  nn::ExecutionContext ctx = nn::ExecutionContext::Deterministic(1);
  ctx.set_training(true);
  Rng rng(2);
  Tensor input = Tensor::Gaussian(Shape{2, 3, 28, 28}, 1.0f, &rng);
  auto output = model->Forward(input, &ctx);
  ASSERT_TRUE(output.ok()) << output.status();
  EXPECT_EQ(output->shape(), (Shape{2, 10}));

  auto grad = model->Backward(Tensor::Full(output->shape(), 0.1f), &ctx);
  ASSERT_TRUE(grad.ok()) << grad.status();
  EXPECT_EQ(grad->shape(), input.shape());
}

TEST_P(ZooForward, InitializationIsSeedDeterministic) {
  ModelConfig config = DefaultConfig(GetParam());
  config.channel_divisor = 8;
  config.image_size = 28;
  auto a = BuildModel(config);
  auto b = BuildModel(config);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->ParamsHash(), b->ParamsHash());

  config.init_seed = 999;
  auto c = BuildModel(config);
  ASSERT_TRUE(c.ok());
  EXPECT_NE(a->ParamsHash(), c->ParamsHash());
}

TEST_P(ZooForward, FingerprintStableAcrossInitSeeds) {
  ModelConfig config = DefaultConfig(GetParam());
  config.channel_divisor = 8;
  auto a = BuildModel(config);
  config.init_seed = 12345;
  auto b = BuildModel(config);
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_EQ(a->ArchitectureFingerprint(), b->ArchitectureFingerprint());
}

/// A small build configuration for the recovery tests below.
ModelConfig TinyConfig(Architecture arch) {
  ModelConfig config = DefaultConfig(arch);
  config.channel_divisor = 8;
  config.image_size = 28;
  config.num_classes = 10;
  return config;
}

TEST_P(ZooForward, LoadModelEqualsBuildThenLoadParams) {
  const ModelConfig config = TinyConfig(GetParam());
  ModelConfig source_config = config;
  source_config.init_seed = 777;
  const Bytes snapshot = BuildModel(source_config)->SerializeParams();

  auto reference = BuildModel(config);
  ASSERT_TRUE(reference.ok()) << reference.status();
  ASSERT_TRUE(reference->LoadParams(snapshot).ok());
  auto loaded = LoadModel(config, snapshot);
  ASSERT_TRUE(loaded.ok()) << loaded.status();

  EXPECT_EQ(loaded->SerializeParams(), reference->SerializeParams());
  EXPECT_EQ(loaded->SerializeParams(), snapshot);
  EXPECT_EQ(loaded->ParamsHash(), reference->ParamsHash());
  EXPECT_EQ(loaded->ArchitectureFingerprint(),
            reference->ArchitectureFingerprint());
}

TEST_P(ZooForward, LoadModelRejectsSnapshotsThatDoNotFit) {
  const ModelConfig config = TinyConfig(GetParam());
  const Bytes snapshot = BuildModel(config)->SerializeParams();

  const Architecture other_arch = GetParam() == Architecture::kResNet18
                                      ? Architecture::kResNet50
                                      : Architecture::kResNet18;
  EXPECT_EQ(LoadModel(TinyConfig(other_arch), snapshot).status().code(),
            StatusCode::kCorruption);

  ModelConfig wider_head = config;
  wider_head.num_classes = 11;
  EXPECT_EQ(LoadModel(wider_head, snapshot).status().code(),
            StatusCode::kCorruption);

  const Bytes truncated(snapshot.begin(), snapshot.end() - 1);
  EXPECT_EQ(LoadModel(config, truncated).status().code(),
            StatusCode::kCorruption);

  Bytes trailing = snapshot;
  trailing.push_back(0);
  EXPECT_EQ(LoadModel(config, trailing).status().code(),
            StatusCode::kCorruption);
}

INSTANTIATE_TEST_SUITE_P(
    AllArchitectures, ZooForward, ::testing::ValuesIn(AllArchitectures()),
    [](const ::testing::TestParamInfo<Architecture>& info) {
      std::string name(ArchitectureName(info.param));
      for (char& c : name) {
        if (c == '-') {
          c = '_';
        }
      }
      return name;
    });

TEST(ZooTest, InitDigestsArePinned) {
  // ParamsHash of a freshly built model at a fixed seed and divisor. Any
  // change to the order, count or distribution of the seeded weight draws
  // changes these digests.
  const std::map<Architecture, std::string> expected = {
      {Architecture::kMobileNetV2,
       "17ae4f20d1f89a908931d154b3bd8528f72280b1ec24ae1599ebe2b2d78eb467"},
      {Architecture::kGoogLeNet,
       "9f133e4c03dad3d4732cdb2de7d87cfd9d604b2417495111f950ba9d1800a4e0"},
      {Architecture::kResNet18,
       "6912bf65dc7de761b44e5762ff2fa75028e0c57190409f81248d25fcdd6e5daa"},
      {Architecture::kResNet50,
       "398f075ea0e0b77f838629bed8ce6c1409582f38ac819724ef46151b31d69bcb"},
      {Architecture::kResNet152,
       "3c43964e6a36abb889e0ff426e15a83d6b82f082f3fa55f91662a36b347445fe"},
  };
  for (Architecture arch : AllArchitectures()) {
    ModelConfig config = TinyConfig(arch);
    config.init_seed = 20221;
    auto model = BuildModel(config);
    ASSERT_TRUE(model.ok()) << model.status();
    EXPECT_EQ(model->ParamsHash().ToHex(), expected.at(arch))
        << ArchitectureName(arch);
  }
}

TEST(ZooTest, ArchitectureNamesRoundtrip) {
  for (Architecture arch : AllArchitectures()) {
    EXPECT_EQ(ArchitectureFromName(ArchitectureName(arch)).value(), arch);
  }
  EXPECT_FALSE(ArchitectureFromName("VGG-16").ok());
}

TEST(ZooTest, FingerprintsDifferAcrossArchitectures) {
  std::vector<Digest> fingerprints;
  for (Architecture arch : AllArchitectures()) {
    ModelConfig config = DefaultConfig(arch);
    config.channel_divisor = 8;
    fingerprints.push_back(
        BuildModel(config)->ArchitectureFingerprint());
  }
  for (size_t i = 0; i < fingerprints.size(); ++i) {
    for (size_t j = i + 1; j < fingerprints.size(); ++j) {
      EXPECT_NE(fingerprints[i], fingerprints[j]);
    }
  }
}

TEST(ZooTest, DivisorScalesParameterCount) {
  ModelConfig config = DefaultConfig(Architecture::kResNet18);
  config.channel_divisor = 4;
  const int64_t at4 = BuildModel(config)->TrainableParamCount();
  config.channel_divisor = 8;
  config.num_classes = 125;
  const int64_t at8 = BuildModel(config)->TrainableParamCount();
  // Parameters scale roughly quadratically with channel width.
  EXPECT_GT(at4, 3 * at8);
  EXPECT_LT(at4, 6 * at8);
}

TEST(ZooTest, Table2SizeColumnIsParamsTimesFourBytes) {
  // The paper's "Size" column is the serialized parameter payload; verify
  // our models' payload is close (buffers add a small overhead).
  for (const Table2Row& row : Table2Reference()) {
    const double expected_mb = row.params * 4.0 / 1e6;
    EXPECT_NEAR(expected_mb, row.size_mb, row.size_mb * 0.05) << row.name;
  }
}

TEST(ZooTest, PartialFreezeKeepsOnlyClassifierTrainable) {
  ModelConfig config = DefaultConfig(Architecture::kMobileNetV2);
  config.channel_divisor = 8;
  config.num_classes = 125;
  auto model = BuildModel(config);
  ASSERT_TRUE(model.ok());
  ApplyPartialUpdateFreeze(&model.value());
  for (size_t i = 0; i < model->node_count(); ++i) {
    const nn::Layer* layer = model->layer(i);
    if (layer->HasTrainableParams()) {
      EXPECT_TRUE(IsClassifierLayer(*layer)) << layer->name();
    }
  }
  // MobileNetV2 head: 1280/8 * 125 + 125.
  EXPECT_EQ(model->TrainableParamCount(), 160 * 125 + 125);
}

TEST(ZooTest, PaperOrderIsByParameterCount) {
  // Table 2 lists architectures from fewest to most parameters.
  const auto& rows = Table2Reference();
  for (size_t i = 1; i < rows.size(); ++i) {
    EXPECT_LT(rows[i - 1].params, rows[i].params);
  }
}

}  // namespace
}  // namespace mmlib::models

/// Thread-pool scaling microbenchmark: sweeps MMLIB-style pool sizes over
/// the parallelized pipelines (dense and depthwise conv and linear forward
/// and backward through the kernel-plan layer, Merkle-leaf hashing, chunked
/// codec encode), verifies that every result is bit-identical to the
/// 1-thread run (the deterministic-chunking contract), and writes the
/// measurements to BENCH_parallel.json.
///
/// `--smoke` runs one rep per configuration and a smaller codec payload —
/// no useful timings, but the full bit-identity sweep — for CI.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "compress/chunked.h"
#include "json/json.h"
#include "models/zoo.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "util/clock.h"
#include "util/thread_pool.h"

using namespace mmlib;

namespace {

constexpr size_t kThreadSweep[] = {1, 2, 4, 8};

bool g_smoke = false;

struct Measurement {
  size_t threads = 0;
  double seconds_per_op = 0.0;
  bool bit_identical = false;
};

struct Section {
  std::string name;
  std::vector<Measurement> results;
};

/// Median-of-runs timing for one operation.
template <typename Fn>
double TimeOp(int reps, const Fn& fn) {
  if (g_smoke) {
    reps = 1;
  }
  std::vector<double> samples;
  samples.reserve(reps);
  for (int r = 0; r < reps; ++r) {
    Stopwatch watch;
    fn();
    samples.push_back(watch.ElapsedSeconds());
  }
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

bool SameBits(const Tensor& a, const Tensor& b) {
  return a.shape() == b.shape() &&
         std::memcmp(a.data(), b.data(),
                     static_cast<size_t>(a.numel()) * sizeof(float)) == 0;
}

/// A convolution cell: the layer and its input shape.
struct ConvCell {
  const char* name;
  int64_t in_channels;
  int64_t out_channels;
  int64_t groups;
  Shape input;
};

/// The original cell: a small dense 3x3 convolution (GEMM plan).
constexpr const char* kDenseConv = "conv";
/// A MobileNetV2 expansion-block depthwise 3x3 (direct kernel).
constexpr const char* kDepthwiseConv = "conv_depthwise";

ConvCell ConvCellFor(const char* name) {
  if (std::strcmp(name, kDepthwiseConv) == 0) {
    return {name, 96, 96, 96, Shape{16, 96, 28, 28}};
  }
  return {name, 8, 16, 1, Shape{8, 8, 32, 32}};
}

Section BenchConvForward(const char* name, uint64_t seed) {
  const ConvCell cell = ConvCellFor(name);
  Rng rng(seed);
  nn::Conv2d conv("bench", cell.in_channels, cell.out_channels, 3, 1, 1,
                  cell.groups, &rng);
  Rng input_rng(seed + 1);
  const Tensor input = Tensor::Gaussian(cell.input, 1.0f, &input_rng);

  Section section{std::string(name) + "_forward", {}};
  Tensor reference;
  for (size_t threads : kThreadSweep) {
    util::ThreadPool pool(threads);
    nn::ExecutionContext ctx = nn::ExecutionContext::Deterministic(3);
    ctx.set_pool(&pool);
    Tensor output;
    const double seconds = TimeOp(5, [&] {
      output = conv.Forward({&input}, &ctx).value();
    });
    if (threads == 1) {
      reference = output;
    }
    section.results.push_back({threads, seconds, SameBits(output, reference)});
  }
  return section;
}

Section BenchConvBackward(const char* name, uint64_t seed) {
  const ConvCell cell = ConvCellFor(name);
  Rng rng(seed);
  nn::Conv2d conv("bench", cell.in_channels, cell.out_channels, 3, 1, 1,
                  cell.groups, &rng);
  Rng input_rng(seed + 1);
  const Tensor input = Tensor::Gaussian(cell.input, 1.0f, &input_rng);
  Rng gout_rng(seed + 2);
  const Tensor gout = Tensor::Gaussian(
      Shape{cell.input.dim(0), cell.out_channels, cell.input.dim(2),
            cell.input.dim(3)},
      1.0f, &gout_rng);

  Section section{std::string(name) + "_backward", {}};
  Tensor ref_gin;
  Tensor ref_gw;
  for (size_t threads : kThreadSweep) {
    util::ThreadPool pool(threads);
    nn::ExecutionContext ctx = nn::ExecutionContext::Deterministic(3);
    ctx.set_pool(&pool);
    (void)conv.Forward({&input}, &ctx).value();
    Tensor grad_input;
    const double seconds = TimeOp(5, [&] {
      conv.ZeroGrad();
      grad_input = std::move(conv.Backward(gout, &ctx).value()[0]);
    });
    const Tensor& grad_weight = conv.params()[0].grad;
    if (threads == 1) {
      ref_gin = grad_input;
      ref_gw = grad_weight;
    }
    section.results.push_back(
        {threads, seconds,
         SameBits(grad_input, ref_gin) && SameBits(grad_weight, ref_gw)});
  }
  return section;
}

Section BenchLinearForward() {
  Rng rng(21);
  nn::Linear fc("bench", 512, 512, &rng);
  Rng input_rng(22);
  const Tensor input = Tensor::Gaussian(Shape{64, 512}, 1.0f, &input_rng);

  Section section{"linear_forward", {}};
  Tensor reference;
  for (size_t threads : kThreadSweep) {
    util::ThreadPool pool(threads);
    nn::ExecutionContext ctx = nn::ExecutionContext::Deterministic(3);
    ctx.set_pool(&pool);
    Tensor output;
    const double seconds = TimeOp(10, [&] {
      output = fc.Forward({&input}, &ctx).value();
    });
    if (threads == 1) {
      reference = output;
    }
    section.results.push_back({threads, seconds, SameBits(output, reference)});
  }
  return section;
}

Section BenchLinearBackward() {
  Rng rng(31);
  nn::Linear fc("bench", 512, 512, &rng);
  Rng input_rng(32);
  const Tensor input = Tensor::Gaussian(Shape{64, 512}, 1.0f, &input_rng);
  Rng gout_rng(33);
  const Tensor gout = Tensor::Gaussian(Shape{64, 512}, 1.0f, &gout_rng);

  Section section{"linear_backward", {}};
  Tensor ref_gin;
  Tensor ref_gw;
  Tensor ref_gb;
  for (size_t threads : kThreadSweep) {
    util::ThreadPool pool(threads);
    nn::ExecutionContext ctx = nn::ExecutionContext::Deterministic(3);
    ctx.set_pool(&pool);
    (void)fc.Forward({&input}, &ctx).value();
    Tensor grad_input;
    const double seconds = TimeOp(10, [&] {
      fc.ZeroGrad();
      grad_input = std::move(fc.Backward(gout, &ctx).value()[0]);
    });
    const Tensor& grad_weight = fc.params()[0].grad;
    const Tensor& grad_bias = fc.params()[1].grad;
    if (threads == 1) {
      ref_gin = grad_input;
      ref_gw = grad_weight;
      ref_gb = grad_bias;
    }
    section.results.push_back({threads, seconds,
                               SameBits(grad_input, ref_gin) &&
                                   SameBits(grad_weight, ref_gw) &&
                                   SameBits(grad_bias, ref_gb)});
  }
  return section;
}

Section BenchMerkleBuild() {
  models::ModelConfig config =
      models::DefaultConfig(models::Architecture::kMobileNetV2);
  config.channel_divisor = 4;
  config.image_size = 56;
  config.num_classes = 250;
  config.init_seed = 4;
  nn::Model model = models::BuildModel(config).value();

  Section section{"merkle_build", {}};
  Digest reference;
  for (size_t threads : kThreadSweep) {
    util::ThreadPool pool(threads);
    Digest root;
    const double seconds = TimeOp(5, [&] {
      root = model.BuildMerkleTree(&pool).value().root();
    });
    if (threads == 1) {
      reference = root;
    }
    section.results.push_back({threads, seconds, root == reference});
  }
  return section;
}

Section BenchCodecEncode() {
  // Compressible payload shaped like a serialized parameter snapshot.
  Bytes payload((g_smoke ? 1 : 4) * 1024 * 1024);
  Rng rng(5);
  for (size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<uint8_t>(rng.NextBelow(29));
  }
  constexpr size_t kChunkSize = 256 * 1024;

  Section section{"codec_encode", {}};
  Bytes reference;
  for (size_t threads : kThreadSweep) {
    util::ThreadPool pool(threads);
    Bytes frame;
    const double seconds = TimeOp(3, [&] {
      frame =
          ChunkedFrame(payload, CodecKind::kLz77, kChunkSize, &pool).value();
    });
    if (threads == 1) {
      reference = frame;
    }
    section.results.push_back({threads, seconds, frame == reference});
  }
  return section;
}

json::Value SectionToJson(const Section& section) {
  json::Value results = json::Value::MakeArray();
  const double base = section.results.front().seconds_per_op;
  for (const Measurement& m : section.results) {
    json::Value row = json::Value::MakeObject();
    row.Set("threads", static_cast<int64_t>(m.threads));
    row.Set("seconds_per_op", m.seconds_per_op);
    row.Set("speedup", m.seconds_per_op > 0 ? base / m.seconds_per_op : 0.0);
    row.Set("bit_identical", m.bit_identical);
    results.Append(std::move(row));
  }
  json::Value doc = json::Value::MakeObject();
  doc.Set("name", section.name);
  doc.Set("results", std::move(results));
  return doc;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      g_smoke = true;
    }
  }

  bench::PrintHeader(
      "micro_parallel", "Thread-pool scaling of the parallel pipelines",
      "Deterministic chunking: chunk boundaries depend only on the problem\n"
      "size, so every pool size must produce bit-identical results; the\n"
      "sweep verifies that while measuring throughput (DESIGN.md\n"
      "\"Threading model\" and \"Kernel plan layer\").");

  const size_t hardware_threads = util::ThreadPool::DefaultThreadCount();
  std::printf("hardware/default threads: %zu%s\n\n", hardware_threads,
              g_smoke ? " (smoke mode: 1 rep, timings not meaningful)" : "");

  const std::vector<Section> sections = {
      BenchConvForward(kDenseConv, 1),
      BenchConvBackward(kDenseConv, 11),
      BenchConvForward(kDepthwiseConv, 31),
      BenchConvBackward(kDepthwiseConv, 41),
      BenchLinearForward(),
      BenchLinearBackward(),
      BenchMerkleBuild(),
      BenchCodecEncode()};

  TablePrinter table(
      {"section", "threads", "sec/op", "speedup", "bit-identical"});
  json::Value section_array = json::Value::MakeArray();
  for (const Section& section : sections) {
    const double base = section.results.front().seconds_per_op;
    for (const Measurement& m : section.results) {
      char sec_buf[32];
      char speedup_buf[32];
      std::snprintf(sec_buf, sizeof(sec_buf), "%.6f", m.seconds_per_op);
      std::snprintf(speedup_buf, sizeof(speedup_buf), "%.2fx",
                    m.seconds_per_op > 0 ? base / m.seconds_per_op : 0.0);
      table.AddRow({section.name, std::to_string(m.threads), sec_buf,
                    speedup_buf, m.bit_identical ? "yes" : "NO"});
    }
    section_array.Append(SectionToJson(section));
  }
  table.Print(std::cout);

  bool all_identical = true;
  for (const Section& section : sections) {
    for (const Measurement& m : section.results) {
      all_identical = all_identical && m.bit_identical;
    }
  }

  if (!g_smoke) {
    json::Value doc = json::Value::MakeObject();
    doc.Set("bench", "micro_parallel");
    // Largest pool in the sweep; per-row thread counts live in `sections`.
    bench::SetHostMetadata(&doc, hardware_threads);
    doc.Set("hardware_threads", static_cast<int64_t>(hardware_threads));
    doc.Set("all_bit_identical", all_identical);
    doc.Set("sections", std::move(section_array));
    const std::string json_text = doc.DumpPretty();
    std::FILE* out = std::fopen("BENCH_parallel.json", "w");
    if (out != nullptr) {
      std::fwrite(json_text.data(), 1, json_text.size(), out);
      std::fputc('\n', out);
      std::fclose(out);
      std::printf("\nwrote BENCH_parallel.json\n");
    }
  }

  std::printf("all results bit-identical across pool sizes: %s\n",
              all_identical ? "yes" : "NO");
  return all_identical ? 0 : 1;
}

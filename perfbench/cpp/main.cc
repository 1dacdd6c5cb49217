// Benchmark worker: one process runs one workload for one seed and writes
// its raw samples as JSON. run.py starts several of these per benchmark run
// and reports medians across them.
//
//   perfbench_worker --workload pua_chain --seed 1 --seconds 3
//       --trace 0 --out result.json [--trace-out trace.json]
#include <sys/resource.h>

#include <cpuid.h>
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <vector>

#include "json/json.h"
#include "trace.h"
#include "workloads.h"

using mmlib::json::Value;

namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 1.0;
  bool trace = false;
  std::string out;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--out") {
      args->out = value;
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && !args->workload.empty() && !args->out.empty() &&
         args->seconds > 0.0 && (!args->trace || !args->trace_out.empty());
}

bool CpuHasShaNi() {
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx) == 0) {
    return false;
  }
  return (ebx & (1u << 29)) != 0;
}

Value HostMetadata(size_t pool_size) {
  Value host = Value::MakeObject();
  host.Set("nproc", static_cast<int64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  host.Set("pool_size", static_cast<int64_t>(pool_size));
  host.Set("compiler", std::string(PERFBENCH_COMPILER));
  host.Set("cxx_flags", std::string(PERFBENCH_CXX_FLAGS));
  host.Set("build_type", std::string(PERFBENCH_BUILD_TYPE));
  Value cpu = Value::MakeObject();
  __builtin_cpu_init();
  cpu.Set("sha_ni", CpuHasShaNi());
  cpu.Set("avx2", __builtin_cpu_supports("avx2") != 0);
  cpu.Set("avx512f", __builtin_cpu_supports("avx512f") != 0);
  host.Set("cpu_flags", std::move(cpu));
  return host;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_maxrss / 1024.0;
}

Value Numbers(const std::vector<double>& values) {
  Value array = Value::MakeArray();
  for (double v : values) {
    array.Append(v);
  }
  return array;
}

/// Raw per-op samples of one op type, in milliseconds.
Value OpSamples(const std::vector<perfbench::OpRecord>& ops,
                const std::vector<uint64_t>& op_steps,
                const std::string& type) {
  std::vector<double> wall, step, net, stored, load, rebuild, check_env,
      verify;
  for (size_t i = 0; i < ops.size(); ++i) {
    const perfbench::OpRecord& op = ops[i];
    if (op.type != type || !op.ok) {
      continue;
    }
    wall.push_back(op.wall_s * 1e3);
    step.push_back(static_cast<double>(op_steps[i]));
    net.push_back(op.net_s * 1e3);
    if (type == "save") {
      stored.push_back(static_cast<double>(op.stored_bytes));
    }
    if (op.has_breakdown) {
      load.push_back(op.breakdown.load_seconds * 1e3);
      rebuild.push_back(op.breakdown.recover_seconds * 1e3);
      check_env.push_back(op.breakdown.check_env_seconds * 1e3);
      verify.push_back(op.breakdown.verify_seconds * 1e3);
    }
  }
  Value out = Value::MakeObject();
  out.Set("wall_ms", Numbers(wall));
  out.Set("step", Numbers(step));
  out.Set("net_ms", Numbers(net));
  if (type == "save") {
    out.Set("stored_bytes", Numbers(stored));
  } else {
    out.Set("load_ms", Numbers(load));
    out.Set("rebuild_ms", Numbers(rebuild));
    out.Set("check_env_ms", Numbers(check_env));
    out.Set("verify_ms", Numbers(verify));
  }
  return out;
}

/// Host speed at one moment: three fixed kernels timed on the calling
/// thread, in ms. Co-tenants of a shared host slow a core by up to 1.8x
/// for seconds to minutes at a time, through its caches and memory (the
/// random walk over 8 MiB) and through the execution units its
/// hyperthread sibling shares (the float multiply-add loop in registers,
/// and a small cache-resident matrix product). run.py scales each op time
/// by these timings, taken right after the op.
struct Calibration {
  double walk_ms = 0.0;
  double fma_ms = 0.0;
  double gemm_ms = 0.0;
};

Calibration Calibrate(std::vector<uint64_t>* walk_buffer) {
  using Clock = std::chrono::steady_clock;
  Calibration out;
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  auto start = Clock::now();
  uint64_t* data = walk_buffer->data();
  const size_t mask = walk_buffer->size() - 1;  // size is a power of two
  for (int k = 0; k < 200000; ++k) {
    x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    data[(x >> 20) & mask] += x;
  }
  out.walk_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  start = Clock::now();
  float lanes[64];
  for (int i = 0; i < 64; ++i) {
    lanes[i] = 1.0f + static_cast<float>(i) * 1e-3f;
  }
  for (int k = 0; k < 40000; ++k) {
    for (int i = 0; i < 64; ++i) {
      lanes[i] = lanes[i] * 0.999f + 1e-3f;
    }
  }
  out.fma_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  start = Clock::now();
  constexpr int kN = 64;
  static float a[kN * kN], b[kN * kN], c[kN * kN];
  for (int i = 0; i < kN * kN; ++i) {
    a[i] = 1.0f + static_cast<float>(i % 7) * 1e-3f;
    b[i] = 1.0f - static_cast<float>(i % 5) * 1e-3f;
    c[i] = 0.0f;
  }
  for (int rep = 0; rep < 4; ++rep) {
    for (int i = 0; i < kN; ++i) {
      for (int k = 0; k < kN; ++k) {
        const float aik = a[i * kN + k];
        for (int j = 0; j < kN; ++j) {
          c[i * kN + j] += aik * b[k * kN + j];
        }
      }
    }
  }
  out.gemm_ms =
      std::chrono::duration<double, std::milli>(Clock::now() - start).count();
  // Keeps the loops' results alive.
  data[0] += x + static_cast<uint64_t>(lanes[7] * 1000.0f) +
             static_cast<uint64_t>(c[kN + 3]);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  const auto start = std::chrono::steady_clock::now();
  auto elapsed = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start)
        .count();
  };
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench_worker --workload NAME --seed N "
                 "--seconds S --trace 0|1 --out FILE [--trace-out FILE]\n";
    return 2;
  }
  const size_t pool_size = perfbench::PoolSizeFor(args.workload);
  // Library paths that fall back to the process-wide pool (training replay
  // inside recovery, chunked codecs) get the workload's size too, never the
  // host's core count.
  setenv("MMLIB_THREADS", std::to_string(pool_size).c_str(), 1);
  mmlib::util::ThreadPool pool(pool_size);
  std::unique_ptr<perfbench::Workload> workload =
      perfbench::MakeWorkload(args.workload, args.seed, &pool);
  if (workload == nullptr) {
    std::cerr << "unknown workload " << args.workload << "\n";
    return 2;
  }
  // Calibrations: [0] just before Setup(), [1] just after it, [2 + i]
  // right after step i.
  std::vector<uint64_t> walk_buffer(size_t{1} << 20, 1);  // 8 MiB
  const double calibrate_start_s = elapsed();
  std::vector<Calibration> calibrations = {Calibrate(&walk_buffer)};
  const double calibrate_s = elapsed() - calibrate_start_s;
  const mmlib::Status setup = workload->Setup();
  if (!setup.ok()) {
    std::cerr << "setup failed: " << setup << "\n";
    return 3;
  }
  // Everything before the first timed op except the calibration.
  const double setup_s = elapsed() - calibrate_s;
  calibrations.push_back(Calibrate(&walk_buffer));

  perfbench::Tracer tracer;
  if (args.trace) {
    perfbench::Tracer::Install(&tracer);
  }
  std::vector<perfbench::OpRecord> ops;
  const auto timed_start = std::chrono::steady_clock::now();
  double timed_s = 0.0;
  uint64_t steps = 0;
  double last_step_s = 0.0;
  // Stop before a step that would overrun the time share, but not before
  // kMinSteps: run.py takes the virtual-clock metrics from the first ops,
  // which must exist in every process.
  constexpr uint64_t kMinSteps = 5;
  std::vector<uint64_t> op_steps;  // the step of each op in `ops`
  // Peak RSS through set-up and the first kMinSteps steps: a fixed amount
  // of work, where the whole run's peak would grow with the number of
  // steps the host's speed let fit in the time share.
  double peak_rss_mb = 0.0;
  while (steps < kMinSteps || timed_s + last_step_s <= args.seconds) {
    tracer.set_op(steps);
    const mmlib::Status status = workload->Step(&ops);
    if (!status.ok()) {
      std::cerr << "step failed: " << status << "\n";
      return 3;
    }
    op_steps.resize(ops.size(), steps);
    calibrations.push_back(Calibrate(&walk_buffer));
    ++steps;
    if (steps == kMinSteps) {
      peak_rss_mb = PeakRssMb();
    }
    const double now = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - timed_start)
                           .count();
    last_step_s = now - timed_s;
    timed_s = now;
  }
  perfbench::Tracer::Install(nullptr);

  Value result = Value::MakeObject();
  result.Set("workload", args.workload);
  result.Set("seed", static_cast<int64_t>(args.seed));
  result.Set("traced", args.trace);
  result.Set("host", HostMetadata(pool_size));
  result.Set("setup_s", setup_s);
  result.Set("timed_s", timed_s);
  result.Set("steps", static_cast<int64_t>(steps));
  Value walk_ms = Value::MakeArray();
  Value fma_ms = Value::MakeArray();
  Value gemm_ms = Value::MakeArray();
  for (const Calibration& c : calibrations) {
    walk_ms.Append(c.walk_ms);
    fma_ms.Append(c.fma_ms);
    gemm_ms.Append(c.gemm_ms);
  }
  Value calibration = Value::MakeObject();
  calibration.Set("walk_ms", std::move(walk_ms));
  calibration.Set("fma_ms", std::move(fma_ms));
  calibration.Set("gemm_ms", std::move(gemm_ms));
  result.Set("calibration", std::move(calibration));
  int64_t failed = 0;
  Value failures = Value::MakeArray();
  for (const perfbench::OpRecord& op : ops) {
    if (!op.ok) {
      ++failed;
      failures.Append(op.error);
    }
  }
  result.Set("attempted", static_cast<int64_t>(ops.size()));
  result.Set("failed", failed);
  result.Set("failures", std::move(failures));
  Value samples = Value::MakeObject();
  samples.Set("save", OpSamples(ops, op_steps, "save"));
  samples.Set("recover", OpSamples(ops, op_steps, "recover"));
  result.Set("ops", std::move(samples));
  result.Set("simulated_requests",
             static_cast<int64_t>(workload->SimulatedRequests()));
  result.Set("counters", workload->Counters());
  result.Set("extra", workload->Extra());
  if (args.trace) {
    // Probes run after the timed loop, so they never disturb its timing.
    perfbench::Tracer::Install(&tracer);
    result.Set("probes", workload->Probe());
    perfbench::Tracer::Install(nullptr);
    if (!tracer.WriteTraceEvents(args.trace_out)) {
      std::cerr << "cannot write " << args.trace_out << "\n";
      return 3;
    }
  }
  result.Set("peak_rss_mb", peak_rss_mb);

  std::ofstream out(args.out);
  out << result.Dump() << "\n";
  out.close();
  if (!out) {
    std::cerr << "cannot write " << args.out << "\n";
    return 3;
  }
  return 0;
}

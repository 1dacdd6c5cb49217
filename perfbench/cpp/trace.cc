#include "trace.h"

#include <cstdio>

namespace perfbench {

namespace {

/// Ids of the spans open on this thread, innermost last.
thread_local std::vector<uint32_t> t_open_stack;

}  // namespace

Tracer* Tracer::active_ = nullptr;

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {
  spans_.reserve(1 << 16);
}

double Tracer::NowMicros() const {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

uint32_t Tracer::Begin(const char* name) {
  Span span;
  span.name = name;
  span.parent = t_open_stack.empty() ? 0 : t_open_stack.back();
  std::lock_guard<std::mutex> lock(mu_);
  span.id = next_id_++;
  span.op = op_;
  span.start_us = NowMicros();
  open_.push_back(span);
  t_open_stack.push_back(span.id);
  return span.id;
}

void Tracer::End(uint32_t id, uint64_t bytes) {
  const double end = NowMicros();
  if (!t_open_stack.empty() && t_open_stack.back() == id) {
    t_open_stack.pop_back();
  }
  std::lock_guard<std::mutex> lock(mu_);
  for (auto it = open_.rbegin(); it != open_.rend(); ++it) {
    if (it->id == id) {
      Span span = *it;
      span.end_us = end;
      span.bytes = bytes;
      open_.erase(std::next(it).base());
      spans_.push_back(span);
      return;
    }
  }
}

bool Tracer::WriteTraceEvents(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) {
    return false;
  }
  std::lock_guard<std::mutex> lock(mu_);
  std::fprintf(out, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  bool first = true;
  for (const Span& span : spans_) {
    // Span names are string literals from this benchmark: no escaping.
    std::fprintf(out,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u,"
                 "\"op\":%llu,\"bytes\":%llu}}",
                 first ? "" : ",", span.name, span.start_us,
                 span.end_us - span.start_us, span.id, span.parent,
                 static_cast<unsigned long long>(span.op),
                 static_cast<unsigned long long>(span.bytes));
    first = false;
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0;
}

}  // namespace perfbench

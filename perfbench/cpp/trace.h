#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// One closed span on the wall clock. `parent` is the id of the span that
/// was open on the same thread when this one began (0 = root). `op` ties
/// every span of one benchmark operation together; `bytes` is the payload
/// the spanned call moved, when it moved one.
struct Span {
  uint32_t id = 0;
  uint32_t parent = 0;
  uint64_t op = 0;
  uint64_t bytes = 0;
  const char* name = "";
  double start_us = 0.0;
  double end_us = 0.0;
};

/// In-memory span recorder for the traced run. Spans are kept until the
/// run ends and then written once as a trace-event JSON file (the
/// Chrome/Perfetto "X" complete-event format). When no tracer is installed
/// every Scope is a no-op, so untraced runs pay one null check per call.
class Tracer {
 public:
  Tracer();

  /// The process-wide tracer, or nullptr when tracing is off.
  static Tracer* Active() { return active_; }
  static void Install(Tracer* tracer) { active_ = tracer; }

  /// Operation id stamped on spans opened from now on.
  void set_op(uint64_t op) {
    std::lock_guard<std::mutex> lock(mu_);
    op_ = op;
  }

  /// Opens a span on the calling thread; returns its id.
  uint32_t Begin(const char* name);
  /// Closes span `id` (must be the innermost open span of this thread).
  void End(uint32_t id, uint64_t bytes);

  /// Writes every closed span as trace-event JSON; false on I/O failure.
  bool WriteTraceEvents(const std::string& path) const;

  /// RAII span; a no-op when tracing is off.
  class Scope {
   public:
    explicit Scope(const char* name)
        : tracer_(Active()), id_(tracer_ ? tracer_->Begin(name) : 0) {}
    ~Scope() {
      if (tracer_ != nullptr) {
        tracer_->End(id_, bytes_);
      }
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    void set_bytes(uint64_t bytes) { bytes_ = bytes; }

   private:
    Tracer* tracer_;
    uint32_t id_;
    uint64_t bytes_ = 0;
  };

 private:
  double NowMicros() const;

  static Tracer* active_;
  std::chrono::steady_clock::time_point origin_;
  mutable std::mutex mu_;
  std::vector<Span> open_;  // begun, not yet ended
  std::vector<Span> spans_;
  uint32_t next_id_ = 1;
  uint64_t op_ = 0;
};

}  // namespace perfbench

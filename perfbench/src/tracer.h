// In-memory span recorder for the benchmark's traced run.
//
// A span wraps one public call the benchmark makes into a layer: a name,
// start, end, the enclosing span and a request id. Spans nest through an
// explicit stack, so a layer's self time is its span time minus the time
// its child spans cover. Aggregates cover every span; the first kMaxKept
// spans are also kept and written out when the run ends.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

namespace perfbench {

class Tracer {
 public:
  struct Totals {
    uint64_t count = 0;
    int64_t total_ns = 0;
    int64_t self_ns = 0;
  };

  static constexpr size_t kMaxKept = 50'000;

  /// `name` must be a string literal (spans store the pointer). A request
  /// id of 0 inherits the enclosing span's.
  void Begin(const char* name, uint64_t request);
  void End();

  /// Totals of every span named `name` (zeroes if none ran).
  [[nodiscard]] Totals totals(const std::string& name) const;
  /// Mean span duration in ns (0 if none ran).
  [[nodiscard]] double MeanNs(const std::string& name) const;

  /// Writes the kept spans as Chrome trace-event JSON plus per-name totals.
  [[nodiscard]] bool Write(const std::string& path) const;

 private:
  static int64_t NowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

  struct Open {
    const char* name;
    uint64_t id;
    uint64_t request;
    int64_t start_ns;
    int64_t child_ns;
  };
  struct Kept {
    const char* name;
    uint64_t id;
    uint64_t parent;
    uint64_t request;
    int64_t start_ns;
    int64_t end_ns;
  };

  std::vector<Open> stack_;
  std::vector<Kept> kept_;
  uint64_t dropped_ = 0;
  uint64_t next_id_ = 1;
  std::unordered_map<const char*, Totals> totals_;
};

/// RAII span; a null tracer makes it a no-op (the untraced runs).
class Scope {
 public:
  Scope(Tracer* tracer, const char* name, uint64_t request = 0) : tracer_(tracer) {
    if (tracer_ != nullptr) tracer_->Begin(name, request);
  }
  ~Scope() {
    if (tracer_ != nullptr) tracer_->End();
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer* tracer_;
};

}  // namespace perfbench

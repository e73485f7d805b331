#include "tracer.h"

#include <cstdio>
#include <map>

namespace perfbench {

void Tracer::Begin(const char* name, uint64_t request) {
  if (request == 0 && !stack_.empty()) request = stack_.back().request;
  stack_.push_back(Open{name, next_id_++, request, NowNs(), 0});
}

void Tracer::End() {
  const int64_t end = NowNs();
  const Open open = stack_.back();
  stack_.pop_back();
  const int64_t dur = end - open.start_ns;
  Totals& t = totals_[open.name];
  ++t.count;
  t.total_ns += dur;
  t.self_ns += dur - open.child_ns;
  if (!stack_.empty()) stack_.back().child_ns += dur;
  if (kept_.size() < kMaxKept) {
    kept_.push_back(Kept{open.name, open.id, stack_.empty() ? 0 : stack_.back().id,
                         open.request, open.start_ns, end});
  } else {
    ++dropped_;
  }
}

Tracer::Totals Tracer::totals(const std::string& name) const {
  // Equal literals in different translation units may not share an
  // address, so match by content.
  Totals sum;
  for (const auto& [key, t] : totals_) {
    if (name == key) {
      sum.count += t.count;
      sum.total_ns += t.total_ns;
      sum.self_ns += t.self_ns;
    }
  }
  return sum;
}

double Tracer::MeanNs(const std::string& name) const {
  const Totals t = totals(name);
  return t.count == 0 ? 0 : static_cast<double>(t.total_ns) / static_cast<double>(t.count);
}

bool Tracer::Write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const int64_t t0 = kept_.empty() ? 0 : kept_.front().start_ns;
  std::fprintf(f, "{\"traceEvents\": [\n");
  for (size_t i = 0; i < kept_.size(); ++i) {
    const Kept& k = kept_[i];
    std::fprintf(f,
                 "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                 "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, \"parent\": %llu, "
                 "\"request\": %llu}}\n",
                 i == 0 ? "" : ",", k.name, static_cast<double>(k.start_ns - t0) / 1e3,
                 static_cast<double>(k.end_ns - k.start_ns) / 1e3,
                 static_cast<unsigned long long>(k.id),
                 static_cast<unsigned long long>(k.parent),
                 static_cast<unsigned long long>(k.request));
  }
  std::map<std::string, Totals> by_name;
  for (const auto& [key, t] : totals_) {
    Totals& s = by_name[key];
    s.count += t.count;
    s.total_ns += t.total_ns;
    s.self_ns += t.self_ns;
  }
  std::fprintf(f, "], \"droppedSpans\": %llu, \"totals\": {",
               static_cast<unsigned long long>(dropped_));
  bool first = true;
  for (const auto& [name, t] : by_name) {
    std::fprintf(f, "%s\"%s\": {\"count\": %llu, \"total_ns\": %lld, \"self_ns\": %lld}",
                 first ? "" : ", ", name.c_str(), static_cast<unsigned long long>(t.count),
                 static_cast<long long>(t.total_ns), static_cast<long long>(t.self_ns));
    first = false;
  }
  std::fprintf(f, "}}\n");
  return std::fclose(f) == 0;
}

}  // namespace perfbench

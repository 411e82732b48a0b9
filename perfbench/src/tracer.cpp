#include "tracer.hpp"

#include <cstdio>
#include <functional>
#include <thread>
#include <utility>

namespace perfbench {

namespace {
thread_local std::uint64_t t_current_span = 0;

double micros_since(Clock::time_point epoch, Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - epoch).count();
}
}  // namespace

std::uint64_t Tracer::next_id() {
  unisvd::LockGuard lock(mu_);
  return next_id_++;
}

std::uint64_t Tracer::current_parent() noexcept { return t_current_span; }

int Tracer::thread_index() {
  const std::uint64_t key = std::hash<std::thread::id>{}(std::this_thread::get_id());
  for (std::size_t i = 0; i < thread_keys_.size(); ++i) {
    if (thread_keys_[i] == key) return static_cast<int>(i) + 1;
  }
  thread_keys_.push_back(key);
  return static_cast<int>(thread_keys_.size());
}

void Tracer::push(Span s) {
  unisvd::LockGuard lock(mu_);
  if (s.tid == 0) s.tid = thread_index();
  if (spans_.size() >= max_spans_) {
    ++dropped_;
    return;
  }
  spans_.push_back(std::move(s));
}

void Tracer::complete(const char* cat, std::string name, Clock::time_point t0,
                      Clock::time_point t1, std::uint64_t id,
                      std::uint64_t parent, std::string args_json) {
  push(Span{cat, std::move(name), micros_since(epoch_, t0),
            micros_since(epoch_, t1) - micros_since(epoch_, t0), 0, id, parent,
            std::move(args_json)});
}

void Tracer::async_span(const char* cat, std::string name, Clock::time_point t0,
                        Clock::time_point t1, std::uint64_t id,
                        std::string args_json) {
  push(Span{cat, std::move(name), micros_since(epoch_, t0),
            micros_since(epoch_, t1) - micros_since(epoch_, t0), -1, id, 0,
            std::move(args_json)});
}

std::size_t Tracer::dropped() const {
  unisvd::LockGuard lock(mu_);
  return dropped_;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  unisvd::LockGuard lock(mu_);
  std::fprintf(f, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
  bool first = true;
  const auto sep = [&] {
    if (!first) std::fputs(",\n", f);
    first = false;
  };
  for (std::size_t i = 0; i < thread_keys_.size(); ++i) {
    sep();
    std::fprintf(f,
                 "{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":1,\"tid\":%zu,"
                 "\"args\":{\"name\":\"thread %zu\"}}",
                 i + 1, i + 1);
  }
  for (const Span& s : spans_) {
    const std::string args =
        "{\"id\":" + std::to_string(s.id) + ",\"parent\":" +
        std::to_string(s.parent) + (s.args.empty() ? "" : "," + s.args) + "}";
    if (s.tid < 0) {
      // Async begin/end pair on the request track.
      sep();
      std::fprintf(f,
                   "{\"ph\":\"b\",\"cat\":\"%s\",\"name\":%s,\"id\":%llu,"
                   "\"pid\":1,\"tid\":0,\"ts\":%.3f,\"args\":%s}",
                   s.cat, json_string(s.name).c_str(),
                   static_cast<unsigned long long>(s.id), s.ts_us, args.c_str());
      sep();
      std::fprintf(f,
                   "{\"ph\":\"e\",\"cat\":\"%s\",\"name\":%s,\"id\":%llu,"
                   "\"pid\":1,\"tid\":0,\"ts\":%.3f}",
                   s.cat, json_string(s.name).c_str(),
                   static_cast<unsigned long long>(s.id), s.ts_us + s.dur_us);
    } else {
      sep();
      std::fprintf(f,
                   "{\"ph\":\"X\",\"cat\":\"%s\",\"name\":%s,\"pid\":1,"
                   "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":%s}",
                   s.cat, json_string(s.name).c_str(), s.tid, s.ts_us,
                   s.dur_us, args.c_str());
    }
  }
  std::fprintf(f, "\n]}\n");
  return std::fclose(f) == 0;
}

Tracer::Scope::Scope(Tracer* tracer, const char* cat, std::string name,
                     std::string args_json)
    : tracer_(tracer), cat_(cat), name_(std::move(name)), args_(std::move(args_json)) {
  if (tracer_ == nullptr) return;
  id_ = tracer_->next_id();
  parent_ = t_current_span;
  t_current_span = id_;
  t0_ = Clock::now();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const auto t1 = Clock::now();
  t_current_span = parent_;
  tracer_->complete(cat_, std::move(name_), t0_, t1, id_, parent_, std::move(args_));
}

}  // namespace perfbench

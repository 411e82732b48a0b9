#pragma once
/// \file tracer.hpp
/// In-memory span recorder, written out as Chrome trace-event JSON (open it
/// in Perfetto or chrome://tracing) when the benchmark ends.
///
/// Three span levels, recorded from the benchmark's own code around the
/// calls it makes into the library:
///   request     — one workload operation: from its due time to completion;
///   call        — one public entry point (svd_values_report, submit, ...);
///   launch      — one Backend::launch, from the timing backend.
/// A span's parent is the innermost span open on the same thread when it
/// began (launches inside a synchronous call nest under that call). Served
/// requests complete on worker threads, so their spans are async events
/// keyed by request id.

#include <cstdint>
#include <string>
#include <vector>

#include "common.hpp"
#include "common/thread_annotations.hpp"

namespace perfbench {

class Tracer {
 public:
  /// `max_spans` bounds memory: spans past it are counted, not stored.
  explicit Tracer(Clock::time_point epoch, std::size_t max_spans = 200000)
      : epoch_(epoch), max_spans_(max_spans) {}

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// A span that completed on the calling thread.
  void complete(const char* cat, std::string name, Clock::time_point t0,
                Clock::time_point t1, std::uint64_t id, std::uint64_t parent,
                std::string args_json = {});
  /// A span that started and ended on different threads (served requests).
  void async_span(const char* cat, std::string name, Clock::time_point t0,
                  Clock::time_point t1, std::uint64_t id,
                  std::string args_json = {});

  [[nodiscard]] std::uint64_t next_id();
  /// Innermost span id open on the calling thread (0 when none).
  [[nodiscard]] static std::uint64_t current_parent() noexcept;

  /// Write every stored span. Returns false on I/O failure.
  [[nodiscard]] bool write_chrome(const std::string& path) const;

  /// Spans not stored because max_spans was reached.
  [[nodiscard]] std::size_t dropped() const;

  /// RAII scope that makes `id` the current parent on this thread and
  /// records a complete span on exit.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* cat, std::string name,
          std::string args_json = {});
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    const char* cat_;
    std::string name_;
    std::string args_;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    Clock::time_point t0_;
  };

 private:
  struct Span {
    const char* cat;
    std::string name;
    double ts_us;
    double dur_us;
    int tid;           ///< small per-thread index; -1 for async spans
    std::uint64_t id;
    std::uint64_t parent;
    std::string args;  ///< extra JSON members, without braces
  };
  void push(Span s);
  int thread_index() UNISVD_REQUIRES(mu_);

  Clock::time_point epoch_;
  std::size_t max_spans_;
  mutable unisvd::Mutex mu_;
  std::vector<Span> spans_ UNISVD_GUARDED_BY(mu_);
  std::size_t dropped_ UNISVD_GUARDED_BY(mu_) = 0;
  std::uint64_t next_id_ UNISVD_GUARDED_BY(mu_) = 1;
  std::vector<std::uint64_t> thread_keys_ UNISVD_GUARDED_BY(mu_);
};

}  // namespace perfbench

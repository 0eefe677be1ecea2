// Shared scaffolding for the experiment harness (E1–E10): banner printing
// and the --quick flag that shrinks replication for smoke runs.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "support/table.hpp"
#include "support/telemetry.hpp"

namespace wdm::bench {

inline bool quick_mode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--quick") == 0) return true;
  }
  return false;
}

/// Opt-in telemetry for benches: `--telemetry out.json` enables the runtime
/// gate for the whole run and dumps the registry on scope exit (end of
/// main); `--trace out.trace.json` additionally writes a Chrome trace-event
/// (Perfetto-loadable) export; `--stream out.jsonl` publishes live delta
/// frames while the bench runs (`--stream-interval s` sets the stride, tail
/// with wdmtop); `--prom out.prom` writes Prometheus text exposition at
/// exit. Without the flags — or when compiled out — this is inert. The
/// stream stops in the destructor, so the final frame flushes even when the
/// bench exits by exception.
class TelemetryScope {
 public:
  TelemetryScope(int argc, char** argv) {
    double stream_interval = 1.0;
    std::string stream_path;
    for (int i = 1; i + 1 < argc; ++i) {
      if (std::strcmp(argv[i], "--telemetry") == 0) path_ = argv[i + 1];
      if (std::strcmp(argv[i], "--trace") == 0) trace_path_ = argv[i + 1];
      if (std::strcmp(argv[i], "--stream") == 0) stream_path = argv[i + 1];
      if (std::strcmp(argv[i], "--stream-interval") == 0) {
        stream_interval = std::atof(argv[i + 1]);
      }
      if (std::strcmp(argv[i], "--prom") == 0) prom_path_ = argv[i + 1];
    }
    if (!path_.empty() || !trace_path_.empty() || !stream_path.empty() ||
        !prom_path_.empty()) {
      support::telemetry::set_enabled(true);
      std::string cmd;
      for (int i = 0; i < argc; ++i) {
        if (i > 0) cmd += ' ';
        cmd += argv[i];
      }
      support::telemetry::set_meta("command", cmd);
    }
    if (!stream_path.empty()) {
      support::telemetry::StreamOptions sopt;
      sopt.path = stream_path;
      sopt.interval_s = stream_interval > 0.0 ? stream_interval : 1.0;
      if (!support::telemetry::start_stream(sopt)) {
        std::fprintf(stderr, "telemetry: cannot start stream to %s\n",
                     stream_path.c_str());
      }
    }
  }
  ~TelemetryScope() {
    support::telemetry::stop_stream();  // final frame first, then the dumps
    if (!prom_path_.empty()) {
      if (support::telemetry::write_prometheus_file(prom_path_)) {
        std::printf("telemetry: wrote %s\n", prom_path_.c_str());
      } else {
        std::fprintf(stderr, "telemetry: failed to write %s\n",
                     prom_path_.c_str());
      }
    }
    if (!path_.empty()) {
      if (support::telemetry::write_file(path_)) {
        std::printf("telemetry: wrote %s\n", path_.c_str());
      } else {
        std::fprintf(stderr, "telemetry: failed to write %s\n", path_.c_str());
      }
    }
    if (!trace_path_.empty()) {
      if (support::telemetry::write_chrome_trace_file(trace_path_)) {
        std::printf("telemetry: wrote %s\n", trace_path_.c_str());
      } else {
        std::fprintf(stderr, "telemetry: failed to write %s\n",
                     trace_path_.c_str());
      }
    }
  }
  TelemetryScope(const TelemetryScope&) = delete;
  TelemetryScope& operator=(const TelemetryScope&) = delete;

 private:
  std::string path_;
  std::string trace_path_;
  std::string prom_path_;
};

inline void banner(const std::string& experiment, const std::string& claim) {
  std::printf("==== %s ====\n%s\n\n", experiment.c_str(), claim.c_str());
}

inline void print_table(const support::TextTable& t) {
  std::fputs(t.to_string().c_str(), stdout);
  std::fputs("\n", stdout);
}

inline void note(const std::string& s) {
  std::printf("note: %s\n", s.c_str());
}

/// Provisioning throughput as E13b reports it: requests *processed* —
/// accepted or dropped, both cost a routing attempt — per wall-clock second.
inline double requests_per_second(long long requests, double elapsed_ms) {
  return elapsed_ms > 0.0
             ? 1000.0 * static_cast<double>(requests) / elapsed_ms
             : 0.0;
}

}  // namespace wdm::bench

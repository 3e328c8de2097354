// Shared benchmark helpers: wall-clock timing, aligned table output,
// and the machine-readable trajectory file. Every bench prints the
// experiment id from docs/BENCHMARKS.md, the workload parameters,
// measured times, and machine-independent work proxies (pointer
// changes, queries) so the *shape* claims are checkable even on
// throttled hardware; with --json the same headline numbers are also
// written as a BENCH_*.json record. These binaries are not gated: the
// gated benchmark is perfbench/.
#pragma once

#include <chrono>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

namespace dynsld::bench {

class Timer {
 public:
  Timer() : start_(clock::now()) {}
  double us() const {
    return std::chrono::duration<double, std::micro>(clock::now() - start_)
        .count();
  }
  double ms() const { return us() / 1000.0; }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

inline void header(const char* experiment, const char* title) {
  std::printf("\n=== %s — %s ===\n", experiment, title);
}

inline void row(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  std::vfprintf(stdout, fmt, ap);
  va_end(ap);
  std::printf("\n");
  std::fflush(stdout);
}

// The machine-readable bench trajectory: one JSON file per bench run
// holding run metadata plus a flat list of (experiment, name, value,
// unit) metrics. Schema "dynsld-bench-v1":
//
//   {"schema": "dynsld-bench-v1", "bench": "engine", "smoke": true,
//    "workers": 4,
//    "metrics": [{"experiment": "E-ENGINE-10",
//                 "name": "wire_p50_us",
//                 "value": 43.2, "unit": "us"}, ...]}
//
// Unit conventions: time units ("ns", "us", "ms", "s") are
// lower-is-better; rates ("*/s") and speedup factors ("x") are
// higher-is-better; everything else ("count", "%", ...) has no
// direction.
class JsonLog {
 public:
  /// Arm the log: metrics recorded after this call are written to
  /// `path` when write() runs. Disarmed (default) logs drop metrics.
  void open(std::string path, std::string bench, bool smoke, int workers) {
    path_ = std::move(path);
    bench_ = std::move(bench);
    smoke_ = smoke;
    workers_ = workers;
  }

  /// Armed (i.e. --json was parsed)?
  explicit operator bool() const { return !path_.empty(); }

  /// Record one metric. No-op when disarmed, so call sites need no
  /// guards; non-finite values are recorded as 0 (JSON has no NaN).
  void metric(const std::string& experiment, const std::string& name,
              double value, const std::string& unit) {
    if (path_.empty()) return;
    if (!std::isfinite(value)) value = 0.0;
    entries_.push_back(Entry{experiment, name, unit, value});
  }

  /// Write the file (idempotent; also runs at destruction). Returns
  /// false when disarmed or the file could not be opened.
  bool write() {
    if (path_.empty() || written_) return false;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (!f) {
      std::fprintf(stderr, "bench: cannot write %s\n", path_.c_str());
      return false;
    }
    std::fprintf(f,
                 "{\"schema\": \"dynsld-bench-v1\", \"bench\": \"%s\", "
                 "\"smoke\": %s, \"workers\": %d, \"metrics\": [",
                 bench_.c_str(), smoke_ ? "true" : "false", workers_);
    for (size_t i = 0; i < entries_.size(); ++i) {
      const Entry& e = entries_[i];
      std::fprintf(f,
                   "%s\n  {\"experiment\": \"%s\", \"name\": \"%s\", "
                   "\"value\": %.6g, \"unit\": \"%s\"}",
                   i ? "," : "", e.experiment.c_str(), e.name.c_str(),
                   e.value, e.unit.c_str());
    }
    std::fprintf(f, "\n]}\n");
    std::fclose(f);
    std::printf("bench: wrote %zu metrics to %s\n", entries_.size(),
                path_.c_str());
    written_ = true;
    return true;
  }

  ~JsonLog() { write(); }

 private:
  struct Entry {
    std::string experiment, name, unit;
    double value = 0;
  };

  std::string path_, bench_;
  bool smoke_ = false;
  bool written_ = false;
  int workers_ = 0;
  std::vector<Entry> entries_;
};

/// The process-wide trajectory log benches record into.
inline JsonLog& json_log() {
  static JsonLog log;
  return log;
}

/// Parse `--json [path]` out of argv and arm json_log() when present
/// (default path BENCH_<bench>.json). Returns whether it was armed.
inline bool parse_json_arg(int argc, char** argv, const char* bench,
                           bool smoke, int workers) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--json") != 0) continue;
    std::string path;
    if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0)
      path = argv[i + 1];
    else
      path = std::string("BENCH_") + bench + ".json";
    json_log().open(std::move(path), bench, smoke, workers);
    return true;
  }
  return false;
}

}  // namespace dynsld::bench

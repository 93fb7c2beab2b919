// Shared helpers for the experiment benchmarks (E1–E7).
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace lm::bench {

/// Wall-clock timing of one call.
inline double time_once(const std::function<void()>& fn) {
  auto t0 = std::chrono::steady_clock::now();
  fn();
  auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

/// Runs fn at least `min_reps` times and at least `min_seconds` total;
/// returns the best (minimum) time — robust against scheduler noise.
inline double time_best(const std::function<void()>& fn, int min_reps = 3,
                        double min_seconds = 0.05) {
  double best = 1e300;
  double total = 0;
  int reps = 0;
  while (reps < min_reps || total < min_seconds) {
    double t = time_once(fn);
    if (t < best) best = t;
    total += t;
    ++reps;
    if (reps > 1000) break;
  }
  return best;
}

/// Wall-clock sample statistics over repeated runs: the best (the Table
/// headline number) plus the p50/p99 spread the BENCH_*.json files carry.
struct SampleStats {
  double best_s = 0;
  double p50_s = 0;
  double p99_s = 0;
  int reps = 0;
};

/// Runs fn at least `min_reps` times and at least `min_seconds` total and
/// returns best/p50/p99 over the samples.
inline SampleStats time_stats(const std::function<void()>& fn,
                              int min_reps = 9, double min_seconds = 0.05) {
  std::vector<double> samples;
  double total = 0;
  while (static_cast<int>(samples.size()) < min_reps || total < min_seconds) {
    double t = time_once(fn);
    samples.push_back(t);
    total += t;
    if (samples.size() > 1000) break;
  }
  std::sort(samples.begin(), samples.end());
  auto at = [&](double q) {
    size_t rank = static_cast<size_t>(
        std::ceil(q * static_cast<double>(samples.size())));
    if (rank == 0) rank = 1;
    return samples[std::min(rank, samples.size()) - 1];
  };
  return {samples.front(), at(0.5), at(0.99),
          static_cast<int>(samples.size())};
}

/// Accumulates named rows of numeric fields and writes the machine-readable
/// BENCH_<suite>.json files (one object per benchmark) that trend tooling
/// diffs across runs. Each file opens with the environment its numbers were
/// taken in, the fields lmbench prints: the commit (from LMBENCH_COMMIT,
/// as bench/e2e/run.sh sets it), the build type and compiler (compile
/// definitions from bench/CMakeLists.txt) and nproc. Names come from the
/// benchmarks themselves, so no JSON escaping is attempted.
class JsonReport {
 public:
  explicit JsonReport(std::string suite) : suite_(std::move(suite)) {}

  void add(const std::string& name,
           std::vector<std::pair<std::string, double>> fields) {
    entries_.push_back({name, std::move(fields)});
  }

  bool write(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (!f) return false;
    const char* commit = std::getenv("LMBENCH_COMMIT");
    std::fprintf(f,
                 "{\"suite\":\"%s\",\"env\":{\"commit\":\"%s\","
                 "\"build_type\":\"%s\",\"compiler\":\"%s\",\"nproc\":%u},"
                 "\"benchmarks\":[",
                 suite_.c_str(), commit ? commit : "unknown",
                 LM_BENCH_BUILD_TYPE, LM_BENCH_COMPILER,
                 std::thread::hardware_concurrency());
    for (size_t i = 0; i < entries_.size(); ++i) {
      const auto& [name, fields] = entries_[i];
      std::fprintf(f, "%s{\"name\":\"%s\"", i ? "," : "", name.c_str());
      for (const auto& [key, value] : fields) {
        std::fprintf(f, ",\"%s\":%.9g", key.c_str(), value);
      }
      std::fprintf(f, "}");
    }
    std::fprintf(f, "]}\n");
    std::fclose(f);
    return true;
  }

 private:
  std::string suite_;
  std::vector<std::pair<std::string,
                        std::vector<std::pair<std::string, double>>>>
      entries_;
};

/// Fixed-width table printer for the paper-style summary rows.
class Table {
 public:
  explicit Table(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  void print() const {
    std::vector<size_t> width(headers_.size());
    for (size_t i = 0; i < headers_.size(); ++i) width[i] = headers_[i].size();
    for (const auto& r : rows_) {
      for (size_t i = 0; i < r.size() && i < width.size(); ++i) {
        if (r[i].size() > width[i]) width[i] = r[i].size();
      }
    }
    auto print_row = [&](const std::vector<std::string>& r) {
      std::printf("| ");
      for (size_t i = 0; i < headers_.size(); ++i) {
        std::printf("%-*s | ", static_cast<int>(width[i]),
                    i < r.size() ? r[i].c_str() : "");
      }
      std::printf("\n");
    };
    print_row(headers_);
    std::printf("|");
    for (size_t i = 0; i < headers_.size(); ++i) {
      for (size_t j = 0; j < width[i] + 2; ++j) std::printf("-");
      std::printf("|");
    }
    std::printf("\n");
    for (const auto& r : rows_) print_row(r);
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string fmt(double v, const char* suffix = "") {
  char buf[64];
  if (v >= 100) {
    std::snprintf(buf, sizeof buf, "%.0f%s", v, suffix);
  } else if (v >= 1) {
    std::snprintf(buf, sizeof buf, "%.2f%s", v, suffix);
  } else {
    std::snprintf(buf, sizeof buf, "%.4f%s", v, suffix);
  }
  return buf;
}

}  // namespace lm::bench

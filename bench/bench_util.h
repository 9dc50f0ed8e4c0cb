// Shared helpers for the figure benches: tiny --key=value flag parsing so
// every bench runs with fast defaults yet scales to paper-sized runs,
// common printing, and a --json=<path> sink that records results as
// machine-readable baselines (see bench/record_baselines.sh), each file
// opening with a record of the machine that produced it.

#ifndef DSKETCH_BENCH_BENCH_UTIL_H_
#define DSKETCH_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

namespace dsketch {
namespace bench {

/// Returns the value of --name=... as int64, or `def` if absent.
inline int64_t FlagInt(int argc, char** argv, const char* name, int64_t def) {
  std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::strtoll(argv[i] + prefix.size(), nullptr, 10);
    }
  }
  return def;
}

/// True when the bare flag --name was passed (no value).
inline bool FlagSet(int argc, char** argv, const char* name) {
  std::string flag = std::string("--") + name;
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

/// Returns the value of --name=... as double, or `def` if absent.
inline double FlagDouble(int argc, char** argv, const char* name,
                         double def) {
  std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::strtod(argv[i] + prefix.size(), nullptr);
    }
  }
  return def;
}

/// Returns the value of --name=... as a string, or `def` if absent.
inline std::string FlagString(int argc, char** argv, const char* name,
                              const char* def) {
  std::string prefix = std::string("--") + name + "=";
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], prefix.c_str(), prefix.size()) == 0) {
      return std::string(argv[i] + prefix.size());
    }
  }
  return def;
}

/// Median and min-max range of repeated measurements.
struct Spread {
  double median;
  double min;
  double max;
};

/// The spread of `v` (non-empty); an even count's median is the mean of
/// the middle two.
inline Spread SpreadOf(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return {n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2, v.front(),
          v.back()};
}

/// Collects bench records and, when --json=<path> was passed, writes them
/// as {"bench": ..., "records": [{...}, ...]} on Flush/destruction.
/// Values are numbers or strings; records are flat key/value objects with
/// a "section" discriminator so one file can hold several sweeps. The
/// first record is always section "machine": the hardware thread count
/// and the compiler version, so a baseline says where it was measured.
class JsonSink {
 public:
  JsonSink(int argc, char** argv, const char* bench_name)
      : bench_name_(bench_name), path_(FlagString(argc, argv, "json", "")) {
    if (!enabled()) return;
    BeginRecord("machine");
    Add("hardware_concurrency",
        static_cast<int64_t>(std::thread::hardware_concurrency()));
    Add("compiler", __VERSION__);
  }

  ~JsonSink() { Flush(); }

  /// True when a --json path was given (records are being collected).
  bool enabled() const { return !path_.empty(); }

  /// Starts a record in `section`.
  void BeginRecord(const std::string& section) {
    records_.emplace_back();
    Add("section", section);
  }

  /// Adds a string field to the current record.
  void Add(const std::string& key, const std::string& value) {
    records_.back().emplace_back(key, "\"" + value + "\"");
  }

  /// Adds a numeric field to the current record.
  void Add(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.6g", value);
    records_.back().emplace_back(key, buf);
  }

  /// Adds a spread as `key` (the median), `key`_min and `key`_max.
  void Add(const std::string& key, const Spread& s) {
    Add(key, s.median);
    Add(key + "_min", s.min);
    Add(key + "_max", s.max);
  }

  /// Adds an integer field to the current record.
  void Add(const std::string& key, int64_t value) {
    records_.back().emplace_back(key, std::to_string(value));
  }

  /// Writes the file now (no-op when disabled or already flushed).
  void Flush() {
    if (path_.empty() || records_.empty()) return;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", path_.c_str());
      return;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"records\": [\n",
                 bench_name_.c_str());
    for (size_t r = 0; r < records_.size(); ++r) {
      std::fprintf(f, "    {");
      for (size_t i = 0; i < records_[r].size(); ++i) {
        std::fprintf(f, "%s\"%s\": %s", i == 0 ? "" : ", ",
                     records_[r][i].first.c_str(),
                     records_[r][i].second.c_str());
      }
      std::fprintf(f, "}%s\n", r + 1 < records_.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    records_.clear();
  }

 private:
  std::string bench_name_;
  std::string path_;
  std::vector<std::vector<std::pair<std::string, std::string>>> records_;
};

/// Prints a header banner for a bench.
inline void Banner(const char* title, const char* paper_ref) {
  std::printf("================================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("================================================================\n");
}

}  // namespace bench
}  // namespace dsketch

#endif  // DSKETCH_BENCH_BENCH_UTIL_H_

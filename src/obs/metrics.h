// MetricsRegistry: counters, gauges and histograms for the observability
// layer. Deterministic by construction: metrics are keyed in sorted maps,
// values derive only from simulated execution, and the JSON export prints
// in key order — so the metrics artifact of a sweep is byte-identical at
// any worker count once registries are folded in scenario-index order.
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace rgml::obs {

class JsonWriter;

/// A fixed-bucket histogram: `upperBounds` are the inclusive upper edges
/// of the finite buckets (must be strictly increasing); one implicit
/// overflow bucket catches everything above the last bound.
class Histogram {
 public:
  Histogram() = default;
  explicit Histogram(std::vector<double> upperBounds);

  void observe(double value);

  [[nodiscard]] long count() const noexcept { return count_; }
  [[nodiscard]] double sum() const noexcept { return sum_; }
  [[nodiscard]] const std::vector<double>& upperBounds() const noexcept {
    return upperBounds_;
  }
  /// Per-bucket counts; size = upperBounds().size() + 1 (last = overflow).
  [[nodiscard]] const std::vector<long>& bucketCounts() const noexcept {
    return bucketCounts_;
  }

  /// Fold `other` into this histogram (bucket bounds must match).
  void merge(const Histogram& other);

  /// Reassemble a histogram from its exported parts (the analysis layer's
  /// metrics loader). `bucketCounts` must have upperBounds.size() + 1
  /// entries and sum to `count`; throws std::invalid_argument otherwise.
  [[nodiscard]] static Histogram fromParts(std::vector<double> upperBounds,
                                           std::vector<long> bucketCounts,
                                           long count, double sum);

 private:
  std::vector<double> upperBounds_;
  std::vector<long> bucketCounts_;
  long count_ = 0;
  double sum_ = 0.0;
};

class MetricsRegistry {
 public:
  /// Increment counter `name` by `delta` (creating it at zero).
  void add(const std::string& name, std::uint64_t delta = 1);

  /// Set gauge `name` to `value` (last write wins).
  void set(const std::string& name, double value);

  /// The histogram `name`, creating it with `upperBounds` on first use
  /// (later calls ignore the bounds argument).
  Histogram& histogram(const std::string& name,
                       std::vector<double> upperBounds);

  [[nodiscard]] std::uint64_t counter(const std::string& name) const;

  [[nodiscard]] const std::map<std::string, std::uint64_t>& counters()
      const noexcept {
    return counters_;
  }
  [[nodiscard]] const std::map<std::string, double>& gauges()
      const noexcept {
    return gauges_;
  }
  [[nodiscard]] const std::map<std::string, Histogram>& histograms()
      const noexcept {
    return histograms_;
  }

  [[nodiscard]] bool empty() const noexcept {
    return counters_.empty() && gauges_.empty() && histograms_.empty();
  }

  /// Fold `other` into this registry: counters add, gauges last-write-
  /// wins (the caller folds in index order, so "last" is deterministic),
  /// histograms merge bucket-wise.
  void merge(const MetricsRegistry& other);

  /// The registry as one JSON object value written into `w`:
  /// {"counters": {...}, "gauges": {...},
  ///  "histograms": {"<name>": {"count": N, "sum": x,
  ///                            "bounds": [...], "buckets": [...]}}},
  /// one metric per line.
  void write(JsonWriter& w) const;
  /// write() as a standalone document with a trailing newline.
  void writeJson(std::ostream& os) const;
  [[nodiscard]] std::string toJson() const;

 private:
  std::map<std::string, std::uint64_t> counters_;
  std::map<std::string, double> gauges_;
  std::map<std::string, Histogram> histograms_;
};

}  // namespace rgml::obs

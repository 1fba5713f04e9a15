#include "obs/metrics.h"

#include <sstream>
#include <stdexcept>

#include "obs/analysis/json.h"

namespace rgml::obs {

Histogram::Histogram(std::vector<double> upperBounds)
    : upperBounds_(std::move(upperBounds)),
      bucketCounts_(upperBounds_.size() + 1, 0) {
  for (std::size_t i = 1; i < upperBounds_.size(); ++i) {
    if (upperBounds_[i] <= upperBounds_[i - 1]) {
      throw std::invalid_argument(
          "Histogram: upper bounds must be strictly increasing");
    }
  }
}

void Histogram::observe(double value) {
  std::size_t bucket = upperBounds_.size();  // overflow by default
  for (std::size_t i = 0; i < upperBounds_.size(); ++i) {
    if (value <= upperBounds_[i]) {
      bucket = i;
      break;
    }
  }
  if (bucketCounts_.empty()) bucketCounts_.assign(1, 0);
  ++bucketCounts_[bucket];
  ++count_;
  sum_ += value;
}

void Histogram::merge(const Histogram& other) {
  if (other.count_ == 0) return;
  if (count_ == 0 && upperBounds_.empty()) {
    *this = other;
    return;
  }
  if (upperBounds_ != other.upperBounds_) {
    throw std::invalid_argument(
        "Histogram::merge: bucket bounds differ");
  }
  for (std::size_t i = 0; i < bucketCounts_.size(); ++i) {
    bucketCounts_[i] += other.bucketCounts_[i];
  }
  count_ += other.count_;
  sum_ += other.sum_;
}

Histogram Histogram::fromParts(std::vector<double> upperBounds,
                               std::vector<long> bucketCounts, long count,
                               double sum) {
  Histogram h(std::move(upperBounds));
  if (bucketCounts.size() != h.upperBounds_.size() + 1) {
    throw std::invalid_argument(
        "Histogram::fromParts: need upperBounds.size() + 1 bucket counts");
  }
  long total = 0;
  for (long c : bucketCounts) {
    if (c < 0) {
      throw std::invalid_argument(
          "Histogram::fromParts: negative bucket count");
    }
    total += c;
  }
  if (total != count) {
    throw std::invalid_argument(
        "Histogram::fromParts: bucket counts do not sum to count");
  }
  h.bucketCounts_ = std::move(bucketCounts);
  h.count_ = count;
  h.sum_ = sum;
  return h;
}

void MetricsRegistry::add(const std::string& name, std::uint64_t delta) {
  counters_[name] += delta;
}

void MetricsRegistry::set(const std::string& name, double value) {
  gauges_[name] = value;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<double> upperBounds) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(name, Histogram(std::move(upperBounds))).first;
  }
  return it->second;
}

std::uint64_t MetricsRegistry::counter(const std::string& name) const {
  auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [name, value] : other.counters_) {
    counters_[name] += value;
  }
  for (const auto& [name, value] : other.gauges_) {
    gauges_[name] = value;
  }
  for (const auto& [name, hist] : other.histograms_) {
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      histograms_.emplace(name, hist);
    } else {
      it->second.merge(hist);
    }
  }
}

void MetricsRegistry::write(JsonWriter& w) const {
  using Layout = JsonWriter::Layout;
  w.beginObject(Layout::Lines).key("counters").beginObject(Layout::Lines);
  for (const auto& [name, value] : counters_) w.member(name, value);
  w.end().key("gauges").beginObject(Layout::Lines);
  for (const auto& [name, value] : gauges_) w.member(name, value);
  w.end().key("histograms").beginObject(Layout::Lines);
  for (const auto& [name, hist] : histograms_) {
    w.key(name).beginObject();
    w.member("count", hist.count()).member("sum", hist.sum());
    w.key("bounds").beginArray();
    for (const double bound : hist.upperBounds()) w.value(bound);
    w.end().key("buckets").beginArray();
    for (const long bucket : hist.bucketCounts()) w.value(bucket);
    w.end().end();
  }
  w.end().end();
}

void MetricsRegistry::writeJson(std::ostream& os) const {
  JsonWriter w(os);
  write(w);
  os << '\n';
}

std::string MetricsRegistry::toJson() const {
  std::ostringstream os;
  writeJson(os);
  return os.str();
}

}  // namespace rgml::obs

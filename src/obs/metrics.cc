#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <utility>

// util/json.h, util/mutex.h and util/thread_annotations.h are
// header-only and free of crowd_* link dependencies, so including them
// here keeps crowd_obs below crowd_util in the library order.
#include "util/json.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace crowd::obs {

namespace {

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "[FATAL obs/metrics] %s\n", message.c_str());
  std::abort();
}

}  // namespace

size_t ThisThreadShard() {
  static std::atomic<size_t> next{0};
  thread_local size_t shard =
      next.fetch_add(1, std::memory_order_relaxed) % kShards;
  return shard;
}

namespace internal {

void AtomicDoubleAdd(std::atomic<double>* target, double delta) {
  double expected = target->load(std::memory_order_relaxed);
  while (!target->compare_exchange_weak(expected, expected + delta,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicDoubleMin(std::atomic<double>* target, double value) {
  double expected = target->load(std::memory_order_relaxed);
  while (value < expected &&
         !target->compare_exchange_weak(expected, value,
                                        std::memory_order_relaxed)) {
  }
}

void AtomicDoubleMax(std::atomic<double>* target, double value) {
  double expected = target->load(std::memory_order_relaxed);
  while (value > expected &&
         !target->compare_exchange_weak(expected, value,
                                        std::memory_order_relaxed)) {
  }
}

}  // namespace internal

uint64_t Counter::Value() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    total += shard.value.load(std::memory_order_relaxed);
  }
  return total;
}

HistogramMetric::HistogramMetric(std::vector<double> bounds)
    : bounds_(std::move(bounds)),
      min_(std::numeric_limits<double>::infinity()),
      max_(-std::numeric_limits<double>::infinity()) {
  shards_.reserve(kShards);
  for (size_t i = 0; i < kShards; ++i) {
    shards_.push_back(std::make_unique<Shard>(bounds_.size() + 1));
  }
}

void HistogramMetric::Record(double value) {
  const size_t bucket = static_cast<size_t>(
      std::upper_bound(bounds_.begin(), bounds_.end(), value) -
      bounds_.begin());
  Shard& shard = *shards_[ThisThreadShard()];
  shard.buckets[bucket].fetch_add(1, std::memory_order_relaxed);
  internal::AtomicDoubleAdd(&shard.sum, value);
  internal::AtomicDoubleMin(&min_, value);
  internal::AtomicDoubleMax(&max_, value);
}

Histogram HistogramMetric::Snapshot() const {
  Histogram out(bounds_);
  for (const auto& shard : shards_) {
    for (size_t b = 0; b < shard->buckets.size(); ++b) {
      out.MergeBucket(b,
                      shard->buckets[b].load(std::memory_order_relaxed));
    }
    out.MergeSum(shard->sum.load(std::memory_order_relaxed));
  }
  if (out.count() > 0) {
    out.MergeMinMax(min_.load(std::memory_order_relaxed),
                    max_.load(std::memory_order_relaxed));
  }
  return out;
}

// ---------------------------------------------------------------------
// Registry

namespace {

enum class MetricKind { kCounter, kGauge, kHistogram };

struct Series {
  std::string labels;  // rendered: `key="value"` or empty
  std::unique_ptr<Counter> counter;
  std::unique_ptr<Gauge> gauge;
  std::unique_ptr<HistogramMetric> histogram;
};

struct Family {
  MetricKind kind = MetricKind::kCounter;
  std::string help;
  // label-rendering -> series; std::map keeps the export ordering
  // deterministic.
  std::map<std::string, Series> series;
};

std::string RenderLabels(const std::string& key, const std::string& value) {
  if (key.empty()) return "";
  std::string escaped;
  escaped.reserve(value.size());
  for (char c : value) {
    if (c == '\\' || c == '"') escaped.push_back('\\');
    if (c == '\n') {
      escaped += "\\n";
      continue;
    }
    escaped.push_back(c);
  }
  return key + "=\"" + escaped + "\"";
}

const char* KindName(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter:
      return "counter";
    case MetricKind::kGauge:
      return "gauge";
    case MetricKind::kHistogram:
      return "histogram";
  }
  return "untyped";
}

}  // namespace

struct Registry::Impl {
  mutable util::Mutex mu;
  std::map<std::string, Family> families CROWD_GUARDED_BY(mu);

  Series* GetSeries(const std::string& name, MetricKind kind,
                    const std::string& help, const std::string& label_key,
                    const std::string& label_value) CROWD_EXCLUDES(mu) {
    util::MutexLock lock(mu);
    Family& family = families[name];
    if (family.series.empty()) {
      family.kind = kind;
      family.help = help;
    } else if (family.kind != kind) {
      Die("metric '" + name + "' registered as " +
          KindName(family.kind) + " and requested as " + KindName(kind));
    }
    return &family.series[RenderLabels(label_key, label_value)];
  }
};

Registry::Registry() : impl_(std::make_unique<Impl>()) {}
Registry::~Registry() = default;

Counter* Registry::GetCounter(const std::string& name,
                              const std::string& help,
                              const std::string& label_key,
                              const std::string& label_value) {
  Series* series = impl_->GetSeries(name, MetricKind::kCounter, help,
                                    label_key, label_value);
  util::MutexLock lock(impl_->mu);
  if (!series->counter) series->counter = std::make_unique<Counter>();
  return series->counter.get();
}

Gauge* Registry::GetGauge(const std::string& name, const std::string& help,
                          const std::string& label_key,
                          const std::string& label_value) {
  Series* series = impl_->GetSeries(name, MetricKind::kGauge, help,
                                    label_key, label_value);
  util::MutexLock lock(impl_->mu);
  if (!series->gauge) series->gauge = std::make_unique<Gauge>();
  return series->gauge.get();
}

HistogramMetric* Registry::GetHistogram(const std::string& name,
                                        const std::string& help,
                                        std::vector<double> bounds,
                                        const std::string& label_key,
                                        const std::string& label_value) {
  Series* series = impl_->GetSeries(name, MetricKind::kHistogram, help,
                                    label_key, label_value);
  util::MutexLock lock(impl_->mu);
  if (!series->histogram) {
    series->histogram = std::make_unique<HistogramMetric>(std::move(bounds));
  }
  return series->histogram.get();
}

std::string Registry::ExportPrometheus() const {
  util::MutexLock lock(impl_->mu);
  std::string out;
  for (const auto& [name, family] : impl_->families) {
    out.append("# HELP ").append(name).append(" ").append(family.help);
    out.append("\n# TYPE ").append(name).append(" ").append(
        KindName(family.kind)).append("\n");
    for (const auto& [labels, series] : family.series) {
      // `name<suffix>{labels} `, or `name<suffix> ` without labels.
      const auto append_series = [&](const char* suffix) {
        out.append(name).append(suffix);
        if (!labels.empty()) out.append("{").append(labels).append("}");
        out += ' ';
      };
      switch (family.kind) {
        case MetricKind::kCounter:
          append_series("");
          json::Append(&out, series.counter->Value(), "\n");
          break;
        case MetricKind::kGauge:
          append_series("");
          json::Append(&out, series.gauge->Value(), "\n");
          break;
        case MetricKind::kHistogram: {
          Histogram h = series.histogram->Snapshot();
          uint64_t cumulative = 0;
          for (size_t b = 0; b < h.num_buckets(); ++b) {
            cumulative += h.bucket_count(b);
            out.append(name).append("_bucket{");
            if (!labels.empty()) out.append(labels).append(",");
            out += "le=\"";
            if (b < h.bounds().size()) {  // in the %g form
              json::AppendChars(&out, h.bounds()[b],
                                std::chars_format::general, 6);
            } else {
              out += "+Inf";
            }
            json::Append(&out, "\"} ", cumulative, "\n");
          }
          append_series("_sum");
          if (std::isfinite(h.sum())) {
            json::Append(&out, h.sum(), "\n");
          } else if (std::isnan(h.sum())) {  // in Prometheus spelling
            out += "NaN\n";
          } else {
            out += h.sum() > 0 ? "+Inf\n" : "-Inf\n";
          }
          append_series("_count");
          json::Append(&out, h.count(), "\n");
          break;
        }
      }
    }
  }
  return out;
}

std::string Registry::SummaryTable() const {
  util::MutexLock lock(impl_->mu);
  std::string out;
  for (const auto& [name, family] : impl_->families) {
    for (const auto& [labels, series] : family.series) {
      // The series id, left-aligned in 64 columns.
      const size_t start = out.size();
      out += name;
      if (!labels.empty()) out.append("{").append(labels).append("}");
      out.append(64 - std::min<size_t>(out.size() - start, 64), ' ');
      switch (family.kind) {
        case MetricKind::kCounter:
          json::Append(&out, " ", series.counter->Value(), "\n");
          break;
        case MetricKind::kGauge:
          json::Append(&out, " ", series.gauge->Value(), "\n");
          break;
        case MetricKind::kHistogram: {
          Histogram h = series.histogram->Snapshot();
          json::Append(&out, " count ", h.count());
          const std::pair<const char*, double> columns[] = {
              {"  mean ", h.mean()},          {"  p50 ", h.Quantile(0.5)},
              {"  p90 ", h.Quantile(0.9)},    {"  p99 ", h.Quantile(0.99)},
              {"  max ", h.max()}};
          for (const auto& [label, value] : columns) {
            out += label;  // then value in the %g form
            json::AppendChars(&out, value, std::chars_format::general, 6);
          }
          out += '\n';
          break;
        }
      }
    }
  }
  return out;
}

size_t Registry::NumFamilies() const {
  util::MutexLock lock(impl_->mu);
  return impl_->families.size();
}

// ---------------------------------------------------------------------
// Process-global default registry and the library-instrumentation gate.

namespace {

std::atomic<Registry*>& EnabledStore() {
  static std::atomic<Registry*> enabled{nullptr};
  return enabled;
}

}  // namespace

Registry& DefaultRegistry() {
  // Leaked on purpose: instrumented code caches metric pointers in
  // function-local statics and may run during late shutdown.
  static Registry* const registry = new Registry();
  return *registry;
}

Registry* MetricsRegistry() {
  return EnabledStore().load(std::memory_order_acquire);
}

void EnableMetrics() {
  EnabledStore().store(&DefaultRegistry(), std::memory_order_release);
}

void DisableMetrics() {
  EnabledStore().store(nullptr, std::memory_order_release);
}

bool MetricsEnabled() { return MetricsRegistry() != nullptr; }

}  // namespace crowd::obs

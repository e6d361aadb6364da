#include "src/obs/metrics.h"

#include <cstdio>
#include <sstream>

namespace frangipani {
namespace obs {

namespace {

std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", v);
  return buf;
}

// Metric names are [a-z0-9._<>-] by convention; escape the JSON-special
// characters anyway so a stray name can't corrupt the export.
std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out.push_back('\\');
      out.push_back(c);
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

Counter* MetricsRegistry::GetCounter(const std::string& name) {
  std::lock_guard<std::mutex> l(mu_);
  auto& slot = counters_[name];
  if (!slot) {
    slot = std::make_unique<Counter>();
  }
  return slot.get();
}

Gauge* MetricsRegistry::GetGauge(const std::string& name) {
  std::lock_guard<std::mutex> l(mu_);
  auto& slot = gauges_[name];
  if (!slot) {
    slot = std::make_unique<Gauge>();
  }
  return slot.get();
}

Histogram* MetricsRegistry::GetHistogram(const std::string& name) {
  std::lock_guard<std::mutex> l(mu_);
  auto& slot = histograms_[name];
  if (!slot) {
    slot = std::make_unique<Histogram>();
  }
  return slot.get();
}

std::string MetricsRegistry::ExportText() const {
  std::lock_guard<std::mutex> l(mu_);
  std::ostringstream out;
  for (const auto& [name, c] : counters_) {
    out << name << " " << c->value() << "\n";
  }
  for (const auto& [name, g] : gauges_) {
    out << name << " " << g->value() << "\n";
  }
  for (const auto& [name, h] : histograms_) {
    out << name << " count=" << h->count() << " mean=" << FormatDouble(h->Mean())
        << " p50=" << FormatDouble(h->Percentile(0.5))
        << " p90=" << FormatDouble(h->Percentile(0.9))
        << " p99=" << FormatDouble(h->Percentile(0.99))
        << " max=" << FormatDouble(h->Max()) << "\n";
  }
  return out.str();
}

std::string MetricsRegistry::ExportJson() const {
  std::lock_guard<std::mutex> l(mu_);
  std::ostringstream out;
  out << "{\"counters\":{";
  bool first = true;
  for (const auto& [name, c] : counters_) {
    if (!first) out << ",";
    first = false;
    out << "\"" << JsonEscape(name) << "\":" << c->value();
  }
  out << "},\"gauges\":{";
  first = true;
  for (const auto& [name, g] : gauges_) {
    if (!first) out << ",";
    first = false;
    out << "\"" << JsonEscape(name) << "\":" << g->value();
  }
  out << "},\"histograms\":{";
  first = true;
  for (const auto& [name, h] : histograms_) {
    if (!first) out << ",";
    first = false;
    out << "\"" << JsonEscape(name) << "\":{\"count\":" << h->count()
        << ",\"sum\":" << FormatDouble(h->Sum())
        << ",\"mean\":" << FormatDouble(h->Mean())
        << ",\"p50\":" << FormatDouble(h->Percentile(0.5))
        << ",\"p90\":" << FormatDouble(h->Percentile(0.9))
        << ",\"p99\":" << FormatDouble(h->Percentile(0.99))
        << ",\"max\":" << FormatDouble(h->Max()) << "}";
  }
  out << "}}";
  return out.str();
}

void MetricsRegistry::SnapshotValues(std::map<std::string, double>* out) const {
  std::lock_guard<std::mutex> l(mu_);
  for (const auto& [name, c] : counters_) {
    (*out)[name] = static_cast<double>(c->value());
  }
  for (const auto& [name, g] : gauges_) {
    (*out)[name] = static_cast<double>(g->value());
  }
  for (const auto& [name, h] : histograms_) {
    (*out)[name + ".count"] = static_cast<double>(h->count());
    (*out)[name + ".sum"] = h->Sum();
  }
}

void MetricsRegistry::ResetAll() {
  std::lock_guard<std::mutex> l(mu_);
  for (auto& [name, c] : counters_) {
    c->Reset();
  }
  for (auto& [name, g] : gauges_) {
    g->Reset();
  }
  for (auto& [name, h] : histograms_) {
    h->Reset();
  }
}

MetricsRegistry* MetricsRegistry::Default() {
  static MetricsRegistry* r = new MetricsRegistry();
  return r;
}

}  // namespace obs
}  // namespace frangipani

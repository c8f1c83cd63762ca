#include "support/metrics.h"

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <tuple>

#include "support/panic.h"

namespace ziria {
namespace metrics {

namespace {

template <typename T>
T&
findOrAdd(std::deque<std::pair<std::string, T>>& xs, const std::string& name)
{
    for (auto& [n, m] : xs) {
        if (n == name)
            return m;
    }
    xs.emplace_back(std::piecewise_construct, std::forward_as_tuple(name),
                    std::forward_as_tuple());
    return xs.back().second;
}

} // namespace

Counter&
Registry::counter(const std::string& name)
{
    std::lock_guard<std::mutex> lk(mu_);
    return findOrAdd(counters_, name);
}

Gauge&
Registry::gauge(const std::string& name)
{
    std::lock_guard<std::mutex> lk(mu_);
    return findOrAdd(gauges_, name);
}

Histogram&
Registry::histogram(const std::string& name)
{
    std::lock_guard<std::mutex> lk(mu_);
    return findOrAdd(histograms_, name);
}

void
Registry::observe(const std::string& name, uint64_t x)
{
    std::lock_guard<std::mutex> lk(mu_);
    findOrAdd(histograms_, name).observe(x);
}

std::vector<std::pair<std::string, uint64_t>>
Registry::counterValues() const
{
    std::lock_guard<std::mutex> lk(mu_);
    std::vector<std::pair<std::string, uint64_t>> out;
    out.reserve(counters_.size());
    for (const auto& [n, c] : counters_)
        out.emplace_back(n, c.value());
    std::sort(out.begin(), out.end());
    return out;
}

void
Registry::clear()
{
    std::lock_guard<std::mutex> lk(mu_);
    counters_.clear();
    gauges_.clear();
    histograms_.clear();
}

Registry&
Registry::global()
{
    static Registry reg;
    return reg;
}

// ---------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------

std::string
jsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size());
    for (unsigned char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (c < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += static_cast<char>(c);
            }
        }
    }
    return out;
}

void
JsonWriter::comma()
{
    if (!needComma_.empty()) {
        if (needComma_.back())
            out_ += ',';
        needComma_.back() = true;
    }
}

void
JsonWriter::key(const std::string& k)
{
    comma();
    out_ += '"';
    out_ += jsonEscape(k);
    out_ += "\":";
    // The value that follows must not emit another comma.
    if (!needComma_.empty())
        needComma_.back() = true;
}

void
JsonWriter::beginObject()
{
    comma();
    out_ += '{';
    needComma_.push_back(false);
}

void
JsonWriter::beginObject(const std::string& k)
{
    key(k);
    out_ += '{';
    needComma_.push_back(false);
}

void
JsonWriter::endObject()
{
    ZIRIA_ASSERT(!needComma_.empty());
    out_ += '}';
    needComma_.pop_back();
}

void
JsonWriter::beginArray()
{
    comma();
    out_ += '[';
    needComma_.push_back(false);
}

void
JsonWriter::beginArray(const std::string& k)
{
    key(k);
    out_ += '[';
    needComma_.push_back(false);
}

void
JsonWriter::endArray()
{
    ZIRIA_ASSERT(!needComma_.empty());
    out_ += ']';
    needComma_.pop_back();
}

void
JsonWriter::number(double v)
{
    if (!std::isfinite(v)) {
        out_ += "null";
        return;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    out_ += buf;
}

void
JsonWriter::field(const std::string& k, const std::string& v)
{
    key(k);
    out_ += '"';
    out_ += jsonEscape(v);
    out_ += '"';
}

void
JsonWriter::field(const std::string& k, const char* v)
{
    field(k, std::string(v));
}

void
JsonWriter::field(const std::string& k, uint64_t v)
{
    key(k);
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    out_ += buf;
}

void
JsonWriter::field(const std::string& k, int64_t v)
{
    key(k);
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRId64, v);
    out_ += buf;
}

void
JsonWriter::field(const std::string& k, int v)
{
    field(k, static_cast<int64_t>(v));
}

void
JsonWriter::field(const std::string& k, double v)
{
    key(k);
    number(v);
}

void
JsonWriter::field(const std::string& k, bool v)
{
    key(k);
    out_ += v ? "true" : "false";
}

void
JsonWriter::rawField(const std::string& k, const std::string& rawJson)
{
    key(k);
    out_ += rawJson;
}

void
JsonWriter::value(const std::string& v)
{
    comma();
    out_ += '"';
    out_ += jsonEscape(v);
    out_ += '"';
}

void
JsonWriter::value(uint64_t v)
{
    comma();
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%" PRIu64, v);
    out_ += buf;
}

void
JsonWriter::value(double v)
{
    comma();
    number(v);
}

std::string
toJson(const Registry& reg)
{
    std::lock_guard<std::mutex> lk(reg.mu_);
    JsonWriter w;
    w.beginObject();
    w.beginObject("counters");
    for (const auto& [n, c] : reg.counters_)
        w.field(n, c.value());
    w.endObject();
    w.beginObject("gauges");
    for (const auto& [n, g] : reg.gauges_) {
        w.beginObject(n);
        w.field("value", g.value());
        w.field("max", g.maxValue());
        w.endObject();
    }
    w.endObject();
    w.beginObject("histograms");
    for (const auto& [n, h] : reg.histograms_) {
        w.beginObject(n);
        w.field("count", h.count());
        w.field("sum", h.sum());
        w.field("min", h.min());
        w.field("max", h.max());
        w.field("mean", h.mean());
        w.field("p50", h.percentile(0.50));
        w.field("p90", h.percentile(0.90));
        w.field("p99", h.percentile(0.99));
        w.field("p999", h.percentile(0.999));
        w.endObject();
    }
    w.endObject();
    w.endObject();
    return w.str();
}

} // namespace metrics
} // namespace ziria

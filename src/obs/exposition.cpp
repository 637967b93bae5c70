#include "obs/exposition.hpp"

#include <charconv>
#include <cstdint>
#include <map>
#include <set>
#include <string>

#include "common/contracts.hpp"

namespace zh::obs {

namespace {

constexpr double kQuantiles[] = {0.5, 0.9, 0.95, 0.99};

// to_chars, not snprintf: %g honors LC_NUMERIC and a comma decimal
// point would break the exposition format.
void append_double(std::string& out, double v) {
  char buf[32];
  const auto [end, ec] =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 9);
  ZH_ASSERT(ec == std::errc(), "double did not fit a 32-byte buffer");
  out.append(buf, end);
}

bool name_start_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_' ||
         c == ':';
}

bool name_char(char c) { return name_start_char(c) || (c >= '0' && c <= '9'); }

bool valid_metric_name(const std::string& name) {
  if (name.empty() || !name_start_char(name[0])) return false;
  for (std::size_t i = 1; i < name.size(); ++i) {
    if (!name_char(name[i])) return false;
  }
  return true;
}

// Registry names are dotted lowercase; anything outside the Prometheus
// alphabet maps to '_'.
std::string sanitize(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (char c : name) out += name_char(c) ? c : '_';
  return out;
}

std::string escape_help(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    if (c == '\\') {
      out += "\\\\";
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out;
}

void append_header(std::string& out, const std::string& family,
                   const std::string& help, const char* type) {
  out += "# HELP ";
  out += family;
  out += " ";
  out += escape_help(help);
  out += "\n# TYPE ";
  out += family;
  out += " ";
  out += type;
  out += "\n";
}

std::string window_label(double window_seconds) {
  std::string out = "window=\"";
  out += std::to_string(static_cast<long long>(window_seconds));
  out += "s\"";
  return out;
}

void append_quantile_line(std::string& out, const std::string& family,
                          const std::string& extra_label, double q,
                          double value) {
  out += family;
  out += "{";
  if (!extra_label.empty()) {
    out += extra_label;
    out += ",";
  }
  out += "quantile=\"";
  append_double(out, q);
  out += "\"} ";
  append_double(out, value);
  out += "\n";
}

}  // namespace

std::string prometheus_family_name(const std::string& name,
                                   MetricKind kind) {
  std::string base = name;
  if (kind == MetricKind::kLatency && base.rfind("latency.", 0) == 0) {
    base = base.substr(sizeof("latency.") - 1);
  }
  std::string out = "zh_" + sanitize(base);
  switch (kind) {
    case MetricKind::kCounter:
      out += "_total";
      break;
    case MetricKind::kGauge:
    case MetricKind::kGaugeSet:
    case MetricKind::kStat:
      break;
    case MetricKind::kLatency:
      out += "_latency_seconds";
      break;
  }
  return out;
}

std::string prometheus_exposition(const std::vector<MetricRecord>& snapshot,
                                  const ExpositionOptions& options) {
  std::string out;
  out.reserve(4096);
  for (const MetricRecord& m : snapshot) {
    const std::string family = prometheus_family_name(m.name, m.kind);
    const std::string help = "zh registry metric " + m.name;
    switch (m.kind) {
      case MetricKind::kCounter:
        append_header(out, family, help, "counter");
        out += family;
        out += " ";
        out += std::to_string(m.value);
        out += "\n";
        break;
      case MetricKind::kGauge:
      case MetricKind::kGaugeSet:
        append_header(out, family, help, "gauge");
        out += family;
        out += " ";
        out += std::to_string(m.value);
        out += "\n";
        break;
      case MetricKind::kStat:
        append_header(out, family, help, "summary");
        out += family;
        out += "_sum ";
        append_double(out, m.sum);
        out += "\n";
        out += family;
        out += "_count ";
        out += std::to_string(m.count);
        out += "\n";
        break;
      case MetricKind::kLatency: {
        append_header(out, family, help, "summary");
        for (double q : kQuantiles) {
          append_quantile_line(out, family, "", q, m.latency.quantile(q));
        }
        out += family;
        out += "_sum ";
        append_double(out, m.sum);
        out += "\n";
        out += family;
        out += "_count ";
        out += std::to_string(m.count);
        out += "\n";
        break;
      }
    }
  }

  if (options.window != nullptr) {
    const std::string wlabel = window_label(options.window_seconds);
    for (const MetricRecord& m : snapshot) {
      if (m.kind == MetricKind::kCounter) {
        const WindowRate r = options.window->rate(
            m.name, options.window_seconds, options.now_seconds);
        if (!r.valid) continue;
        const std::string family = "zh_" + sanitize(m.name) + "_rate";
        append_header(out, family,
                      "per-second rate of " + m.name + " over the window",
                      "gauge");
        out += family;
        out += "{";
        out += wlabel;
        out += "} ";
        append_double(out, r.per_second);
        out += "\n";
      } else if (m.kind == MetricKind::kLatency) {
        const LatencyHistogram delta = options.window->latency_delta(
            m.name, options.window_seconds, options.now_seconds);
        if (delta.empty()) continue;
        const std::string family =
            prometheus_family_name(m.name, m.kind) + "_window";
        append_header(out, family,
                      "windowed quantiles of " + m.name, "gauge");
        for (double q : kQuantiles) {
          append_quantile_line(out, family, wlabel, q, delta.quantile(q));
        }
      }
    }
  }
  return out;
}

namespace {

// One parsed sample line: metric name, raw label block, the rest.
struct SampleLine {
  std::string name;
  std::string labels;  // raw text between {} (empty when no labels)
  std::string value;
  bool ok = false;
  std::string why;
};

SampleLine parse_sample(const std::string& line) {
  SampleLine s;
  std::size_t i = 0;
  while (i < line.size() && name_char(line[i])) ++i;
  s.name = line.substr(0, i);
  if (s.name.empty()) {
    s.why = "missing metric name";
    return s;
  }
  if (i < line.size() && line[i] == '{') {
    const std::size_t open = i;
    ++i;
    bool closed = false;
    while (i < line.size()) {
      // Label values may contain escaped quotes; skip string bodies.
      if (line[i] == '"') {
        ++i;
        while (i < line.size() && line[i] != '"') {
          if (line[i] == '\\') ++i;
          ++i;
        }
        if (i >= line.size()) break;
      } else if (line[i] == '}') {
        closed = true;
        break;
      }
      ++i;
    }
    if (!closed) {
      s.why = "unterminated label block";
      return s;
    }
    s.labels = line.substr(open + 1, i - open - 1);
    ++i;
  }
  if (i >= line.size() || line[i] != ' ') {
    s.why = "missing value";
    return s;
  }
  ++i;
  const std::size_t vstart = i;
  while (i < line.size() && line[i] != ' ') ++i;
  s.value = line.substr(vstart, i - vstart);
  // Anything after the value must be an integer timestamp.
  if (i < line.size()) {
    ++i;
    const std::string ts = line.substr(i);
    if (ts.empty() ||
        ts.find_first_not_of("-0123456789") != std::string::npos) {
      s.why = "trailing garbage after value";
      return s;
    }
  }
  s.ok = true;
  return s;
}

bool parse_value(const std::string& v) {
  if (v == "+Inf" || v == "-Inf" || v == "NaN" || v == "Inf") return true;
  if (v.empty()) return false;
  double parsed = 0.0;
  const char* begin = v.data();
  const char* end = v.data() + v.size();
  const auto [ptr, ec] = std::from_chars(begin, end, parsed);
  return ec == std::errc() && ptr == end;
}

bool well_formed_labels(const std::string& labels) {
  // name="value"(,name="value")*  with \" \\ \n escapes inside values.
  std::size_t i = 0;
  while (i < labels.size()) {
    const std::size_t start = i;
    while (i < labels.size() && name_char(labels[i])) ++i;
    if (i == start || i >= labels.size() || labels[i] != '=') return false;
    ++i;
    if (i >= labels.size() || labels[i] != '"') return false;
    ++i;
    while (i < labels.size() && labels[i] != '"') {
      if (labels[i] == '\\') ++i;
      ++i;
    }
    if (i >= labels.size()) return false;
    ++i;  // closing quote
    if (i < labels.size()) {
      if (labels[i] != ',') return false;
      ++i;
      if (i >= labels.size()) return false;  // trailing comma
    }
  }
  return true;
}

}  // namespace

std::vector<std::string> lint_exposition(const std::string& text) {
  std::vector<std::string> problems;
  std::map<std::string, std::string> family_type;
  std::set<std::string> family_help;
  std::set<std::string> families_sampled;
  std::set<std::string> series_seen;
  static const char* const kTypes[] = {"counter", "gauge", "histogram",
                                       "summary", "untyped"};

  std::size_t lineno = 0;
  std::size_t pos = 0;
  std::size_t sample_count = 0;
  while (pos <= text.size()) {
    const std::size_t nl = text.find('\n', pos);
    const std::string line = text.substr(
        pos, nl == std::string::npos ? std::string::npos : nl - pos);
    pos = nl == std::string::npos ? text.size() + 1 : nl + 1;
    ++lineno;
    const std::string at = "line " + std::to_string(lineno) + ": ";
    if (line.empty()) continue;
    if (line[0] == '#') {
      // "# HELP name text" / "# TYPE name type" / free-form comment.
      if (line.rfind("# HELP ", 0) == 0) {
        const std::string rest = line.substr(7);
        const std::size_t sp = rest.find(' ');
        const std::string name =
            sp == std::string::npos ? rest : rest.substr(0, sp);
        if (!valid_metric_name(name)) {
          problems.push_back(at + "HELP for invalid name \"" + name + "\"");
        } else if (!family_help.insert(name).second) {
          problems.push_back(at + "duplicate HELP for " + name);
        }
      } else if (line.rfind("# TYPE ", 0) == 0) {
        const std::string rest = line.substr(7);
        const std::size_t sp = rest.find(' ');
        if (sp == std::string::npos) {
          problems.push_back(at + "TYPE line without a type");
          continue;
        }
        const std::string name = rest.substr(0, sp);
        const std::string type = rest.substr(sp + 1);
        bool known = false;
        for (const char* t : kTypes) {
          if (type == t) known = true;
        }
        if (!valid_metric_name(name)) {
          problems.push_back(at + "TYPE for invalid name \"" + name + "\"");
        } else if (!known) {
          problems.push_back(at + "unknown TYPE \"" + type + "\"");
        } else if (family_type.count(name) != 0) {
          problems.push_back(at + "duplicate TYPE for " + name);
        } else if (families_sampled.count(name) != 0) {
          problems.push_back(at + "TYPE for " + name +
                             " appears after its samples");
        } else {
          family_type[name] = type;
        }
      }
      continue;
    }

    const SampleLine s = parse_sample(line);
    if (!s.ok) {
      problems.push_back(at + s.why);
      continue;
    }
    ++sample_count;
    if (!valid_metric_name(s.name)) {
      problems.push_back(at + "invalid metric name \"" + s.name + "\"");
      continue;
    }
    if (!s.labels.empty() && !well_formed_labels(s.labels)) {
      problems.push_back(at + "malformed labels {" + s.labels + "}");
    }
    if (!parse_value(s.value)) {
      problems.push_back(at + "unparsable value \"" + s.value + "\"");
    }

    // Resolve the sample to its family: exact name, or the base name
    // for the _sum/_count/_bucket children of summaries/histograms.
    std::string family;
    if (family_type.count(s.name) != 0) {
      family = s.name;
    } else {
      for (const char* suffix : {"_sum", "_count", "_bucket"}) {
        const std::string sfx = suffix;
        if (s.name.size() > sfx.size() &&
            s.name.compare(s.name.size() - sfx.size(), sfx.size(), sfx) ==
                0) {
          const std::string base =
              s.name.substr(0, s.name.size() - sfx.size());
          const auto it = family_type.find(base);
          if (it != family_type.end() &&
              (it->second == "summary" || it->second == "histogram")) {
            family = base;
            break;
          }
        }
      }
    }
    if (family.empty()) {
      problems.push_back(at + "sample \"" + s.name +
                         "\" has no preceding TYPE line");
    } else {
      families_sampled.insert(family);
      if (family_help.count(family) == 0) {
        problems.push_back(at + "family " + family + " has no HELP line");
        family_help.insert(family);  // report once
      }
    }

    const std::string key = s.name + "{" + s.labels + "}";
    if (!series_seen.insert(key).second) {
      problems.push_back(at + "duplicate series " + key);
    }
  }
  if (sample_count == 0) {
    problems.push_back("no samples in exposition");
  }
  return problems;
}

}  // namespace zh::obs

#include "report.h"

#include <charconv>
#include <cmath>

namespace nokbench {

namespace {

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Shortest text that reads back as exactly `v`; non-finite values,
/// which JSON cannot carry, become null and fail the result check.
std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& m : metrics_) {
    if (m.first == name) {
      m.second = {value, unit};
      return;
    }
  }
  metrics_.push_back({name, {value, unit}});
}

void Report::SetEnv(const std::string& key, const std::string& value) {
  env_[key] = Quote(value);
}

void Report::SetEnv(const std::string& key, double value) {
  env_[key] = Number(value);
}

std::string Report::ToJson() const {
  std::string out = "{\"correct\": ";
  out += failed_ == 0 && attempted_ > 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_);
  out += ", \"failed\": " + std::to_string(failed_);
  out += ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, vu] : metrics_) {
    if (!first) out += ", ";
    first = false;
    out += Quote(name) + ": {\"value\": " + Number(vu.first) +
           ", \"unit\": " + Quote(vu.second) + "}";
  }
  out += "}, \"env\": {";
  first = true;
  for (const auto& [key, value] : env_) {
    if (!first) out += ", ";
    first = false;
    out += Quote(key) + ": " + value;
  }
  out += "}}";
  return out;
}

}  // namespace nokbench

#pragma once

#include <cstdio>
#include <string>
#include <string_view>
#include <vector>

/// \file json.hpp
/// The few JSON encoders the benchmark's result and trace files need.

namespace perfbench {

inline std::string json_str(std::string_view s) {
  std::string out = "\"";
  for (const char c : s) {
    if (static_cast<unsigned char>(c) < 0x20) continue;
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
  return out;
}

/// Full precision: measured values are never rounded.
inline std::string json_num(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// `items` are already-encoded JSON values.
inline std::string json_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    if (i > 0) out += ',';
    out += items[i];
  }
  out += ']';
  return out;
}

inline std::string json_array(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i > 0) out += ',';
    out += json_num(v[i]);
  }
  out += ']';
  return out;
}

/// `members` are (key, already-encoded value) pairs.
template <class Members>
std::string json_object(const Members& members) {
  std::string out = "{";
  bool first = true;
  for (const auto& [key, value] : members) {
    if (!first) out += ", ";
    first = false;
    out += json_str(key);
    out += ": ";
    out += value;
  }
  out += '}';
  return out;
}

}  // namespace perfbench

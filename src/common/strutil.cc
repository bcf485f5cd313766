#include "common/strutil.h"

#include <cstdarg>
#include <cstdio>

namespace tio {

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t pos = s.find(sep, start);
    if (pos == std::string_view::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, pos - start));
    start = pos + 1;
  }
  return out;
}

std::string join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i) out += sep;
    out += parts[i];
  }
  return out;
}

std::string path_join(std::string_view a, std::string_view b) {
  if (a.empty()) return std::string(b);
  if (b.empty()) return std::string(a);
  std::string out(a);
  if (out.back() != '/') out += '/';
  while (!b.empty() && b.front() == '/') b.remove_prefix(1);
  out += b;
  return out;
}

std::string_view path_dirname(std::string_view p) {
  const std::size_t pos = p.rfind('/');
  if (pos == std::string_view::npos) return ".";
  if (pos == 0) return "/";
  return p.substr(0, pos);
}

std::string_view next_path_component(std::string_view p, std::size_t& pos) {
  while (pos < p.size()) {
    while (pos < p.size() && p[pos] == '/') ++pos;
    const std::size_t start = pos;
    while (pos < p.size() && p[pos] != '/') ++pos;
    const std::string_view part = p.substr(start, pos - start);
    if (!part.empty() && part != ".") return part;
  }
  return {};
}

std::string path_normalize(std::string_view p) {
  std::string out = "/";
  std::size_t pos = 0;
  for (auto part = next_path_component(p, pos); !part.empty();
       part = next_path_component(p, pos)) {
    if (out.back() != '/') out += '/';
    out += part;
  }
  return out;
}

std::vector<std::string_view> path_components(std::string_view p) {
  std::vector<std::string_view> out;
  std::size_t pos = 0;
  for (auto part = next_path_component(p, pos); !part.empty();
       part = next_path_component(p, pos)) {
    out.push_back(part);
  }
  return out;
}

std::string format_bytes(std::uint64_t bytes) {
  static constexpr const char* kUnits[] = {"B", "KiB", "MiB", "GiB", "TiB", "PiB"};
  double v = static_cast<double>(bytes);
  int u = 0;
  while (v >= 1024.0 && u < 5) {
    v /= 1024.0;
    ++u;
  }
  return str_printf(u == 0 ? "%.0f %s" : "%.1f %s", v, kUnits[u]);
}

std::string str_printf(const char* fmt, ...) {
  va_list ap;
  va_start(ap, fmt);
  va_list ap2;
  va_copy(ap2, ap);
  const int n = std::vsnprintf(nullptr, 0, fmt, ap);
  va_end(ap);
  std::string out(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
  if (n > 0) std::vsnprintf(out.data(), out.size() + 1, fmt, ap2);
  va_end(ap2);
  return out;
}

}  // namespace tio

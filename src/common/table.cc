#include "common/table.h"

#include <algorithm>
#include <cstdio>

#include "common/strutil.h"

namespace tio {

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) widths[c] = header_[c].size();
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size() && c < widths.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }
  auto emit = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < widths.size(); ++c) {
      const std::string& cell = c < row.size() ? row[c] : std::string();
      os << (c ? "  " : "") << cell << std::string(widths[c] - cell.size(), ' ');
    }
    os << '\n';
  };
  emit(header_);
  std::size_t total = 0;
  for (auto w : widths) total += w + 2;
  os << std::string(total > 2 ? total - 2 : 0, '-') << '\n';
  for (const auto& row : rows_) emit(row);
}

std::string Table::num(double v, int precision) {
  return str_printf("%.*f", precision, v);
}

}  // namespace tio

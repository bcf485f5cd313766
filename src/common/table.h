// Aligned-column table printer used by the figure-reproduction harnesses.
#pragma once

#include <ostream>
#include <string>
#include <vector>

namespace tio {

class Table {
 public:
  explicit Table(std::vector<std::string> header) : header_(std::move(header)) {}

  Table& add_row(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
    return *this;
  }
  void print(std::ostream& os) const;

  // Cell formatting helpers.
  static std::string num(double v, int precision = 2);

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace tio

#include "storage/table.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/status.h"

namespace ddup::storage {

int64_t Table::num_rows() const {
  return columns_.empty() ? 0 : columns_[0].size();
}

void Table::AddColumn(Column column) {
  if (!columns_.empty()) {
    DDUP_CHECK_MSG(column.size() == num_rows(),
                   "column length mismatch when adding '" + column.name() + "'");
  }
  DDUP_CHECK_MSG(ColumnIndex(column.name()) < 0,
                 "duplicate column name '" + column.name() + "'");
  columns_.push_back(std::move(column));
}

const Column& Table::column(int i) const {
  DDUP_CHECK(i >= 0 && i < num_columns());
  return columns_[static_cast<size_t>(i)];
}

Column* Table::mutable_column(int i) {
  DDUP_CHECK(i >= 0 && i < num_columns());
  return &columns_[static_cast<size_t>(i)];
}

const Column& Table::column(const std::string& name) const {
  int i = ColumnIndex(name);
  DDUP_CHECK_MSG(i >= 0, "no column named '" + name + "'");
  return columns_[static_cast<size_t>(i)];
}

int Table::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name() == name) return static_cast<int>(i);
  }
  return -1;
}

std::vector<std::string> Table::ColumnNames() const {
  std::vector<std::string> names;
  names.reserve(columns_.size());
  for (const auto& c : columns_) names.push_back(c.name());
  return names;
}

bool Table::SchemaEquals(const Table& other) const {
  if (num_columns() != other.num_columns()) return false;
  for (int i = 0; i < num_columns(); ++i) {
    if (!columns_[static_cast<size_t>(i)].SchemaEquals(
            other.columns_[static_cast<size_t>(i)])) {
      return false;
    }
  }
  return true;
}

Table Table::TakeRows(const std::vector<int64_t>& rows) const {
  Table out(name_);
  for (const auto& c : columns_) out.AddColumn(c.TakeRows(rows));
  return out;
}

Table Table::Head(int64_t n) const {
  n = std::min(n, num_rows());
  std::vector<int64_t> rows(static_cast<size_t>(n));
  std::iota(rows.begin(), rows.end(), 0);
  return TakeRows(rows);
}

void Table::Append(const Table& other) {
  DDUP_CHECK_MSG(SchemaEquals(other),
                 CheckSchemaCompatible(*this, other).message());
  for (int i = 0; i < num_columns(); ++i) {
    columns_[static_cast<size_t>(i)].Append(other.column(i));
  }
}

namespace {
const char* TypeName(ColumnType type) {
  return type == ColumnType::kNumeric ? "numeric" : "categorical";
}
}  // namespace

Status CheckSchemaCompatible(const Table& expected, const Table& actual) {
  if (expected.num_columns() != actual.num_columns()) {
    return Status::InvalidArgument(
        "schema mismatch: expected " + std::to_string(expected.num_columns()) +
        " column(s), got " + std::to_string(actual.num_columns()));
  }
  for (int i = 0; i < expected.num_columns(); ++i) {
    const Column& want = expected.column(i);
    const Column& got = actual.column(i);
    if (want.name() != got.name()) {
      return Status::InvalidArgument(
          "schema mismatch at column " + std::to_string(i) + ": expected '" +
          want.name() + "', got '" + got.name() + "'");
    }
    if (want.type() != got.type()) {
      return Status::InvalidArgument(
          "schema mismatch at column '" + want.name() + "': expected " +
          TypeName(want.type()) + ", got " + TypeName(got.type()));
    }
    if (!want.is_numeric() && want.dictionary() != got.dictionary()) {
      return Status::InvalidArgument(
          "schema mismatch at column '" + want.name() +
          "': dictionaries differ (" + std::to_string(want.cardinality()) +
          " vs " + std::to_string(got.cardinality()) + " entries)");
    }
  }
  return Status::OK();
}

Status CheckFinite(const Table& table) {
  for (int i = 0; i < table.num_columns(); ++i) {
    const Column& column = table.column(i);
    if (!column.is_numeric()) continue;
    const std::vector<double>& values = column.numeric_values();
    for (size_t row = 0; row < values.size(); ++row) {
      if (!std::isfinite(values[row])) {
        return Status::InvalidArgument(
            "column '" + column.name() + "' row " + std::to_string(row) +
            " holds a non-finite value (" + std::to_string(values[row]) + ")");
      }
    }
  }
  return Status::OK();
}

}  // namespace ddup::storage

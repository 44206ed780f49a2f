#ifndef DDUP_STORAGE_TABLE_H_
#define DDUP_STORAGE_TABLE_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "storage/column.h"

namespace ddup::storage {

// Columnar in-memory relation. All columns have equal length. Tables are
// value types (copyable); the datasets in this repo are small enough that
// copy-on-sample is the simplest correct ownership model.
class Table {
 public:
  Table() = default;
  explicit Table(std::string name) : name_(std::move(name)) {}

  const std::string& name() const { return name_; }
  void set_name(std::string name) { name_ = std::move(name); }

  int num_columns() const { return static_cast<int>(columns_.size()); }
  int64_t num_rows() const;

  // Adds a column; must match the current row count (or be the first column).
  void AddColumn(Column column);

  const Column& column(int i) const;
  Column* mutable_column(int i);
  const Column& column(const std::string& name) const;
  // Index of the named column, or -1.
  int ColumnIndex(const std::string& name) const;
  std::vector<std::string> ColumnNames() const;

  // True iff both tables have the same column schemas in the same order.
  bool SchemaEquals(const Table& other) const;

  // New table containing the given rows (in order, duplicates allowed).
  Table TakeRows(const std::vector<int64_t>& rows) const;
  // First n rows (n clamped to num_rows).
  Table Head(int64_t n) const;
  // Appends all rows of `other`; schemas must match.
  void Append(const Table& other);

 private:
  std::string name_;
  std::vector<Column> columns_;
};

// Diagnostic counterpart of Table::SchemaEquals: OK iff `actual` is
// schema-compatible with `expected`; otherwise an InvalidArgument naming the
// first mismatch (column count, name, type, or dictionary) so ingestion
// surfaces a recoverable error instead of aborting inside Append.
Status CheckSchemaCompatible(const Table& expected, const Table& actual);

// OK iff every numeric value in `table` is finite; otherwise an
// InvalidArgument naming the column and the first NaN/Inf row. Models and
// the detector's statistics assume finite inputs, so ingestion boundaries
// refuse such rows before they reach a model.
Status CheckFinite(const Table& table);

}  // namespace ddup::storage

#endif  // DDUP_STORAGE_TABLE_H_

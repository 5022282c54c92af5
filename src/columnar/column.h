// Typed column storage: the columnar counterpart of a Row's cell. Values
// live in contiguous typed vectors with a separate validity vector, so
// scans touch raw int64/double arrays instead of boxed Values.

#ifndef SKALLA_COLUMNAR_COLUMN_H_
#define SKALLA_COLUMNAR_COLUMN_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "types/value.h"

namespace skalla {

/// One typed column. The declared type fixes which typed vector backs
/// the column; NULLs are tracked in the validity vector.
class Column {
 public:
  explicit Column(ValueType type) : type_(type) {}

  ValueType type() const { return type_; }
  size_t size() const { return valid_.size(); }

  /// Appends a cell. The value must be NULL or match the column type
  /// (INT64 accepts integral FLOAT64 per the engine's numeric
  /// compatibility and vice versa).
  Status Append(const Value& v);

  /// Typed appends with Append's acceptance rules and Status codes,
  /// without boxing the cell into a Value first: NULL goes to any
  /// column, INT64 to INT64 or FLOAT64, an integral FLOAT64 to INT64,
  /// STRING only to STRING.
  void AppendNull();
  Status AppendInt64(int64_t v);
  Status AppendFloat64(double v);
  Status AppendString(std::string_view v);

  bool IsNull(size_t i) const { return valid_[i] == 0; }

  /// Typed accessors; only meaningful when !IsNull(i) and the type
  /// matches.
  int64_t Int64At(size_t i) const { return ints_[i]; }
  double Float64At(size_t i) const { return doubles_[i]; }
  const std::string& StringAt(size_t i) const { return strings_[i]; }

  /// Boxes cell i back into a Value.
  Value GetValue(size_t i) const;

  /// Hash of cell i, consistent with Value::Hash of the boxed value.
  uint64_t HashAt(size_t i) const;

  /// GetValue(i).Equals(v) without boxing cell i: NULL equals only NULL,
  /// INT64 and FLOAT64 compare numerically across types, NaN equals
  /// nothing, and a STRING equals only an equal STRING.
  bool EqualsAt(size_t i, const Value& v) const;

  void Reserve(size_t n);

 private:
  ValueType type_;
  std::vector<uint8_t> valid_;
  std::vector<int64_t> ints_;
  std::vector<double> doubles_;
  std::vector<std::string> strings_;
};

}  // namespace skalla

#endif  // SKALLA_COLUMNAR_COLUMN_H_

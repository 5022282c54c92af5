#include "columnar/column.h"

#include <cmath>

#include "common/hash.h"
#include "common/string_util.h"

namespace skalla {

namespace {

// The Status Append returns for a non-NULL value the column's declared
// type cannot hold.
Status Mismatch(ValueType column_type, const Value& v) {
  if (column_type == ValueType::kNull) {
    return Status::TypeError("cannot store values in an untyped column");
  }
  const char* column_name = column_type == ValueType::kInt64     ? "an INT64"
                            : column_type == ValueType::kFloat64 ? "a FLOAT64"
                                                                 : "a STRING";
  return Status::TypeError(
      StrCat("cannot store ", v.ToString(), " in ", column_name, " column"));
}

}  // namespace

Status Column::Append(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      AppendNull();
      return Status::OK();
    case ValueType::kInt64:
      return AppendInt64(v.int64());
    case ValueType::kFloat64:
      return AppendFloat64(v.float64());
    case ValueType::kString:
      return AppendString(v.str());
  }
  return Status::Internal("unknown value type");
}

void Column::AppendNull() {
  valid_.push_back(0);
  switch (type_) {
    case ValueType::kInt64:
      ints_.push_back(0);
      break;
    case ValueType::kFloat64:
      doubles_.push_back(0.0);
      break;
    case ValueType::kString:
      strings_.emplace_back();
      break;
    default:
      break;
  }
}

Status Column::AppendInt64(int64_t v) {
  switch (type_) {
    case ValueType::kInt64:
      ints_.push_back(v);
      break;
    case ValueType::kFloat64:
      doubles_.push_back(static_cast<double>(v));
      break;
    default:
      return Mismatch(type_, Value(v));
  }
  valid_.push_back(1);
  return Status::OK();
}

Status Column::AppendFloat64(double v) {
  switch (type_) {
    case ValueType::kInt64:
      // Only integral doubles may enter an INT64 column: silent
      // truncation would diverge from the row engine's semantics. The
      // range test (false for NaN) keeps the cast defined.
      if (!(v >= -0x1p63 && v < 0x1p63) ||
          static_cast<double>(static_cast<int64_t>(v)) != v) {
        return Status::TypeError(
            StrCat("non-integral value ", Value(v).ToString(),
                   " cannot be stored in an INT64 column"));
      }
      ints_.push_back(static_cast<int64_t>(v));
      break;
    case ValueType::kFloat64:
      doubles_.push_back(v);
      break;
    default:
      return Mismatch(type_, Value(v));
  }
  valid_.push_back(1);
  return Status::OK();
}

Status Column::AppendString(std::string_view v) {
  if (type_ != ValueType::kString) {
    return Mismatch(type_, Value(std::string(v)));
  }
  strings_.emplace_back(v);
  valid_.push_back(1);
  return Status::OK();
}

Value Column::GetValue(size_t i) const {
  if (IsNull(i)) return Value::Null();
  switch (type_) {
    case ValueType::kInt64:
      return Value(ints_[i]);
    case ValueType::kFloat64:
      return Value(doubles_[i]);
    case ValueType::kString:
      return Value(strings_[i]);
    default:
      return Value::Null();
  }
}

uint64_t Column::HashAt(size_t i) const {
  if (IsNull(i)) return 0x6b7bull;  // Matches Value::Hash for NULL.
  switch (type_) {
    case ValueType::kInt64:
      return Mix64(static_cast<uint64_t>(ints_[i]));
    case ValueType::kFloat64: {
      double d = doubles_[i];
      if (d >= -9.2e18 && d <= 9.2e18 && d == std::floor(d)) {
        return Mix64(static_cast<uint64_t>(static_cast<int64_t>(d)));
      }
      uint64_t bits;
      __builtin_memcpy(&bits, &d, sizeof(bits));
      return Mix64(bits);
    }
    case ValueType::kString:
      return HashString(strings_[i]);
    default:
      return 0;
  }
}

bool Column::EqualsAt(size_t i, const Value& v) const {
  if (IsNull(i) || v.is_null()) return IsNull(i) && v.is_null();
  switch (type_) {
    case ValueType::kInt64:
      if (v.is_int64()) return ints_[i] == v.int64();
      return v.is_float64() && static_cast<double>(ints_[i]) == v.float64();
    case ValueType::kFloat64:
      return v.is_numeric() && doubles_[i] == v.AsDouble();
    case ValueType::kString:
      return v.is_string() && strings_[i] == v.str();
    default:
      return false;
  }
}

void Column::Reserve(size_t n) {
  valid_.reserve(n);
  switch (type_) {
    case ValueType::kInt64:
      ints_.reserve(n);
      break;
    case ValueType::kFloat64:
      doubles_.reserve(n);
      break;
    case ValueType::kString:
      strings_.reserve(n);
      break;
    default:
      break;
  }
}

}  // namespace skalla

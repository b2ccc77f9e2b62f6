#include "mpros/db/value.hpp"

#include <cstdio>

#include "mpros/common/assert.hpp"

namespace mpros::db {

std::int64_t Value::as_integer() const {
  MPROS_EXPECTS(std::holds_alternative<std::int64_t>(v_));
  return std::get<std::int64_t>(v_);
}

double Value::as_real() const {
  MPROS_EXPECTS(std::holds_alternative<double>(v_));
  return std::get<double>(v_);
}

const std::string& Value::as_text() const {
  MPROS_EXPECTS(std::holds_alternative<std::string>(v_));
  return std::get<std::string>(v_);
}

double Value::numeric() const {
  if (std::holds_alternative<std::int64_t>(v_)) {
    return static_cast<double>(std::get<std::int64_t>(v_));
  }
  MPROS_EXPECTS(std::holds_alternative<double>(v_));
  return std::get<double>(v_);
}

std::string Value::to_string() const {
  switch (type()) {
    case ValueType::Null: return "NULL";
    case ValueType::Integer: return std::to_string(as_integer());
    case ValueType::Real: {
      char buf[32];
      std::snprintf(buf, sizeof buf, "%g", as_real());
      return buf;
    }
    case ValueType::Text: return as_text();
  }
  return "?";
}

const char* to_string(ValueType t) {
  switch (t) {
    case ValueType::Null: return "NULL";
    case ValueType::Integer: return "INTEGER";
    case ValueType::Real: return "REAL";
    case ValueType::Text: return "TEXT";
  }
  return "?";
}

}  // namespace mpros::db

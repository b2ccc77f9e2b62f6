#include "mpros/db/value.hpp"

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

}  // namespace mpros::db

#pragma once
// Typed cell values for the embedded relational store.
//
// Stands in for the paper's "commercially available", "ODBC compliant"
// database inside the Data Concentrator (§5.8) and for the ADO-backed
// persistence of the OOSM (§4.6).

#include <cstdint>
#include <string>
#include <variant>

namespace mpros::db {

enum class ValueType { Null, Integer, Real, Text };

class Value {
 public:
  Value() = default;  // null
  Value(std::int64_t v) : v_(v) {}           // NOLINT(google-explicit-constructor)
  Value(double v) : v_(v) {}                 // NOLINT(google-explicit-constructor)
  Value(std::string v) : v_(std::move(v)) {} // NOLINT(google-explicit-constructor)
  Value(const char* v) : v_(std::string(v)) {} // NOLINT(google-explicit-constructor)

  [[nodiscard]] ValueType type() const {
    switch (v_.index()) {
      case 0: return ValueType::Null;
      case 1: return ValueType::Integer;
      case 2: return ValueType::Real;
      default: return ValueType::Text;
    }
  }

  [[nodiscard]] bool is_null() const { return type() == ValueType::Null; }

  /// Accessors abort on type mismatch (callers check type() or own the
  /// schema and therefore know the type).
  [[nodiscard]] std::int64_t as_integer() const;
  [[nodiscard]] double as_real() const;
  [[nodiscard]] const std::string& as_text() const;

  /// Numeric coercion: Integer or Real as double; aborts otherwise.
  [[nodiscard]] double numeric() const;

  friend bool operator==(const Value&, const Value&) = default;

 private:
  std::variant<std::monostate, std::int64_t, double, std::string> v_;
};

}  // namespace mpros::db

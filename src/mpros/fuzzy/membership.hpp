#pragma once
// Membership functions and linguistic variables.
//
// Substrate for the Georgia Tech fuzzy-logic diagnostics (paper §1.1 item 4):
// conclusions drawn from non-vibrational data (temperatures, pressures,
// superheat) through Mamdani inference.

#include <algorithm>
#include <cstddef>
#include <string>
#include <variant>
#include <vector>

namespace mpros::fuzzy {

/// Triangular MF: rises a->b, falls b->c. a==b or b==c give shoulders.
struct Triangular {
  double a, b, c;
};

/// Trapezoidal MF: rises a->b, flat b->c, falls c->d.
struct Trapezoidal {
  double a, b, c, d;
};

/// Gaussian MF centered at mean with width sigma.
struct Gaussian {
  double mean, sigma;
};

class MembershipFunction {
 public:
  MembershipFunction(Triangular t) : f_(t) {}    // NOLINT
  MembershipFunction(Trapezoidal t) : f_(t) {}   // NOLINT
  MembershipFunction(Gaussian g) : f_(g) {}      // NOLINT

  /// Degree of membership in [0,1].
  [[nodiscard]] double grade(double x) const;

 private:
  std::variant<Triangular, Trapezoidal, Gaussian> f_;
};

/// A named term within a linguistic variable ("low", "normal", "high").
struct Term {
  std::string name;
  MembershipFunction mf;
};

/// A linguistic variable over a crisp universe of discourse.
class LinguisticVariable {
 public:
  LinguisticVariable(std::string name, double min, double max);

  LinguisticVariable& add_term(std::string term_name, MembershipFunction mf);

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] double min() const { return min_; }
  [[nodiscard]] double max() const { return max_; }
  [[nodiscard]] const std::vector<Term>& terms() const { return terms_; }

  /// Membership of x in the named term; aborts if the term is unknown.
  [[nodiscard]] double grade(const std::string& term_name, double x) const;
  /// Membership of x in terms()[index], clamped into the universe first
  /// like the by-name grade().
  [[nodiscard]] double grade_term(std::size_t index, double x) const {
    return terms_[index].mf.grade(std::clamp(x, min_, max_));
  }
  /// Index of the named term in terms(); aborts if the term is unknown.
  [[nodiscard]] std::size_t term_index(const std::string& term_name) const;

  [[nodiscard]] bool has_term(const std::string& term_name) const;

 private:
  std::string name_;
  double min_, max_;
  std::vector<Term> terms_;
};

/// Convenience: build a 3-term low/normal/high variable with trapezoidal
/// shoulders meeting at `lo_edge` and `hi_edge` (membership overlaps by
/// `overlap` fraction of each edge gap).
[[nodiscard]] LinguisticVariable make_low_normal_high(
    std::string name, double min, double lo_edge, double hi_edge, double max,
    double overlap = 0.25);

}  // namespace mpros::fuzzy

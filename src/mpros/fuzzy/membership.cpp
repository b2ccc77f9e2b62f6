#include "mpros/fuzzy/membership.hpp"

#include <algorithm>
#include <cmath>

#include "mpros/common/assert.hpp"

namespace mpros::fuzzy {
namespace {

double grade_triangular(const Triangular& t, double x) {
  if (x <= t.a || x >= t.c) {
    // Shoulders: a==b makes a left shoulder (full membership below b).
    if (t.a == t.b && x <= t.b) return 1.0;
    if (t.b == t.c && x >= t.b) return 1.0;
    return 0.0;
  }
  if (x == t.b) return 1.0;
  if (x < t.b) return (x - t.a) / (t.b - t.a);
  return (t.c - x) / (t.c - t.b);
}

double grade_trapezoidal(const Trapezoidal& t, double x) {
  if (x < t.a) return t.a == t.b ? 1.0 : 0.0;
  if (x > t.d) return t.c == t.d ? 1.0 : 0.0;
  if (x >= t.b && x <= t.c) return 1.0;
  if (x < t.b) return (x - t.a) / (t.b - t.a);
  return (t.d - x) / (t.d - t.c);
}

double grade_gaussian(const Gaussian& g, double x) {
  const double z = (x - g.mean) / g.sigma;
  return std::exp(-0.5 * z * z);
}

}  // namespace

double MembershipFunction::grade(double x) const {
  return std::visit(
      [x](const auto& f) -> double {
        using T = std::decay_t<decltype(f)>;
        if constexpr (std::is_same_v<T, Triangular>) {
          return grade_triangular(f, x);
        } else if constexpr (std::is_same_v<T, Trapezoidal>) {
          return grade_trapezoidal(f, x);
        } else {
          return grade_gaussian(f, x);
        }
      },
      f_);
}

LinguisticVariable::LinguisticVariable(std::string name, double min,
                                       double max)
    : name_(std::move(name)), min_(min), max_(max) {
  MPROS_EXPECTS(max > min);
}

LinguisticVariable& LinguisticVariable::add_term(std::string term_name,
                                                 MembershipFunction mf) {
  MPROS_EXPECTS(!has_term(term_name));
  terms_.push_back(Term{std::move(term_name), mf});
  return *this;
}

double LinguisticVariable::grade(const std::string& term_name,
                                 double x) const {
  return grade_term(term_index(term_name), x);
}

std::size_t LinguisticVariable::term_index(
    const std::string& term_name) const {
  for (std::size_t i = 0; i < terms_.size(); ++i) {
    if (terms_[i].name == term_name) return i;
  }
  MPROS_EXPECTS(false && "unknown fuzzy term");
  return 0;  // unreachable
}

bool LinguisticVariable::has_term(const std::string& term_name) const {
  for (const Term& t : terms_) {
    if (t.name == term_name) return true;
  }
  return false;
}

LinguisticVariable make_low_normal_high(std::string name, double min,
                                        double lo_edge, double hi_edge,
                                        double max, double overlap) {
  MPROS_EXPECTS(min < lo_edge && lo_edge < hi_edge && hi_edge < max);
  // Overlap spans follow the *narrowest* adjacent band so that a wide outer
  // range (e.g. a bearing-temperature universe reaching far above alarm
  // levels) cannot smear "high" membership down into the normal band.
  const double mid = hi_edge - lo_edge;
  const double lo_span = overlap * std::min(lo_edge - min, mid);
  const double hi_span = overlap * std::min(max - hi_edge, mid);

  LinguisticVariable v(std::move(name), min, max);
  v.add_term("low", Trapezoidal{min, min, lo_edge - lo_span,
                                lo_edge + lo_span});
  v.add_term("normal", Trapezoidal{lo_edge - lo_span, lo_edge + lo_span,
                                   hi_edge - hi_span, hi_edge + hi_span});
  v.add_term("high", Trapezoidal{hi_edge - hi_span, hi_edge + hi_span, max,
                                 max});
  return v;
}

}  // namespace mpros::fuzzy

#include "mpros/fuzzy/engine.hpp"

#include <algorithm>

#include "mpros/common/assert.hpp"

namespace mpros::fuzzy {

MamdaniEngine::MamdaniEngine(std::vector<LinguisticVariable> inputs,
                             LinguisticVariable output)
    : inputs_(std::move(inputs)), output_(std::move(output)) {
  MPROS_EXPECTS(!inputs_.empty());
  MPROS_EXPECTS(!output_.terms().empty());
}

MamdaniEngine& MamdaniEngine::add_rule(FuzzyRule rule) {
  MPROS_EXPECTS(!rule.antecedents.empty());
  MPROS_EXPECTS(output_.has_term(rule.output_term));
  MPROS_EXPECTS(rule.weight > 0.0 && rule.weight <= 1.0);
  BoundRule bound;
  bound.output_term = output_.term_index(rule.output_term);
  bound.weight = rule.weight;
  for (const Antecedent& a : rule.antecedents) {
    const std::size_t v = input_index(a.variable);
    MPROS_EXPECTS(inputs_[v].has_term(a.term));
    bound.antecedents.push_back({v, inputs_[v].term_index(a.term), a.negated});
  }
  rules_.push_back(std::move(bound));
  return *this;
}

std::size_t MamdaniEngine::input_index(const std::string& name) const {
  for (std::size_t i = 0; i < inputs_.size(); ++i) {
    if (inputs_[i].name() == name) return i;
  }
  MPROS_EXPECTS(false && "unknown fuzzy input variable");
  return 0;  // unreachable
}

bool MamdaniEngine::has_inputs(const CrispInputs& inputs) const {
  for (const BoundRule& rule : rules_) {
    for (const BoundAntecedent& a : rule.antecedents) {
      if (!inputs.contains(inputs_[a.variable].name())) return false;
    }
  }
  return true;
}

std::vector<double> MamdaniEngine::firing_strengths(
    const CrispInputs& inputs) const {
  std::vector<double> strengths;
  strengths.reserve(rules_.size());

  for (const BoundRule& rule : rules_) {
    double strength = 1.0;
    for (const BoundAntecedent& a : rule.antecedents) {
      const LinguisticVariable& var = inputs_[a.variable];
      const auto it = inputs.find(var.name());
      MPROS_EXPECTS(it != inputs.end());
      double g = var.grade_term(a.term, it->second);
      if (a.negated) g = 1.0 - g;
      strength = std::min(strength, g);
    }
    strengths.push_back(strength * rule.weight);
  }
  return strengths;
}

double MamdaniEngine::infer(const CrispInputs& inputs, Defuzzifier d) const {
  const std::vector<double> strengths = firing_strengths(inputs);

  // Aggregate the clipped consequents over a sampled output universe.
  const double lo = output_.min();
  const double hi = output_.max();
  const double step = (hi - lo) / static_cast<double>(kSamples - 1);

  double weighted_area = 0.0;
  double area = 0.0;
  double best_membership = 0.0;
  double mom_sum = 0.0;
  std::size_t mom_count = 0;

  for (std::size_t i = 0; i < kSamples; ++i) {
    const double y = lo + static_cast<double>(i) * step;
    double mu = 0.0;
    for (std::size_t r = 0; r < rules_.size(); ++r) {
      if (strengths[r] <= 0.0) continue;
      const double clipped = std::min(
          strengths[r], output_.grade_term(rules_[r].output_term, y));
      mu = std::max(mu, clipped);
    }
    weighted_area += mu * y;
    area += mu;
    if (mu > best_membership + 1e-12) {
      best_membership = mu;
      mom_sum = y;
      mom_count = 1;
    } else if (std::abs(mu - best_membership) <= 1e-12 &&
               best_membership > 0.0) {
      mom_sum += y;
      ++mom_count;
    }
  }

  if (area <= 0.0) return lo;  // nothing fired
  switch (d) {
    case Defuzzifier::Centroid:
      return weighted_area / area;
    case Defuzzifier::MeanOfMaximum:
      return mom_count > 0 ? mom_sum / static_cast<double>(mom_count) : lo;
  }
  return lo;
}

}  // namespace mpros::fuzzy

#include "mpros/fuzzy/engine.hpp"

#include <algorithm>
#include <array>
#include <optional>

#include "mpros/common/assert.hpp"

namespace mpros::fuzzy {

MamdaniEngine::MamdaniEngine(std::vector<LinguisticVariable> inputs,
                             LinguisticVariable output)
    : inputs_(std::move(inputs)), output_(std::move(output)) {
  MPROS_EXPECTS(!inputs_.empty());
  MPROS_EXPECTS(!output_.terms().empty());
  for (const LinguisticVariable& var : inputs_) {
    const std::optional<domain::Channel> c = domain::channel_named(var.name());
    MPROS_EXPECTS(c.has_value() && domain::is_process(*c));
    channels_.push_back(*c);
  }
}

MamdaniEngine& MamdaniEngine::add_rule(FuzzyRule rule) {
  MPROS_EXPECTS(!rule.antecedents.empty());
  MPROS_EXPECTS(output_.has_term(rule.output_term));
  MPROS_EXPECTS(rule.weight > 0.0 && rule.weight <= 1.0);
  MPROS_EXPECTS(rules_.size() < kMaxRules);
  BoundRule bound;
  bound.output_term = output_.term_index(rule.output_term);
  bound.weight = rule.weight;
  for (const Antecedent& a : rule.antecedents) {
    const std::size_t v = input_index(a.variable);
    MPROS_EXPECTS(inputs_[v].has_term(a.term));
    bound.antecedents.push_back({v, inputs_[v].term_index(a.term), a.negated});
    required_ |= domain::ProcessValues::bit(channels_[v]);
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

void MamdaniEngine::firing_strengths(const domain::ProcessValues& inputs,
                                     std::span<double> out) const {
  MPROS_EXPECTS(out.size() >= rules_.size());
  for (std::size_t r = 0; r < rules_.size(); ++r) {
    double strength = 1.0;
    for (const BoundAntecedent& a : rules_[r].antecedents) {
      const double x = inputs[channels_[a.variable]];
      double g = inputs_[a.variable].grade_term(a.term, x);
      if (a.negated) g = 1.0 - g;
      strength = std::min(strength, g);
    }
    out[r] = strength * rules_[r].weight;
  }
}

double MamdaniEngine::infer(const domain::ProcessValues& inputs,
                            Defuzzifier d) const {
  std::array<double, kMaxRules> strengths{};
  firing_strengths(inputs, strengths);

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

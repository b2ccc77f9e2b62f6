#pragma once
// Mamdani fuzzy inference.
//
// Rules are "IF x1 is T1 AND x2 is T2 ... THEN y is Ty" with min-AND firing
// strength, clip (min) implication, max aggregation, and centroid or
// mean-of-maximum defuzzification over a sampled output universe.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "mpros/domain/channels.hpp"
#include "mpros/fuzzy/membership.hpp"

namespace mpros::fuzzy {

struct Antecedent {
  std::string variable;
  std::string term;
  bool negated = false;  ///< "IF x is NOT T"
};

struct FuzzyRule {
  std::vector<Antecedent> antecedents;  // AND-combined (min)
  std::string output_term;
  double weight = 1.0;
};

enum class Defuzzifier { Centroid, MeanOfMaximum };

class MamdaniEngine {
 public:
  /// Each input variable is named for a process channel (domain/channels.hpp)
  /// and reads that channel's value. `output` is the consequent variable
  /// shared by all rules.
  MamdaniEngine(std::vector<LinguisticVariable> inputs,
                LinguisticVariable output);

  /// At most kMaxRules rules, so inference keeps its firing strengths on
  /// the stack.
  MamdaniEngine& add_rule(FuzzyRule rule);

  /// True when `inputs` holds every variable some rule reads.
  [[nodiscard]] bool has_inputs(const domain::ProcessValues& inputs) const {
    return inputs.has_all(required_);
  }

  /// Run inference. Missing inputs abort (the caller owns the sensor list;
  /// has_inputs() checks it). Inputs no rule reads are ignored.
  /// Returns the defuzzified crisp output; if no rule fires at all, returns
  /// the output universe minimum.
  [[nodiscard]] double infer(const domain::ProcessValues& inputs,
                             Defuzzifier d = Defuzzifier::Centroid) const;

  /// Firing strength of each rule for the given inputs, in rule order into
  /// the first rule-count entries of `out`.
  void firing_strengths(const domain::ProcessValues& inputs,
                        std::span<double> out) const;

  static constexpr std::size_t kMaxRules = 16;

 private:
  /// An accepted rule with every name resolved to an index by add_rule(),
  /// so inference looks nothing up by string.
  struct BoundAntecedent {
    std::size_t variable = 0;  ///< into inputs_ and channels_
    std::size_t term = 0;      ///< into that variable's terms()
    bool negated = false;
  };
  struct BoundRule {
    std::vector<BoundAntecedent> antecedents;
    std::size_t output_term = 0;  ///< into output_.terms()
    double weight = 1.0;
  };

  [[nodiscard]] std::size_t input_index(const std::string& name) const;

  std::vector<LinguisticVariable> inputs_;
  std::vector<domain::Channel> channels_;  ///< the channel each input reads
  LinguisticVariable output_;
  std::vector<BoundRule> rules_;
  std::uint16_t required_ = 0;  ///< ProcessValues::bit() of every read

  static constexpr std::size_t kSamples = 201;
};

}  // namespace mpros::fuzzy

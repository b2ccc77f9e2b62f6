#include "mpros/fuzzy/chiller_fuzzy.hpp"

#include <algorithm>

#include "mpros/rules/features.hpp"

namespace mpros::fuzzy {

using domain::FailureMode;
using rules::feat::kBearingTemp;
using rules::feat::kCondApproach;
using rules::feat::kCondPressure;
using rules::feat::kChwSupplyTemp;
using rules::feat::kEvapPressure;
using rules::feat::kLoad;
using rules::feat::kMotorCurrent;
using rules::feat::kOilPressure;
using rules::feat::kOilTemp;
using rules::feat::kSuperheat;
using rules::feat::kWindingTemp;

namespace {

/// Shared 0..1 severity output variable with four terms.
LinguisticVariable severity_output() {
  LinguisticVariable out("severity", 0.0, 1.0);
  out.add_term("none", Trapezoidal{0.0, 0.0, 0.05, 0.20});
  out.add_term("slight", Triangular{0.10, 0.30, 0.50});
  out.add_term("serious", Triangular{0.40, 0.62, 0.85});
  out.add_term("extreme", Trapezoidal{0.75, 0.90, 1.0, 1.0});
  return out;
}

}  // namespace

FuzzyDiagnoser::FuzzyDiagnoser(const domain::ProcessNominals& nom) {
  // --- Oil degradation ------------------------------------------------
  {
    std::vector<LinguisticVariable> in;
    in.push_back(make_low_normal_high(kOilTemp, 20.0,
                                      nom.oil_temperature_c - 8.0,
                                      nom.oil_temperature_c + 10.0, 110.0));
    in.push_back(make_low_normal_high(kOilPressure, 80.0,
                                      nom.oil_pressure_kpa - 60.0,
                                      nom.oil_pressure_kpa + 60.0, 450.0));
    in.push_back(make_low_normal_high(kBearingTemp, 20.0,
                                      nom.bearing_temp_c - 8.0,
                                      nom.bearing_temp_c + 8.0, 120.0));
    MamdaniEngine e(std::move(in), severity_output());
    e.add_rule({{{kOilTemp, "high"}, {kOilPressure, "low"}}, "extreme"});
    e.add_rule({{{kOilTemp, "high"}, {kOilPressure, "normal"}}, "serious"});
    e.add_rule({{{kOilTemp, "high"}, {kBearingTemp, "high"}}, "serious"});
    e.add_rule({{{kOilPressure, "low"}}, "slight", 0.8});
    e.add_rule({{{kOilTemp, "high"}}, "slight", 0.8});
    e.add_rule({{{kOilTemp, "normal"}, {kOilPressure, "normal"}}, "none"});
    engines_.push_back({FailureMode::OilDegradation, std::move(e),
                        "Replace oil charge and filter; sample for analysis."});
  }

  // --- Refrigerant leak / undercharge ----------------------------------
  {
    std::vector<LinguisticVariable> in;
    in.push_back(make_low_normal_high(kEvapPressure, 200.0,
                                      nom.evap_pressure_kpa - 45.0,
                                      nom.evap_pressure_kpa + 45.0, 520.0));
    in.push_back(make_low_normal_high(kSuperheat, 0.0, nom.superheat_c - 2.0,
                                      nom.superheat_c + 3.5, 25.0));
    in.push_back(make_low_normal_high(kChwSupplyTemp, 2.0,
                                      nom.chilled_water_supply_c - 1.5,
                                      nom.chilled_water_supply_c + 2.0, 18.0));
    MamdaniEngine e(std::move(in), severity_output());
    e.add_rule({{{kEvapPressure, "low"}, {kSuperheat, "high"},
                 {kChwSupplyTemp, "high"}},
                "extreme"});
    e.add_rule({{{kEvapPressure, "low"}, {kSuperheat, "high"}}, "serious"});
    e.add_rule({{{kEvapPressure, "low"}}, "slight", 0.9});
    e.add_rule({{{kSuperheat, "high"}}, "slight", 0.7});
    e.add_rule({{{kEvapPressure, "normal"}, {kSuperheat, "normal"}}, "none"});
    engines_.push_back({FailureMode::RefrigerantLeak, std::move(e),
                        "Leak-test charge circuit; weigh in refrigerant."});
  }

  // --- Condenser fouling -----------------------------------------------
  {
    std::vector<LinguisticVariable> in;
    in.push_back(make_low_normal_high(kCondPressure, 700.0,
                                      nom.cond_pressure_kpa - 110.0,
                                      nom.cond_pressure_kpa + 110.0, 1600.0));
    in.push_back(make_low_normal_high(kCondApproach, 0.0, 3.0, 7.0, 20.0));
    in.push_back(make_low_normal_high(kMotorCurrent, 60.0,
                                      nom.motor_current_a * 0.9,
                                      nom.motor_current_a * 1.06, 280.0));
    MamdaniEngine e(std::move(in), severity_output());
    e.add_rule({{{kCondPressure, "high"}, {kCondApproach, "high"}}, "extreme"});
    e.add_rule({{{kCondPressure, "high"}, {kMotorCurrent, "high"}}, "serious"});
    e.add_rule({{{kCondApproach, "high"}}, "slight", 0.9});
    e.add_rule({{{kCondPressure, "high"}}, "slight", 0.8});
    e.add_rule(
        {{{kCondPressure, "normal"}, {kCondApproach, "normal"}}, "none"});
    engines_.push_back({FailureMode::CondenserFouling, std::move(e),
                        "Brush condenser tubes; verify water flow."});
  }

  // --- Stator winding fault (thermal/electrical signature) -------------
  {
    std::vector<LinguisticVariable> in;
    in.push_back(make_low_normal_high(kWindingTemp, 30.0,
                                      nom.motor_winding_temp_c - 15.0,
                                      nom.motor_winding_temp_c + 15.0, 180.0));
    in.push_back(make_low_normal_high(kMotorCurrent, 60.0,
                                      nom.motor_current_a * 0.9,
                                      nom.motor_current_a * 1.08, 280.0));
    in.push_back(make_low_normal_high(kLoad, 0.0, 0.3, 0.85, 1.2));
    MamdaniEngine e(std::move(in), severity_output());
    // Hot windings at modest load are the suspicious case; at full load
    // some temperature rise is expected (fuzzy version of rule gating).
    e.add_rule({{{kWindingTemp, "high"}, {kLoad, "normal"}}, "serious"});
    e.add_rule({{{kWindingTemp, "high"}, {kLoad, "low"}}, "extreme"});
    e.add_rule({{{kWindingTemp, "high"}, {kMotorCurrent, "high"},
                 {kLoad, "high"}},
                "slight"});
    e.add_rule({{{kWindingTemp, "high"}, {kLoad, "high"}}, "slight", 0.6});
    e.add_rule({{{kWindingTemp, "normal"}}, "none"});
    engines_.push_back({FailureMode::StatorWindingFault, std::move(e),
                        "Megger stator windings; check phase balance."});
  }

  // --- Pump cavitation (process side: depressed suction) ---------------
  {
    std::vector<LinguisticVariable> in;
    in.push_back(make_low_normal_high(kEvapPressure, 200.0,
                                      nom.evap_pressure_kpa - 45.0,
                                      nom.evap_pressure_kpa + 45.0, 520.0));
    in.push_back(make_low_normal_high(kLoad, 0.0, 0.3, 0.85, 1.2));
    in.push_back(make_low_normal_high(kSuperheat, 0.0, nom.superheat_c - 2.0,
                                      nom.superheat_c + 3.5, 25.0));
    MamdaniEngine e(std::move(in), severity_output());
    // High superheat with low suction pressure points at undercharge, not
    // cavitation (cavitation needs liquid at the eye), so the cavitation
    // rules insist on normal superheat.
    e.add_rule({{{kEvapPressure, "low"}, {kLoad, "high"},
                 {kSuperheat, "normal"}},
                "serious"});
    e.add_rule(
        {{{kEvapPressure, "low"}, {kSuperheat, "normal"}}, "slight", 0.8});
    e.add_rule({{{kEvapPressure, "normal"}}, "none"});
    e.add_rule({{{kSuperheat, "high"}}, "none", 0.8});
    engines_.push_back({FailureMode::PumpCavitation, std::move(e),
                        "Verify suction conditions; vent water boxes."});
  }

  // --- Compressor bearing wear (thermal signature only) -----------------
  {
    std::vector<LinguisticVariable> in;
    in.push_back(make_low_normal_high(kBearingTemp, 20.0,
                                      nom.bearing_temp_c - 8.0,
                                      nom.bearing_temp_c + 8.0, 120.0));
    in.push_back(make_low_normal_high(kOilTemp, 20.0,
                                      nom.oil_temperature_c - 8.0,
                                      nom.oil_temperature_c + 10.0, 110.0));
    in.push_back(make_low_normal_high(kLoad, 0.0, 0.3, 0.85, 1.2));
    MamdaniEngine e(std::move(in), severity_output());
    // Thermal evidence alone cannot say *which* bearing is distressed, so
    // this engine stays deliberately conservative; the vibration expert
    // system owns the strong call via the high-speed-shaft envelope tones.
    e.add_rule({{{kBearingTemp, "high"}, {kLoad, "low"}}, "serious"});
    e.add_rule({{{kBearingTemp, "high"}, {kOilTemp, "normal"}}, "slight"});
    e.add_rule({{{kBearingTemp, "high"}}, "slight", 0.6});
    e.add_rule({{{kBearingTemp, "normal"}}, "none"});
    engines_.push_back({FailureMode::CompressorBearingWear, std::move(e),
                        "Pull oil sample; inspect high-speed bearings."});
  }
}

std::vector<rules::Diagnosis> FuzzyDiagnoser::evaluate(
    const ProcessSnapshot& snapshot,
    const rules::BelievabilityTable& beliefs) const {
  std::vector<rules::Diagnosis> out;
  for (const ModeEngine& me : engines_) {
    // A missing sensor means the engine abstains (fragmentary input, §5.1).
    if (!me.engine.has_inputs(snapshot)) continue;
    const double severity = me.engine.infer(snapshot);
    if (severity < kFireThreshold) continue;

    rules::Diagnosis d;
    d.mode = me.mode;
    d.severity = severity;
    d.gradient = rules::gradient_of(severity);
    d.belief = beliefs.belief(me.mode);
    d.explanation = std::string("fuzzy process-variable inference for ") +
                    domain::condition_text(me.mode);
    d.recommendation = me.recommendation;
    d.prognosis = rules::default_prognosis(severity);
    out.push_back(std::move(d));
  }
  std::sort(out.begin(), out.end(),
            [](const rules::Diagnosis& a, const rules::Diagnosis& b) {
              return a.severity > b.severity;
            });
  return out;
}

double FuzzyDiagnoser::severity(domain::FailureMode mode,
                                const ProcessSnapshot& snapshot) const {
  for (const ModeEngine& me : engines_) {
    if (me.mode == mode) return me.engine.infer(snapshot);
  }
  return 0.0;
}

std::vector<domain::FailureMode> FuzzyDiagnoser::covered_modes() const {
  std::vector<domain::FailureMode> modes;
  modes.reserve(engines_.size());
  for (const ModeEngine& me : engines_) modes.push_back(me.mode);
  return modes;
}

}  // namespace mpros::fuzzy

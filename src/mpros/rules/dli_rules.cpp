#include "mpros/rules/dli_rules.hpp"

namespace mpros::rules {

using domain::FailureMode;

std::vector<Rule> chiller_rulebase(const domain::MachineSignature& /*sig*/,
                                   const domain::ProcessNominals& nom) {
  std::vector<Rule> rules;

  // Rotor imbalance: dominant 1x with quiet 2x; requires meaningful load so
  // coast-down wobble is not misread.
  {
    Rule r;
    r.mode = FailureMode::MotorImbalance;
    r.name = "rotor imbalance";
    r.recommendation = "Field balance the motor rotor at next availability.";
    r.clauses = {
        Clause{feat::kOrder1, 0.12, 0.45, 3.0, true,
               Gate{feat::kLoad, 0.25, 1.1},
               "1x running-speed amplitude elevated"},
        Clause{feat::kOverallRms, 0.10, 0.40, 1.0, false, std::nullopt,
               "overall vibration level raised"},
    };
    rules.push_back(std::move(r));
  }

  // Shaft misalignment: strong 2x (and some 3x) relative to 1x.
  {
    Rule r;
    r.mode = FailureMode::ShaftMisalignment;
    r.name = "coupling misalignment";
    r.recommendation = "Laser-align motor/gearbox coupling; inspect coupling "
                       "element for wear.";
    r.clauses = {
        Clause{feat::kOrder2, 0.08, 0.32, 3.0, true,
               Gate{feat::kLoad, 0.25, 1.1},
               "2x running-speed amplitude elevated"},
        Clause{feat::kOrder3, 0.04, 0.18, 1.0, false, std::nullopt,
               "3x component present"},
    };
    rules.push_back(std::move(r));
  }

  // Mechanical looseness: half-order subharmonics plus a raised full
  // harmonic series. The paper's own example: gate on load so a lightly
  // loaded compressor's natural rattle is not called looseness.
  {
    Rule r;
    r.mode = FailureMode::BearingHousingLooseness;
    r.name = "bearing housing looseness";
    r.recommendation = "Check hold-down bolts and bearing cap torque; inspect "
                       "for fretting at the housing fit.";
    r.clauses = {
        Clause{feat::kSubharmonics, 0.05, 0.25, 3.0, true,
               Gate{feat::kLoad, 0.30, 1.1},
               "half-order subharmonics present"},
        Clause{feat::kHarmonicSeries, 0.18, 0.50, 2.0, false,
               Gate{feat::kLoad, 0.30, 1.1},
               "extended running-speed harmonic series"},
    };
    rules.push_back(std::move(r));
  }

  // Broken/cracked rotor bars: pole-pass sidebands rise toward the line
  // component in the current spectrum. Clause ramps DOWNWARD in dB-below-
  // carrier (deep sidebands are healthy).
  {
    Rule r;
    r.mode = FailureMode::RotorBarDefect;
    r.name = "rotor bar defect";
    r.recommendation = "Schedule a current-signature retest at steady load; "
                       "plan rotor inspection if sidebands deepen.";
    r.clauses = {
        Clause{feat::kPolePassSidebands, 45.0, 25.0, 3.0, true,
               Gate{feat::kLoad, 0.40, 1.1},
               "pole-pass sidebands closing on line component"},
        Clause{feat::kOrder1, 0.10, 0.35, 0.5, false, std::nullopt,
               "slight 1x modulation"},
    };
    rules.push_back(std::move(r));
  }

  // Stator winding fault: 2x-line vibration plus thermal signature.
  {
    Rule r;
    r.mode = FailureMode::StatorWindingFault;
    r.name = "stator winding fault";
    r.recommendation = "Megger the stator windings; check phase balance at "
                       "the motor controller.";
    r.clauses = {
        Clause{feat::kTwiceLine, 0.06, 0.25, 3.0, true, std::nullopt,
               "2x line-frequency vibration elevated"},
        Clause{feat::kWindingTemp, nom.motor_winding_temp_c + 12.0,
               nom.motor_winding_temp_c + 45.0, 2.0, false, std::nullopt,
               "winding temperature above normal"},
        Clause{feat::kMotorCurrent, nom.motor_current_a * 1.06,
               nom.motor_current_a * 1.30, 1.0, false, std::nullopt,
               "supply current elevated"},
    };
    rules.push_back(std::move(r));
  }

  // Motor bearing wear: envelope tones at the motor bearing rates plus
  // impulsiveness in the raw waveform.
  {
    Rule r;
    r.mode = FailureMode::MotorBearingWear;
    r.name = "motor bearing defect";
    r.recommendation = "Trend envelope spectra weekly; plan bearing "
                       "replacement within the predicted window.";
    r.clauses = {
        Clause{feat::kBpfo, 0.03, 0.15, 2.5, false, std::nullopt,
               "outer-race tone in envelope spectrum"},
        Clause{feat::kBpfi, 0.03, 0.15, 2.5, false, std::nullopt,
               "inner-race tone in envelope spectrum"},
        Clause{feat::kKurtosis, 4.0, 8.0, 1.0, false, std::nullopt,
               "impulsive waveform (kurtosis raised)"},
        Clause{feat::kCrestFactor, 4.5, 7.5, 1.0, false, std::nullopt,
               "crest factor raised"},
        Clause{feat::kBearingTemp, nom.bearing_temp_c + 8.0,
               nom.bearing_temp_c + 30.0, 0.5, false, std::nullopt,
               "bearing temperature above normal"},
    };
    rules.push_back(std::move(r));
  }

  // Compressor bearing wear: ball-spin / cage tones dominate (the
  // compressor end runs the high-speed shaft).
  {
    Rule r;
    r.mode = FailureMode::CompressorBearingWear;
    r.name = "compressor bearing defect";
    r.recommendation = "Pull an oil sample for wear metals; plan high-speed "
                       "bearing inspection.";
    r.clauses = {
        // Required: without the ball-spin tone on the high-speed shaft a
        // motor-end bearing defect (high crest, warm bearings) would be
        // misattributed to the compressor.
        Clause{feat::kBsf, 0.03, 0.15, 2.5, true, std::nullopt,
               "ball-spin tone in envelope spectrum"},
        Clause{feat::kFtf, 0.02, 0.10, 1.5, false, std::nullopt,
               "cage tone in envelope spectrum"},
        Clause{feat::kCrestFactor, 4.5, 7.5, 1.0, false, std::nullopt,
               "crest factor raised"},
        Clause{feat::kBearingTemp, nom.bearing_temp_c + 8.0,
               nom.bearing_temp_c + 30.0, 0.5, false, std::nullopt,
               "bearing temperature above normal"},
    };
    rules.push_back(std::move(r));
  }

  // Oil degradation: thermal/pressure signature with mild mechanical
  // consequence; primarily a process-variable call.
  {
    Rule r;
    r.mode = FailureMode::OilDegradation;
    r.name = "lubricating oil degradation";
    r.recommendation = "Replace oil charge and filter; send sample for "
                       "viscosity and acid-number analysis.";
    r.clauses = {
        Clause{feat::kOilTemp, nom.oil_temperature_c + 8.0,
               nom.oil_temperature_c + 25.0, 2.5, true, std::nullopt,
               "oil temperature above normal"},
        // Down-ramp: pressure falling below nominal is the alarm direction.
        Clause{feat::kOilPressure, nom.oil_pressure_kpa - 30.0,
               nom.oil_pressure_kpa - 110.0, 2.0, false, std::nullopt,
               "oil pressure below normal"},
        Clause{feat::kBearingTemp, nom.bearing_temp_c + 5.0,
               nom.bearing_temp_c + 20.0, 1.0, false, std::nullopt,
               "bearing temperature drifting up"},
    };
    rules.push_back(std::move(r));
  }

  // Gear mesh wear: mesh tone plus 1x-shaft sidebands.
  {
    Rule r;
    r.mode = FailureMode::GearMeshWear;
    r.name = "gear mesh wear";
    r.recommendation = "Inspect gear contact pattern and backlash; check oil "
                       "for bronze/steel particulate.";
    r.clauses = {
        Clause{feat::kGearMesh, 0.09, 0.30, 2.5, true,
               Gate{feat::kLoad, 0.25, 1.1},
               "gear-mesh amplitude elevated"},
        Clause{feat::kGearSidebands, 0.03, 0.15, 2.5, false, std::nullopt,
               "running-speed sidebands around mesh tone"},
    };
    rules.push_back(std::move(r));
  }

  // Pump cavitation: broadband high-frequency noise and vane-pass activity
  // with depressed suction (evaporator) pressure.
  {
    Rule r;
    r.mode = FailureMode::PumpCavitation;
    r.name = "pump cavitation";
    r.recommendation = "Verify suction strainer and water-box venting; "
                       "throttle discharge to move off the curve knee.";
    r.clauses = {
        Clause{feat::kBroadbandHf, 0.05, 0.125, 2.5, true, std::nullopt,
               "broadband high-frequency energy raised"},
        Clause{feat::kVanePass, 0.05, 0.20, 1.5, false, std::nullopt,
               "vane-pass amplitude elevated"},
        Clause{feat::kCrestFactor, 4.0, 7.0, 1.0, false, std::nullopt,
               "impulsive noise floor"},
    };
    rules.push_back(std::move(r));
  }

  // Refrigerant leak: falling evaporator pressure, rising superheat, and a
  // chilled-water supply temperature that will not pull down.
  {
    Rule r;
    r.mode = FailureMode::RefrigerantLeak;
    r.name = "refrigerant undercharge / leak";
    r.recommendation = "Leak-test the charge circuit; weigh in refrigerant "
                       "after repair.";
    r.clauses = {
        // Down-ramp on evaporator pressure.
        Clause{feat::kEvapPressure, nom.evap_pressure_kpa - 25.0,
               nom.evap_pressure_kpa - 90.0, 2.5, true, std::nullopt,
               "evaporator pressure below normal"},
        Clause{feat::kSuperheat, nom.superheat_c + 2.5,
               nom.superheat_c + 10.0, 2.0, false, std::nullopt,
               "suction superheat elevated"},
        Clause{feat::kChwSupplyTemp, nom.chilled_water_supply_c + 1.5,
               nom.chilled_water_supply_c + 5.0, 1.0, false, std::nullopt,
               "chilled-water supply temperature not holding"},
    };
    rules.push_back(std::move(r));
  }

  // Condenser fouling: head pressure and condenser approach climb.
  {
    Rule r;
    r.mode = FailureMode::CondenserFouling;
    r.name = "condenser fouling";
    r.recommendation = "Brush condenser tubes; verify condenser-water flow "
                       "and treatment.";
    r.clauses = {
        Clause{feat::kCondPressure, nom.cond_pressure_kpa + 80.0,
               nom.cond_pressure_kpa + 330.0, 2.5, true, std::nullopt,
               "condensing pressure above normal"},
        Clause{feat::kCondApproach, 6.0, 13.0, 2.0, false, std::nullopt,
               "condenser approach temperature widened"},
        Clause{feat::kMotorCurrent, nom.motor_current_a * 1.04,
               nom.motor_current_a * 1.22, 1.0, false, std::nullopt,
               "compressor drawing extra current"},
    };
    rules.push_back(std::move(r));
  }

  return rules;
}

bool reads_current(const Rule& rule) {
  for (const Clause& c : rule.clauses) {
    if (c.required && c.feature.starts_with(feat::kElectricalPrefix)) {
      return true;
    }
  }
  return false;
}

}  // namespace mpros::rules

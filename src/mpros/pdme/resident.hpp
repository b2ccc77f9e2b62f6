#pragma once
// PDME-resident algorithms (paper §5.7).
//
// "Some reasons for placing the algorithms in the PDME rather than the DC
// include: the algorithm requires data from widely separate parts of the
// ship, the algorithm can reason from PDME resident components (a
// model-based diagnostic and prognostic system, for instance, might use
// only the OOSM) ..." Phase 1 ran everything on the DCs; this module adds
// the Phase-2-style resident analyzer the paper anticipates.
//
// FleetComparativeAnalyzer reasons *only* from the OOSM: it reads the
// process telemetry that DCs publish onto their chiller objects, compares
// sister plants, and reports machines whose operating point deviates from
// the fleet consensus — a diagnosis no single DC can make.

#include <map>
#include <string>
#include <vector>

#include "mpros/domain/channels.hpp"
#include "mpros/pdme/pdme.hpp"

namespace mpros::pdme {

/// Knowledge-source id for PDME-resident model-based conclusions
/// (DC-resident sources are 1..4).
inline constexpr KnowledgeSourceId kPdmeModelBased{5};

struct FleetAnalyzerConfig {
  /// Minimum sister plants (including the suspect) for a comparison.
  std::size_t min_fleet = 3;
  /// Deviation from the fleet median, in units of the fleet's median
  /// absolute deviation (robust z-score), before a report is issued.
  double z_threshold = 4.0;
  /// Floor on the absolute deviation so tight fleets don't false-alarm.
  double min_cond_kpa_delta = 120.0;
  double min_evap_kpa_delta = 50.0;
  double report_belief = 0.70;
  /// Re-report a standing outlier only when its severity moves by this
  /// much or after `report_refresh` (repeated identical comparisons are
  /// not independent evidence for Dempster-Shafer).
  double report_hysteresis = 0.05;
  SimTime report_refresh = SimTime::from_hours(1.0);
};

class FleetComparativeAnalyzer {
 public:
  /// The analyzer reads `pdme.model()` and posts conclusions back through
  /// `pdme.submit()`; both must outlive it.
  FleetComparativeAnalyzer(PdmeExecutive& pdme,
                           FleetAnalyzerConfig cfg = {});

  /// One comparison pass over every chiller with fresh telemetry.
  /// Returns the §7 reports issued (already accepted into the PDME).
  std::vector<net::FailureReport> scan(SimTime now);

  struct Stats {
    std::uint64_t scans = 0;
    std::uint64_t comparisons = 0;
    std::uint64_t reports_issued = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

 private:
  struct Deviation {
    ObjectId machine;
    double value = 0.0;
    double fleet_median = 0.0;
    double robust_z = 0.0;
  };
  /// Robust outlier detection across all chillers carrying the process
  /// value `channel` (the property the PDME stores under its name).
  [[nodiscard]] std::vector<Deviation> outliers(domain::Channel channel,
                                                double min_delta) const;
  net::FailureReport make_report(const Deviation& d, domain::FailureMode mode,
                                 const std::string& what, SimTime now) const;

  PdmeExecutive& pdme_;
  FleetAnalyzerConfig cfg_;
  struct LastReport {
    double severity = -1.0;
    SimTime at{-1};
  };
  std::map<std::pair<std::uint64_t, domain::FailureMode>, LastReport>
      last_reports_;
  Stats stats_;
};

}  // namespace mpros::pdme

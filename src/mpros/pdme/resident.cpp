#include "mpros/pdme/resident.hpp"

#include <algorithm>
#include <cmath>

#include "mpros/common/assert.hpp"
#include "mpros/rules/severity.hpp"

namespace mpros::pdme {

using domain::FailureMode;

FleetComparativeAnalyzer::FleetComparativeAnalyzer(PdmeExecutive& pdme,
                                                   FleetAnalyzerConfig cfg)
    : pdme_(pdme), cfg_(cfg) {
  MPROS_EXPECTS(cfg.min_fleet >= 3);
  MPROS_EXPECTS(cfg.z_threshold > 0.0);
}

namespace {

double median(std::vector<double> v) {
  MPROS_EXPECTS(!v.empty());
  const std::size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(mid),
                   v.end());
  return v[mid];
}

}  // namespace

std::vector<FleetComparativeAnalyzer::Deviation>
FleetComparativeAnalyzer::outliers(const std::string& key,
                                   double min_delta) const {
  const oosm::ObjectModel& model =
      static_cast<const PdmeExecutive&>(pdme_).model();

  std::vector<std::pair<ObjectId, double>> readings;
  for (const ObjectId chiller :
       model.objects_of_kind(domain::EquipmentKind::Chiller)) {
    const auto value = model.property(chiller, key);
    if (value.has_value() && !value->is_null()) {
      readings.emplace_back(chiller, value->numeric());
    }
  }
  if (readings.size() < cfg_.min_fleet) return {};

  std::vector<double> values;
  values.reserve(readings.size());
  for (const auto& [id, v] : readings) values.push_back(v);
  const double med = median(values);

  std::vector<double> abs_dev;
  abs_dev.reserve(values.size());
  for (const double v : values) abs_dev.push_back(std::fabs(v - med));
  // MAD with a floor: a perfectly uniform fleet should still require the
  // absolute-delta threshold to flag anything.
  const double mad = std::max(median(abs_dev), min_delta / cfg_.z_threshold);

  std::vector<Deviation> out;
  for (const auto& [id, v] : readings) {
    const double delta = v - med;
    const double z = delta / mad;
    if (std::fabs(delta) >= min_delta && std::fabs(z) >= cfg_.z_threshold) {
      out.push_back(Deviation{id, v, med, z});
    }
  }
  return out;
}

net::FailureReport FleetComparativeAnalyzer::make_report(
    const Deviation& d, FailureMode mode, const std::string& what,
    SimTime now) const {
  net::FailureReport r;
  r.dc = DcId(0);  // PDME-resident: no data concentrator of origin
  r.knowledge_source = kPdmeModelBased;
  r.sensed_object = d.machine;
  r.machine_condition = domain::condition_id(mode);
  // Severity scales with how far past the trip threshold the outlier sits.
  r.severity = std::clamp(
      0.35 + 0.10 * (std::fabs(d.robust_z) - cfg_.z_threshold), 0.2, 0.8);
  r.belief = cfg_.report_belief;
  r.explanation = what + ": fleet median " + std::to_string(d.fleet_median) +
                  ", this plant " + std::to_string(d.value);
  r.recommendations =
      "Cross-plant deviation; inspect this plant against its sisters.";
  r.timestamp = now;
  for (const auto& p : rules::default_prognosis(r.severity)) {
    r.prognostics.push_back(
        net::PrognosticPair{p.probability, p.horizon.seconds()});
  }
  return r;
}

std::vector<net::FailureReport> FleetComparativeAnalyzer::scan(SimTime now) {
  ++stats_.scans;
  std::vector<net::FailureReport> issued;

  // High condensing pressure relative to sisters sharing the same seawater
  // supply: fouling in that plant's condenser.
  for (const Deviation& d :
       outliers("process.cond_pressure_kpa", cfg_.min_cond_kpa_delta)) {
    ++stats_.comparisons;
    if (d.robust_z > 0.0) {
      issued.push_back(make_report(d, FailureMode::CondenserFouling,
                                   "condensing pressure above fleet", now));
    }
  }

  // Low evaporator pressure relative to sisters under comparable load:
  // refrigerant inventory problem in that plant.
  for (const Deviation& d :
       outliers("process.evap_pressure_kpa", cfg_.min_evap_kpa_delta)) {
    ++stats_.comparisons;
    if (d.robust_z < 0.0) {
      issued.push_back(make_report(d, FailureMode::RefrigerantLeak,
                                   "evaporator pressure below fleet", now));
    }
  }

  // Hysteresis: standing outliers re-report only on change or refresh.
  std::vector<net::FailureReport> fresh;
  for (const net::FailureReport& r : issued) {
    LastReport& last = last_reports_[{r.sensed_object.value(),
                                      domain::failure_mode(
                                          r.machine_condition)}];
    const bool moved =
        std::fabs(r.severity - last.severity) >= cfg_.report_hysteresis;
    const bool refresh_due =
        last.at.micros() < 0 || now - last.at >= cfg_.report_refresh;
    if (!moved && !refresh_due) continue;
    last.severity = r.severity;
    last.at = now;
    fresh.push_back(r);
  }

  std::vector<net::ReportEnvelope> batch(fresh.size());
  for (std::size_t i = 0; i < fresh.size(); ++i) {
    batch[i].dc = fresh[i].dc;
    batch[i].report = fresh[i];  // sequence 0: unsequenced
  }
  pdme_.submit(batch);
  stats_.reports_issued += fresh.size();
  return fresh;
}

}  // namespace mpros::pdme

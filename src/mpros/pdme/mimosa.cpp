#include "mpros/pdme/mimosa.hpp"

#include <cstdio>
#include <set>

namespace mpros::pdme {
namespace {

/// MIMOSA identities must not contain the field delimiter.
std::string sanitize(std::string s) {
  for (char& c : s) {
    if (c == '|' || c == '\n') c = ' ';
  }
  return s;
}

}  // namespace

const char* mimosa_grade(const MaintenanceItem& item,
                         const MimosaConfig& cfg) {
  const double risk = item.fused_belief * std::max(0.1, item.max_severity);
  if (risk >= cfg.grade_critical) return "CRITICAL";
  if (risk >= cfg.grade_alert) return "ALERT";
  if (risk >= cfg.grade_warning) return "WARNING";
  return "NORMAL";
}

std::string export_mimosa(const PdmeExecutive& pdme,
                          const oosm::ObjectModel& model,
                          const MimosaConfig& cfg) {
  std::string out;
  char buf[512];
  std::snprintf(buf, sizeof buf, "HD|%s|%s|MPROS-CBM-EXPORT|1\n",
                cfg.site_id.c_str(), cfg.agent_id.c_str());
  out += buf;

  const std::vector<MaintenanceItem>& items = pdme.prioritized_list();

  // Asset registry rows for every machine carrying a conclusion.
  std::set<std::uint64_t> assets;
  for (const MaintenanceItem& item : items) {
    if (!assets.insert(item.machine.value()).second) continue;
    const bool known = model.exists(item.machine);
    std::snprintf(buf, sizeof buf, "AS|%s|%llu|%s|%s\n",
                  cfg.site_id.c_str(),
                  static_cast<unsigned long long>(item.machine.value()),
                  known ? sanitize(model.name(item.machine)).c_str()
                        : "unknown",
                  known ? domain::to_string(model.kind(item.machine))
                        : "Unknown");
    out += buf;
  }

  for (const MaintenanceItem& item : items) {
    std::snprintf(buf, sizeof buf, "HA|%s|%llu|%s|%s|%.4f|%.3f|%zu\n",
                  cfg.site_id.c_str(),
                  static_cast<unsigned long long>(item.machine.value()),
                  sanitize(domain::condition_text(item.mode)).c_str(),
                  mimosa_grade(item, cfg), item.fused_belief,
                  item.max_severity, item.report_count);
    out += buf;

    // Proposed maintenance event when the predicted horizon is bounded.
    if (item.median_ttf.has_value() || item.p90_ttf.has_value()) {
      const double p50 =
          item.median_ttf ? item.median_ttf->days() : -1.0;
      const double p90 = item.p90_ttf ? item.p90_ttf->days() : -1.0;
      // Recommendation from the most recent report naming this condition.
      std::string recommendation;
      for (const net::FailureReport& r : pdme.reports_for(item.machine)) {
        if (r.machine_condition == domain::condition_id(item.mode) &&
            !r.recommendations.empty()) {
          recommendation = r.recommendations;
        }
      }
      std::snprintf(buf, sizeof buf, "PE|%s|%llu|%s|%s|%.1f|%.1f\n",
                    cfg.site_id.c_str(),
                    static_cast<unsigned long long>(item.machine.value()),
                    sanitize(domain::condition_text(item.mode)).c_str(),
                    sanitize(recommendation).c_str(), p50, p90);
      out += buf;
    }
  }
  return out;
}

}  // namespace mpros::pdme

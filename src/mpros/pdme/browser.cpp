#include "mpros/pdme/browser.hpp"

#include <charconv>
#include <cstdarg>
#include <cstdio>

namespace mpros::pdme {
namespace {

const char* source_name(std::uint64_t ks) {
  switch (ks) {
    case 1: return "DLI Expert System";
    case 2: return "SBFR";
    case 3: return "Wavelet Neural Net";
    case 4: return "Fuzzy Logic";
    case 5: return "Sensor Validator";
    default: return "External";
  }
}

/// Condition text that survives sensor-fault and unknown ids (the report
/// list must render whatever arrived, not abort on it). An unknown id's
/// text is built in `unknown`.
const std::string& condition_label(ConditionId id, std::string& unknown) {
  if (domain::is_sensor_fault_condition(id)) {
    return domain::sensor_fault_condition_text(domain::sensor_fault_kind(id));
  }
  if (id.valid() && id.value() <= domain::kFailureModeCount) {
    return domain::condition_text(domain::failure_mode(id));
  }
  unknown = "condition " + std::to_string(id.value());
  return unknown;
}

std::string ttf_text(const std::optional<SimTime>& t) {
  return t.has_value() ? to_string(*t) : std::string("--");
}

void append_line(std::string& out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  out += buf;
  out += '\n';
}

/// printf("%.*f", precision, v), appended.
void append_fixed(std::string& out, double v, int precision) {
  char buf[400];  // room for the widest fixed-notation double
  const auto r = std::to_chars(buf, buf + sizeof buf, v,
                               std::chars_format::fixed, precision);
  out.append(buf, r.ptr);
}

void append_number(std::string& out, std::uint64_t v) {
  char buf[24];
  const auto r = std::to_chars(buf, buf + sizeof buf, v);
  out.append(buf, r.ptr);
}

}  // namespace

std::string render_machine(const PdmeExecutive& pdme,
                           const oosm::ObjectModel& model, ObjectId machine) {
  std::string out;
  const std::string machine_name =
      model.exists(machine) ? model.name(machine)
                            : "object " + std::to_string(machine.value());

  append_line(out, "=== MPROS Condition Browser ===");
  append_line(out, "Machine: %s", machine_name.c_str());
  append_line(out, "");

  const auto reports = pdme.reports_for(machine);
  append_line(out, "Condition reports received: %zu", reports.size());
  append_line(out, "%-22s %-26s %8s %7s  %s", "Source", "Condition",
              "Severity", "Belief", "Effective");
  std::string unknown;
  for (const net::FailureReport& r : reports) {
    append_line(out, "%-22s %-26s %8.2f %7.2f  %s",
                source_name(r.knowledge_source.value()),
                condition_label(r.machine_condition, unknown).c_str(),
                r.severity, r.belief, to_string(r.timestamp).c_str());
  }
  append_line(out, "");
  append_line(out, "--- Fused condition groups (Knowledge Fusion) ---");

  for (std::size_t g = 0; g < domain::kLogicalGroupCount; ++g) {
    const auto group = static_cast<domain::LogicalGroup>(g);
    const fusion::GroupState state = pdme.group_state(machine, group);
    if (state.report_count == 0) continue;
    append_line(out, "[%s]  unknown=%.2f  conflict=%.2f  reports=%zu",
                domain::to_string(group), state.unknown, state.last_conflict,
                state.report_count);
    for (const fusion::ModeBelief& mb : state.modes) {
      if (mb.belief <= 1e-9 && mb.plausibility >= 0.999) continue;
      append_line(out, "    %-28s bel=%.3f pl=%.3f",
                  domain::condition_text(mb.mode).c_str(), mb.belief,
                  mb.plausibility);
    }
  }

  append_line(out, "");
  append_line(out, "--- Failure predictions ---");
  for (const MaintenanceItem& item : pdme.prioritized_list(machine)) {
    append_line(out,
                "%-28s bel=%.3f sev=%.2f  P50 ttf=%s  P90 ttf=%s  trend=%s",
                domain::condition_text(item.mode).c_str(), item.fused_belief,
                item.max_severity, ttf_text(item.median_ttf).c_str(),
                ttf_text(item.p90_ttf).c_str(),
                ttf_text(item.trend_ttf).c_str());
  }
  return out;
}

std::string render_summary(const PdmeExecutive& pdme,
                           const oosm::ObjectModel& model,
                           std::size_t max_items) {
  std::string out;
  append_line(out, "=== MPROS Prioritized Maintenance List ===");
  append_line(out, "%-28s %-28s %8s %8s %10s", "Machine", "Condition",
              "Belief", "Severity", "P50 TTF");
  std::size_t count = 0;
  for (const MaintenanceItem& item : pdme.prioritized_list()) {
    if (count++ >= max_items) break;
    const std::string machine_name =
        model.exists(item.machine) ? model.name(item.machine)
                                   : std::to_string(item.machine.value());
    append_line(out, "%-28s %-28s %8.3f %8.2f %10s", machine_name.c_str(),
                domain::condition_text(item.mode).c_str(), item.fused_belief,
                item.max_severity, ttf_text(item.median_ttf).c_str());
  }

  // §3.1's list is only as fresh as the streams feeding it; surface every
  // machinery space the watchdog has doubts about, and every instrument
  // channel currently quarantined, right on the operator's summary page.
  const auto& health = pdme.dc_health();
  if (!health.empty()) {
    append_line(out, "");
    append_line(out, "--- Data Concentrator health ---");
    for (const auto& [dc, h] : health) {
      if (h.liveness == DcLiveness::Alive) {
        append_line(out, "dc-%llu  %-5s  last data %s  heartbeats=%llu",
                    static_cast<unsigned long long>(dc),
                    to_string(h.liveness), to_string(h.last_heard).c_str(),
                    static_cast<unsigned long long>(h.heartbeats));
      } else {
        append_line(out, "dc-%llu  %-5s  NO DATA since %s",
                    static_cast<unsigned long long>(dc),
                    to_string(h.liveness), to_string(h.last_heard).c_str());
      }
    }
  }
  const auto faults = pdme.sensor_faults();
  if (!faults.empty()) {
    append_line(out, "");
    append_line(out, "--- Quarantined sensor channels ---");
    for (const auto& f : faults) {
      append_line(out, "dc-%llu  %-12s since %s  %s",
                  static_cast<unsigned long long>(f.dc.value()),
                  domain::to_string(f.kind), to_string(f.at).c_str(),
                  f.explanation.c_str());
    }
  }
  return out;
}

std::string export_icas_csv(const PdmeExecutive& pdme,
                            const oosm::ObjectModel& model) {
  std::string out =
      "machine,condition,fused_belief,plausibility,max_severity,"
      "report_count,p50_ttf_seconds,p90_ttf_seconds\n";
  for (const MaintenanceItem& item : pdme.prioritized_list()) {
    const double p50 =
        item.median_ttf.has_value() ? item.median_ttf->seconds() : -1.0;
    const double p90 =
        item.p90_ttf.has_value() ? item.p90_ttf->seconds() : -1.0;
    // "\"%s\",\"%s\",%.4f,%.4f,%.3f,%zu,%.0f,%.0f\n" without printf:
    // to_chars with a fixed precision is specified to print exactly what
    // printf does in the "C" locale.
    out += '"';
    if (model.exists(item.machine)) {
      out += model.name(item.machine);
    } else {
      append_number(out, item.machine.value());
    }
    out += "\",\"";
    out += domain::condition_text(item.mode);
    out += "\",";
    append_fixed(out, item.fused_belief, 4);
    out += ',';
    append_fixed(out, item.plausibility, 4);
    out += ',';
    append_fixed(out, item.max_severity, 3);
    out += ',';
    append_number(out, item.report_count);
    out += ',';
    append_fixed(out, p50, 0);
    out += ',';
    append_fixed(out, p90, 0);
    out += '\n';
  }
  return out;
}

}  // namespace mpros::pdme

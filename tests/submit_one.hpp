#pragma once
// Test helper: one unsequenced report through PdmeExecutive::submit(), the
// shape most PDME tests feed reports in. Returns the posted report object,
// or nullopt when the PDME dropped the report as a duplicate.

#include <optional>

#include "mpros/pdme/pdme.hpp"

namespace mpros {

inline std::optional<ObjectId> submit_one(pdme::PdmeExecutive& pdme,
                                          const net::FailureReport& report) {
  const net::ReportEnvelope env{report.dc, 0, report};
  return pdme.submit({&env, 1}).last_object;
}

}  // namespace mpros

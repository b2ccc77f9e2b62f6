#pragma once
// Umbrella header for the MPROS library.
//
// MPROS — Machinery Prognostics and Diagnostics System — reproduction of
// Bennett & Hadden, "Condition-Based Maintenance: Algorithms and
// Applications for Embedded High Performance Computing" (IPPS/SPDP 1999
// workshops). See README.md for the architecture tour and DESIGN.md for the
// per-experiment index.

// Substrates
#include "mpros/common/clock.hpp"
#include "mpros/common/ids.hpp"
#include "mpros/common/log.hpp"
#include "mpros/common/rng.hpp"
#include "mpros/common/thread_pool.hpp"
#include "mpros/db/database.hpp"
#include "mpros/domain/equipment.hpp"
#include "mpros/domain/failure_modes.hpp"
#include "mpros/dsp/cepstrum.hpp"
#include "mpros/dsp/dct.hpp"
#include "mpros/dsp/envelope.hpp"
#include "mpros/dsp/fft.hpp"
#include "mpros/dsp/filter.hpp"
#include "mpros/dsp/spectrum.hpp"
#include "mpros/dsp/stats.hpp"
#include "mpros/dsp/window.hpp"
#include "mpros/wavelet/dwt.hpp"
#include "mpros/wavelet/features.hpp"

// Analyzers
#include "mpros/fuzzy/chiller_fuzzy.hpp"
#include "mpros/fuzzy/engine.hpp"
#include "mpros/nn/classifier.hpp"
#include "mpros/nn/network.hpp"
#include "mpros/rules/dli_rules.hpp"
#include "mpros/rules/engine.hpp"
#include "mpros/rules/features.hpp"
#include "mpros/sbfr/disasm.hpp"
#include "mpros/sbfr/interpreter.hpp"
#include "mpros/sbfr/library.hpp"

// Fusion & ship model
#include "mpros/fusion/bayes_net.hpp"
#include "mpros/fusion/dempster_shafer.hpp"
#include "mpros/fusion/diagnostic_fusion.hpp"
#include "mpros/fusion/hazard.hpp"
#include "mpros/fusion/prognostic_fusion.hpp"
#include "mpros/fusion/trend.hpp"
#include "mpros/oosm/object_model.hpp"
#include "mpros/oosm/persistence.hpp"
#include "mpros/oosm/ship_builder.hpp"

// Distributed system
#include "mpros/dc/data_concentrator.hpp"
#include "mpros/net/network.hpp"
#include "mpros/net/report.hpp"
#include "mpros/pdme/browser.hpp"
#include "mpros/pdme/health.hpp"
#include "mpros/pdme/mimosa.hpp"
#include "mpros/pdme/pdme.hpp"
#include "mpros/pdme/resident.hpp"
#include "mpros/pdme/spatial.hpp"
#include "mpros/plant/chiller.hpp"
#include "mpros/plant/daq.hpp"
#include "mpros/plant/ema.hpp"

// Telemetry
#include "mpros/telemetry/metrics.hpp"
#include "mpros/telemetry/recorder.hpp"
#include "mpros/telemetry/trace.hpp"

// Facade
#include "mpros/mpros/replay.hpp"
#include "mpros/mpros/ship_system.hpp"
#include "mpros/mpros/validation.hpp"
#include "mpros/mpros/wnn_training.hpp"

#include "mpros/mpros/replay.hpp"

#include <algorithm>

#include "mpros/net/messages.hpp"
#include "mpros/oosm/object_model.hpp"
#include "mpros/oosm/ship_builder.hpp"
#include "mpros/pdme/browser.hpp"
#include "mpros/pdme/pdme.hpp"

namespace mpros {

std::optional<ReplayResult> replay_recording(
    const telemetry::FlightRecorder::Decoded& dump) {
  if (dump.header.version != telemetry::kRecorderVersion) return std::nullopt;

  // Rebuild the live run's object model. ShipSystem derives its deck layout
  // from plant_count the same way; the ship name is fixed, so object ids
  // land identically and reports resolve to the same machines.
  oosm::ObjectModel model;
  const std::size_t plant_count = std::max<std::size_t>(
      1, dump.header.plant_count);
  oosm::ShipModel ship = oosm::build_ship(
      model, "USNS Mercy",
      /*decks=*/std::max<std::size_t>(1, (plant_count + 1) / 2),
      /*plants_per_deck=*/2);

  pdme::PdmeConfig cfg;
  cfg.deduplicate = dump.header.pdme_dedup;
  cfg.auto_retest = false;  // no DCs to command during replay
  pdme::PdmeExecutive pdme(model, cfg);
  // The live assembler registers every DC with the watchdog up front; the
  // replayed health ledger needs the same roster to match the summary.
  for (std::size_t p = 0; p < plant_count; ++p) {
    pdme.expect_dc(DcId(p + 1), SimTime(0));
  }

  ReplayResult result;
  result.frames_seen = dump.frames.size();
  for (const telemetry::RecorderFrame& frame : dump.frames) {
    if (frame.kind != telemetry::FrameKind::NetMessage) {
      ++result.events_skipped;
      continue;
    }
    if (frame.to != "pdme") continue;  // DC-bound commands replay as no-ops

    const SimTime delivered_at{frame.time_us};
    const auto type = net::try_peek_type(frame.payload);
    if (!type.has_value()) {
      ++result.malformed;
      continue;
    }
    switch (*type) {
      case net::MessageType::SensorData: {
        const auto data = net::try_unwrap_sensor_data(frame.payload);
        if (!data.has_value()) {
          ++result.malformed;
          break;
        }
        pdme.note_dc_alive(data->dc, delivered_at);
        pdme.accept(*data);
        ++result.messages_replayed;
        break;
      }
      case net::MessageType::ReportBatchEnvelopeMsg: {
        // Replay bypasses the reliable layer: the batch goes in unsequenced,
        // and the PDME's report dedup absorbs recorded retransmissions of
        // the same batch.
        std::vector<net::ReportEnvelope> arena;
        const auto view = net::try_unwrap_reports_into(frame.payload, arena);
        if (!view.has_value()) {
          ++result.malformed;
          break;
        }
        pdme.note_dc_alive(view->dc, delivered_at);
        for (std::size_t i = 0; i < view->count; ++i) arena[i].sequence = 0;
        pdme.submit({arena.data(), view->count});
        ++result.messages_replayed;
        break;
      }
      case net::MessageType::Heartbeat: {
        const auto hb = net::try_unwrap_heartbeat(frame.payload);
        if (!hb.has_value()) {
          ++result.malformed;
          break;
        }
        pdme.accept(*hb, delivered_at);
        break;
      }
      case net::MessageType::TestCommand:
      case net::MessageType::Ack:
      case net::MessageType::FleetSummaryEnvelopeMsg:
      default:
        break;  // mis-routed; the live PDME ignored these too
    }
  }

  const pdme::PdmeExecutive::Stats stats = pdme.snapshot();
  result.reports_fused = stats.reports_accepted;
  result.sensor_batches = stats.sensor_batches;
  result.summary = pdme::render_summary(pdme, model);
  return result;
}

std::optional<ReplayResult> replay_file(const std::string& path) {
  const auto dump = telemetry::FlightRecorder::load(path);
  if (!dump.has_value()) return std::nullopt;
  return replay_recording(*dump);
}

}  // namespace mpros

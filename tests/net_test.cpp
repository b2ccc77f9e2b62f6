// Wire protocol and simulated ship-network tests.

#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <map>
#include <optional>
#include <set>
#include <span>

#include "mpros/common/codec.hpp"
#include "mpros/common/rng.hpp"
#include "mpros/net/fleet_summary.hpp"
#include "mpros/net/messages.hpp"
#include "mpros/net/network.hpp"
#include "mpros/net/reliable.hpp"
#include "mpros/net/report.hpp"
#include "mpros/telemetry/metrics.hpp"
#include "mpros/telemetry/recorder.hpp"

namespace mpros::net {
namespace {

TEST(CodecTest, PrimitivesRoundTrip) {
  Writer w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEF);
  w.u64(0x0123456789ABCDEFull);
  w.i64(-42);
  w.f64(3.14159);
  w.str("hello");
  w.str("");

  TryReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), -42);
  EXPECT_DOUBLE_EQ(r.f64(), 3.14159);
  EXPECT_EQ(r.str(), "hello");
  EXPECT_EQ(r.str(), "");
  EXPECT_TRUE(r.done());
  EXPECT_TRUE(r.ok());
}

FailureReport sample_report() {
  FailureReport r;
  r.dc = DcId(3);
  r.knowledge_source = KnowledgeSourceId(1);
  r.sensed_object = ObjectId(17);
  r.machine_condition = ConditionId(5);
  r.severity = 0.62;
  r.belief = 0.91;
  r.explanation = "1x running-speed amplitude elevated";
  r.recommendations = "Field balance the rotor.";
  r.timestamp = SimTime::from_seconds(1234.5);
  r.additional_info = "load=0.8";
  r.prognostics = {{0.1, 86400.0}, {0.5, 604800.0}, {0.9, 2592000.0}};
  return r;
}

TEST(CodecTest, EveryWidthWritesPinnedLittleEndianBytes) {
  const double nan_with_payload = std::bit_cast<double>(0x7FF80000DEADBEEFull);
  Writer w;
  w.u8(0xAB);
  w.u16(0x1234);
  w.u32(0xDEADBEEFu);
  w.u64(0x0123456789ABCDEFull);
  w.i64(std::numeric_limits<std::int64_t>::min());
  w.i64(-2);
  w.f64(-0.0);
  w.f64(nan_with_payload);
  w.f64(1.0);
  w.str("hi");
  const std::vector<std::uint8_t> expected = {
      0xAB,                                            // u8
      0x34, 0x12,                                      // u16
      0xEF, 0xBE, 0xAD, 0xDE,                          // u32
      0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01,  // u64
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80,  // INT64_MIN
      0xFE, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF,  // -2
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x80,  // -0.0
      0xEF, 0xBE, 0xAD, 0xDE, 0x00, 0x00, 0xF8, 0x7F,  // NaN payload
      0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0xF0, 0x3F,  // 1.0
      0x02, 0x00, 0x00, 0x00, 'h', 'i'};               // str
  EXPECT_EQ(w.bytes(), expected);

  TryReader r(w.bytes());
  EXPECT_EQ(r.u8(), 0xAB);
  EXPECT_EQ(r.u16(), 0x1234);
  EXPECT_EQ(r.u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.u64(), 0x0123456789ABCDEFull);
  EXPECT_EQ(r.i64(), std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(r.i64(), -2);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()), 0x8000000000000000ull);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(r.f64()), 0x7FF80000DEADBEEFull);
  EXPECT_EQ(r.f64(), 1.0);
  EXPECT_EQ(r.str(), "hi");
  EXPECT_TRUE(r.done());
  EXPECT_TRUE(r.ok());
  // Past the end every width reads zero and latches the failure.
  EXPECT_EQ(r.u8(), 0u);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.u64(), 0u);
  EXPECT_FALSE(r.ok());
}

/// A lone report on the wire: a batch of one from the report's own DC.
std::vector<std::uint8_t> wrap_one(const FailureReport& r,
                                   std::uint64_t sequence = 0) {
  return wrap_batch_envelope(r.dc, sequence, {&r, 1});
}

/// Seals one report on `sender`'s stream as a batch of one.
std::vector<std::uint8_t> seal_one(ReliableSender& sender,
                                   const FailureReport& r, SimTime now) {
  return sender.envelope(std::span(&r, 1), now);
}

/// Decodes a batch-of-one datagram: nullopt unless it decodes to exactly
/// one report.
std::optional<ReportEnvelope> unwrap_one(std::span<const std::uint8_t> bytes) {
  std::vector<ReportEnvelope> arena;
  const auto view = try_unwrap_reports_into(bytes, arena);
  if (!view.has_value() || view->count != 1) return std::nullopt;
  return arena.front();
}

TEST(ReportProtocolTest, SerializeDeserializeRoundTrip) {
  const FailureReport original = sample_report();
  const auto decoded = try_deserialize_report(serialize(original));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, original);
}

TEST(ReportProtocolTest, EmptyOptionalFieldsAllowed) {
  // §7.2: explanation / recommendations "allowed to be blank"; §7.3 allows
  // zero prognostic pairs.
  FailureReport r = sample_report();
  r.explanation.clear();
  r.recommendations.clear();
  r.additional_info.clear();
  r.prognostics.clear();
  const auto decoded = try_deserialize_report(serialize(r));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, r);
}

TEST(ReportProtocolTest, SummaryIsOneLine) {
  const std::string s = summarize(sample_report());
  EXPECT_EQ(s.find('\n'), std::string::npos);
  EXPECT_NE(s.find("dc=3"), std::string::npos);
}

// --- SimNetwork --------------------------------------------------------------

NetworkConfig quiet_config() {
  NetworkConfig cfg;
  cfg.base_latency = SimTime::from_millis(10.0);
  cfg.jitter = SimTime::from_millis(0.0001);
  cfg.drop_probability = 0.0;
  cfg.duplicate_probability = 0.0;
  return cfg;
}

TEST(SimNetworkTest, DeliversAfterLatency) {
  SimNetwork net(quiet_config());
  std::vector<std::string> inbox;
  net.register_endpoint("pdme", [&](const Message& m) {
    inbox.emplace_back(m.payload.begin(), m.payload.end());
  });

  net.send("dc-1", "pdme", {'h', 'i'}, SimTime(0));
  EXPECT_EQ(net.advance_to(SimTime::from_millis(5.0)), 0u);  // not yet due
  EXPECT_EQ(net.advance_to(SimTime::from_millis(20.0)), 1u);
  ASSERT_EQ(inbox.size(), 1u);
  EXPECT_EQ(inbox[0], "hi");
}

TEST(SimNetworkTest, DeliveryOrderFollowsDeliveryTime) {
  NetworkConfig cfg = quiet_config();
  cfg.jitter = SimTime::from_millis(200.0);  // heavy jitter -> reordering
  cfg.seed = 7;
  SimNetwork net(cfg);
  std::vector<int> order;
  net.register_endpoint("pdme", [&](const Message& m) {
    order.push_back(m.payload[0]);
  });
  for (int i = 0; i < 32; ++i) {
    net.send("dc", "pdme", {static_cast<std::uint8_t>(i)},
             SimTime::from_millis(i));
  }
  net.flush();
  ASSERT_EQ(order.size(), 32u);
  EXPECT_NE(order, ([] {
              std::vector<int> v;
              for (int i = 0; i < 32; ++i) v.push_back(i);
              return v;
            })());  // jitter actually reordered something
}

TEST(SimNetworkTest, DropsAndDuplicatesAccounted) {
  NetworkConfig cfg = quiet_config();
  cfg.drop_probability = 0.3;
  cfg.duplicate_probability = 0.2;
  cfg.seed = 11;
  SimNetwork net(cfg);
  std::size_t received = 0;
  net.register_endpoint("pdme", [&](const Message&) { ++received; });

  constexpr std::size_t kSent = 2000;
  for (std::size_t i = 0; i < kSent; ++i) {
    net.send("dc", "pdme", {1}, SimTime(0));
  }
  net.flush();

  const NetworkStats stats = net.stats();
  EXPECT_EQ(stats.sent, kSent);
  EXPECT_NEAR(static_cast<double>(stats.dropped) / kSent, 0.3, 0.05);
  EXPECT_NEAR(static_cast<double>(stats.duplicated) / kSent,
              0.2 * 0.7 / 1.0, 0.05);  // duplicates only of non-dropped
  EXPECT_EQ(stats.delivered, received);
  EXPECT_EQ(received, kSent - stats.dropped + stats.duplicated);
}

TEST(SimNetworkTest, DeterministicGivenSeed) {
  const auto run = [] {
    NetworkConfig cfg;
    cfg.drop_probability = 0.2;
    cfg.jitter = SimTime::from_millis(50.0);
    cfg.seed = 99;
    SimNetwork net(cfg);
    std::vector<std::uint8_t> order;
    net.register_endpoint("pdme", [&](const Message& m) {
      order.push_back(m.payload[0]);
    });
    for (int i = 0; i < 64; ++i) {
      net.send("dc", "pdme", {static_cast<std::uint8_t>(i)}, SimTime(0));
    }
    net.flush();
    return order;
  };
  EXPECT_EQ(run(), run());
}

TEST(SimNetworkTest, UnknownDestinationDeadLetters) {
  SimNetwork net(quiet_config());
  net.send("dc", "nowhere", {1}, SimTime(0));
  net.flush();
  EXPECT_EQ(net.stats().dead_lettered, 1u);
}

TEST(SimNetworkTest, InFlightCountsQueued) {
  SimNetwork net(quiet_config());
  net.register_endpoint("pdme", [](const Message&) {});
  net.send("dc", "pdme", {1}, SimTime(0));
  EXPECT_EQ(net.in_flight(), 1u);
  net.flush();
  EXPECT_EQ(net.in_flight(), 0u);
}

TEST(SimNetworkTest, ReportSurvivesTransportIntact) {
  SimNetwork net(quiet_config());
  std::optional<FailureReport> received;
  net.register_endpoint("pdme", [&](const Message& m) {
    received = try_deserialize_report(m.payload);
  });
  const FailureReport sent = sample_report();
  net.send("dc-3", "pdme", serialize(sent), SimTime(0));
  net.flush();
  ASSERT_TRUE(received.has_value());
  EXPECT_EQ(*received, sent);
}

// --- Fail-soft decoding / fuzz ----------------------------------------------
//
// The PDME endpoint and the replay tooling feed arbitrary bytes through the
// try_* decoders; no input, however mangled, may crash or allocate wildly.

TEST(FuzzDecodeTest, TraceRidesTheWire) {
  FailureReport r = sample_report();
  r.trace = 0xFEEDFACEull;
  const auto decoded = try_deserialize_report(serialize(r));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->trace, 0xFEEDFACEull);
}

TEST(FuzzDecodeTest, EveryTruncationReturnsNullopt) {
  const auto bytes = serialize(sample_report());
  FailureReport out;
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(try_deserialize_report(
                     std::span(bytes.data(), len)).has_value())
        << "prefix of " << len << " bytes decoded";
    // The reader under it latches the failure: no later field reads data.
    TryReader rd(std::span(bytes.data(), len));
    EXPECT_FALSE(try_read_report_frame(rd, out)) << len;
    EXPECT_FALSE(rd.ok()) << len;
  }
}

TEST(FuzzDecodeTest, SingleByteCorruptionNeverCrashes) {
  const auto clean = serialize(sample_report());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    auto bytes = clean;
    bytes[i] ^= 0xFF;
    // Flipped float/string bytes may still parse; headers and counts must
    // not. Either way: no crash, no abort.
    (void)try_deserialize_report(bytes);
  }
  auto bad_magic = clean;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(try_deserialize_report(bad_magic).has_value());
  auto bad_version = clean;
  bad_version[2] = 0xEE;
  EXPECT_FALSE(try_deserialize_report(bad_version).has_value());
  bad_version[2] = 1;  // the pre-trace frame version is retired
  EXPECT_FALSE(try_deserialize_report(bad_version).has_value());
}

TEST(FuzzDecodeTest, HugePrognosticCountRejectedBeforeAllocation) {
  auto bytes = serialize(sample_report());
  // The prognostic count is the u32 before the 3 * 16 trailing pair bytes.
  const std::size_t count_at = bytes.size() - 3 * 16 - 4;
  bytes[count_at] = 0xFF;
  bytes[count_at + 1] = 0xFF;
  bytes[count_at + 2] = 0xFF;
  bytes[count_at + 3] = 0xFF;
  EXPECT_FALSE(try_deserialize_report(bytes).has_value());
}

TEST(FuzzDecodeTest, RandomBuffersNeverCrash) {
  Rng rng(0xF422);
  std::vector<ReportEnvelope> arena;
  for (int round = 0; round < 2000; ++round) {
    std::vector<std::uint8_t> junk(rng.integer(0, 255));
    for (auto& b : junk) {
      b = static_cast<std::uint8_t>(rng.integer(0, 255));
    }
    (void)try_peek_type(junk);
    (void)try_deserialize_report(junk);
    (void)try_unwrap_reports_into(junk, arena);
    (void)try_unwrap_sensor_data(junk);
    (void)try_unwrap_test_command(junk);
    (void)telemetry::FlightRecorder::decode(junk);
  }
}

TEST(FuzzDecodeTest, WrongEnvelopeTypeReturnsNullopt) {
  const auto wrapped = wrap_one(sample_report());
  ASSERT_EQ(try_peek_type(wrapped), MessageType::ReportBatchEnvelopeMsg);
  EXPECT_FALSE(try_unwrap_sensor_data(wrapped).has_value());
  EXPECT_FALSE(try_unwrap_test_command(wrapped).has_value());
  EXPECT_TRUE(unwrap_one(wrapped).has_value());
}

TEST(FuzzDecodeTest, RecorderDumpTruncationAndCorruption) {
  telemetry::FlightRecorder rec(16);
  rec.set_header({telemetry::kRecorderVersion, true, 4, 0xBEEF});
  rec.record_message(1000, "dc-1", "pdme", {1, 2, 3, 4});
  rec.record_event(2000, "dc-1", "vibration test");
  const auto bytes = rec.encode();
  ASSERT_TRUE(telemetry::FlightRecorder::decode(bytes).has_value());

  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(telemetry::FlightRecorder::decode(
                     std::span(bytes.data(), len)).has_value())
        << "truncated dump of " << len << " bytes decoded";
  }
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    auto mangled = bytes;
    mangled[i] ^= 0xFF;
    (void)telemetry::FlightRecorder::decode(mangled);  // must not crash
  }
  auto trailing = bytes;
  trailing.push_back(0);
  EXPECT_FALSE(telemetry::FlightRecorder::decode(trailing).has_value());
}

// --- Scripted outages --------------------------------------------------------

TEST(OutageTest, HardPartitionWindowIsDeterministic) {
  SimNetwork net(quiet_config());
  std::vector<int> inbox;
  net.register_endpoint("pdme",
                        [&](const Message& m) { inbox.push_back(m.payload[0]); });
  net.schedule_outage({"dc-1", SimTime::from_seconds(10),
                       SimTime::from_seconds(20), 1.0});

  net.send("dc-1", "pdme", {1}, SimTime::from_seconds(5));   // before window
  net.send("dc-1", "pdme", {2}, SimTime::from_seconds(15));  // partitioned
  net.send("dc-2", "pdme", {3}, SimTime::from_seconds(15));  // other endpoint
  net.send("dc-1", "pdme", {4}, SimTime::from_seconds(20));  // window is [from, to)
  net.flush();

  EXPECT_EQ(inbox, (std::vector<int>{1, 3, 4}));
  EXPECT_EQ(net.stats().dropped, 1u);
  EXPECT_EQ(net.stats().outage_dropped, 1u);
}

TEST(OutageTest, BurstLossWindowDropsStatistically) {
  NetworkConfig cfg = quiet_config();
  cfg.seed = 23;
  SimNetwork net(cfg);
  std::size_t received = 0;
  net.register_endpoint("pdme", [&](const Message&) { ++received; });
  // Empty endpoint = the whole network degrades for ten seconds.
  net.schedule_outage({"", SimTime::from_seconds(10), SimTime::from_seconds(20),
                       0.5});

  constexpr std::size_t kSent = 2000;
  for (std::size_t i = 0; i < kSent; ++i) {
    net.send("dc-1", "pdme", {1}, SimTime::from_seconds(15));
  }
  net.flush();

  const NetworkStats stats = net.stats();
  EXPECT_NEAR(static_cast<double>(stats.dropped) / kSent, 0.5, 0.05);
  EXPECT_EQ(stats.outage_dropped, stats.dropped);  // no baseline loss here
  EXPECT_EQ(received, kSent - stats.dropped);
}

TEST(OutageTest, OverlappingWindowsWorstProbabilityWins) {
  SimNetwork net(quiet_config());
  std::size_t received = 0;
  net.register_endpoint("pdme", [&](const Message&) { ++received; });
  net.schedule_outage({"", SimTime(0), SimTime::from_seconds(100), 0.0});
  net.schedule_outage({"pdme", SimTime::from_seconds(10),
                       SimTime::from_seconds(20), 1.0});

  net.send("dc-1", "pdme", {1}, SimTime::from_seconds(15));  // hard window wins
  net.send("dc-1", "pdme", {2}, SimTime::from_seconds(50));  // 0.0 window only
  net.flush();
  EXPECT_EQ(received, 1u);
  EXPECT_EQ(net.stats().outage_dropped, 1u);
}

TEST(OutageTest, DeterministicGivenSeedWithOutages) {
  const auto run = [] {
    NetworkConfig cfg;
    cfg.drop_probability = 0.1;
    cfg.jitter = SimTime::from_millis(50.0);
    cfg.seed = 77;
    SimNetwork net(cfg);
    net.schedule_outage({"dc-1", SimTime::from_millis(100),
                         SimTime::from_millis(400), 0.7});
    std::vector<std::uint8_t> order;
    net.register_endpoint("pdme", [&](const Message& m) {
      order.push_back(m.payload[0]);
    });
    for (int i = 0; i < 64; ++i) {
      net.send(i % 2 ? "dc-1" : "dc-2", "pdme",
               {static_cast<std::uint8_t>(i)}, SimTime::from_millis(10.0 * i));
    }
    net.flush();
    return order;
  };
  EXPECT_EQ(run(), run());
}

// --- Reliable delivery -------------------------------------------------------

TEST(ReliableProtocolTest, EnvelopeAckHeartbeatRoundTripOnTheWire) {
  const ReportEnvelope env{DcId(3), 9, sample_report()};
  const auto env_back = unwrap_one(wrap_one(env.report, env.sequence));
  ASSERT_TRUE(env_back.has_value());
  EXPECT_EQ(*env_back, env);

  AckMessage ack{DcId(4), 9};
  const auto ack_back = try_unwrap_ack(wrap(ack));
  ASSERT_TRUE(ack_back.has_value());
  EXPECT_EQ(*ack_back, ack);

  HeartbeatMessage hb{DcId(4), SimTime::from_seconds(60.0), 9};
  const auto hb_back = try_unwrap_heartbeat(wrap(hb));
  ASSERT_TRUE(hb_back.has_value());
  EXPECT_EQ(*hb_back, hb);

  // Cross-type unwraps fail soft, never throw.
  EXPECT_FALSE(try_unwrap_ack(wrap_one(env.report, env.sequence)).has_value());
  EXPECT_FALSE(unwrap_one(wrap(hb)).has_value());
}

TEST(ReliableChannelTest, AckRetiresBufferedEnvelopes) {
  ReliableSender sender(DcId(3));
  ReliableReceiver receiver;

  const auto payload = seal_one(sender, sample_report(), SimTime(0));
  EXPECT_EQ(sender.unacked(), 1u);
  EXPECT_EQ(sender.last_sequence(), 1u);

  const auto env = unwrap_one(payload);
  ASSERT_TRUE(env.has_value());
  EXPECT_EQ(env->dc, DcId(3));
  EXPECT_EQ(env->sequence, 1u);
  EXPECT_EQ(env->report, sample_report());

  const auto outcome = receiver.on_envelope(env->dc, env->sequence);
  EXPECT_FALSE(outcome.duplicate);
  EXPECT_EQ(outcome.new_gaps, 0u);
  EXPECT_EQ(outcome.ack.cumulative, 1u);

  sender.on_ack(outcome.ack);
  EXPECT_EQ(sender.unacked(), 0u);
  EXPECT_TRUE(sender.due_retransmits(SimTime::from_hours(10.0)).empty());
}

TEST(ReliableChannelTest, GapDetectedOnLaterSequenceThenHealed) {
  ReliableReceiver receiver;
  const DcId dc(1);

  EXPECT_EQ(receiver.on_envelope(dc, 1).ack.cumulative, 1u);
  const auto skip = receiver.on_envelope(dc, 3);
  EXPECT_EQ(skip.new_gaps, 1u);
  EXPECT_EQ(skip.ack.cumulative, 1u);  // 2 still missing
  EXPECT_EQ(receiver.open_gaps(dc), 1u);

  const auto heal = receiver.on_envelope(dc, 2);
  EXPECT_FALSE(heal.duplicate);
  EXPECT_EQ(heal.new_gaps, 0u);
  EXPECT_EQ(heal.ack.cumulative, 3u);  // cumulative jumps over the healed gap
  EXPECT_EQ(receiver.open_gaps(dc), 0u);
  EXPECT_EQ(receiver.snapshot().gaps_detected, 1u);
  EXPECT_EQ(receiver.snapshot().gaps_healed, 1u);
}

TEST(ReliableChannelTest, DuplicatesDroppedButStillAcked) {
  ReliableReceiver receiver;
  EXPECT_FALSE(receiver.on_envelope(DcId(1), 1).duplicate);
  const auto dup = receiver.on_envelope(DcId(1), 1);
  EXPECT_TRUE(dup.duplicate);
  // The previous ack may have been the datagram that got lost; a duplicate
  // arrival still earns a fresh cumulative ack.
  EXPECT_EQ(dup.ack.cumulative, 1u);
  EXPECT_EQ(receiver.snapshot().duplicates, 1u);
  // Per-DC streams are independent.
  EXPECT_FALSE(receiver.on_envelope(DcId(2), 1).duplicate);
}

TEST(ReliableChannelTest, RetransmitTimersBackOffExponentially) {
  ReliableConfig cfg;
  cfg.initial_rto = SimTime::from_seconds(10.0);
  cfg.backoff = 2.0;
  cfg.max_rto = SimTime::from_seconds(40.0);
  ReliableSender sender(DcId(1), cfg);
  (void)seal_one(sender, sample_report(), SimTime(0));

  EXPECT_TRUE(sender.due_retransmits(SimTime::from_seconds(9.0)).empty());
  EXPECT_EQ(sender.due_retransmits(SimTime::from_seconds(10.0)).size(), 1u);
  // Backed off to 20 s: due again at t=30, not t=29.
  EXPECT_TRUE(sender.due_retransmits(SimTime::from_seconds(29.0)).empty());
  EXPECT_EQ(sender.due_retransmits(SimTime::from_seconds(30.0)).size(), 1u);
  EXPECT_EQ(sender.snapshot().retransmits, 2u);
}

TEST(ReliableChannelTest, BufferOverflowEvictsOldest) {
  ReliableConfig cfg;
  cfg.buffer_limit = 4;
  ReliableSender sender(DcId(1), cfg);
  for (int i = 0; i < 6; ++i) {
    (void)seal_one(sender, sample_report(), SimTime(0));
  }
  EXPECT_EQ(sender.unacked(), 4u);
  EXPECT_EQ(sender.snapshot().overflow_dropped, 2u);
  EXPECT_EQ(sender.last_sequence(), 6u);
}

TEST(ReliableChannelTest, AdvertisedTailSequenceRevealsLoss) {
  ReliableReceiver receiver;
  receiver.on_envelope(DcId(1), 1);
  // A heartbeat advertises sequence 3: 2 and 3 are missing in flight.
  EXPECT_EQ(receiver.on_advertised(DcId(1), 3), 2u);
  EXPECT_EQ(receiver.on_advertised(DcId(1), 3), 0u);  // already known
  EXPECT_EQ(receiver.open_gaps(DcId(1)), 2u);
  EXPECT_EQ(receiver.cumulative(DcId(1)), 1u);
}

TEST(ReliableChannelTest, RetransmitDebtObservableInTelemetry) {
  // The retransmit window used to be a black box until the dead-letter
  // warning fired; now the inflight gauge tracks unacked entries across
  // every live sender, and a counter fires when an entry first hits the
  // backoff ceiling. Deltas, not absolutes: other senders in this process
  // may have touched the same metrics.
  auto& reg = telemetry::Registry::instance();
  auto& inflight = reg.gauge("net.retransmit_inflight");
  auto& ceiling = reg.counter("net.retransmit_max_backoff");
  const double g0 = inflight.value();
  const std::uint64_t c0 = ceiling.value();

  ReliableConfig cfg;
  cfg.initial_rto = SimTime::from_seconds(10.0);
  cfg.max_rto = SimTime::from_seconds(40.0);
  {
    ReliableSender sender(DcId(91), cfg);
    (void)seal_one(sender, sample_report(), SimTime(0));
    (void)seal_one(sender, sample_report(), SimTime(0));
    EXPECT_DOUBLE_EQ(inflight.value(), g0 + 2);

    // RTO walks 10 -> 20 -> 40 (ceiling, counted once per entry) -> 40.
    (void)sender.due_retransmits(SimTime::from_seconds(10.0));
    (void)sender.due_retransmits(SimTime::from_seconds(30.0));
    EXPECT_EQ(sender.snapshot().max_backoff_hits, 2u);
    EXPECT_EQ(ceiling.value(), c0 + 2);
    (void)sender.due_retransmits(SimTime::from_seconds(100.0));
    EXPECT_EQ(ceiling.value(), c0 + 2);  // already at the ceiling: no recount

    sender.on_ack(AckMessage{DcId(91), 1});
    EXPECT_DOUBLE_EQ(inflight.value(), g0 + 1);
  }
  // A sender dying with unacked entries returns its share of the debt.
  EXPECT_DOUBLE_EQ(inflight.value(), g0);
}

// ---------------------------------------------------------------------------
// Fleet-summary wire protocol (the ship-to-shore digest).

FleetSummary sample_summary() {
  FleetSummary s;
  s.ship = ShipId(7);
  s.ship_name = "Hull-07";
  s.timestamp = SimTime::from_seconds(3600.0);
  s.dcs_alive = 3;
  s.dcs_stale = 1;
  s.dcs_lost = 0;
  s.quarantine_active = 2;
  s.quarantine_total = 11;

  MachineHealthSummary motor;
  motor.machine = ObjectId(17);
  motor.name = "A/C Compressor Motor 1";
  motor.klass = "Motor";
  motor.health = 0.72;
  motor.has_diagnosis = true;
  motor.top_mode = domain::FailureMode::MotorImbalance;
  motor.top_belief = 0.83;
  motor.top_severity = 0.6;
  motor.priority = 0.498;
  motor.report_count = 5;
  motor.has_median_ttf = true;
  motor.median_ttf = SimTime::from_hours(96.0);
  s.machines.push_back(motor);

  MachineHealthSummary pump;
  pump.machine = ObjectId(21);
  pump.name = "Chilled Water Pump 1";
  pump.klass = "Pump";
  pump.health = 0.98;
  s.machines.push_back(pump);
  return s;
}

TEST(FleetSummaryProtocolTest, SerializeDeserializeRoundTrip) {
  const FleetSummary original = sample_summary();
  const auto bytes = serialize(original);
  const auto decoded = try_deserialize_fleet_summary(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, original);
}

TEST(FleetSummaryProtocolTest, EnvelopeRoundTripOnTheWire) {
  FleetSummaryEnvelope env;
  env.ship = ShipId(7);
  env.sequence = 42;
  env.summary = sample_summary();
  const auto wire = wrap(env);
  ASSERT_EQ(try_peek_type(wire), MessageType::FleetSummaryEnvelopeMsg);
  const auto decoded = try_unwrap_fleet_envelope(wire);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, env);
}

TEST(FleetSummaryProtocolTest, ZeroSequenceEnvelopeRejected) {
  FleetSummaryEnvelope env;
  env.ship = ShipId(7);
  env.sequence = 0;  // reliable streams start at 1
  env.summary = sample_summary();
  EXPECT_FALSE(try_unwrap_fleet_envelope(wrap(env)).has_value());
}

TEST(FuzzDecodeTest, FleetSummaryEveryTruncationReturnsNullopt) {
  const auto bytes = serialize(sample_summary());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(try_deserialize_fleet_summary(
                     std::span(bytes.data(), len)).has_value())
        << "prefix of " << len << " bytes decoded";
  }
  const auto wire = wrap(FleetSummaryEnvelope{ShipId(7), 3, sample_summary()});
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(try_unwrap_fleet_envelope(
                     std::span(wire.data(), len)).has_value())
        << "envelope prefix of " << len << " bytes decoded";
  }
}

TEST(FuzzDecodeTest, FleetSummarySingleByteCorruptionNeverCrashes) {
  const auto clean = serialize(sample_summary());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    auto bytes = clean;
    bytes[i] ^= 0xFF;
    (void)try_deserialize_fleet_summary(bytes);
  }
  auto bad_magic = clean;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(try_deserialize_fleet_summary(bad_magic).has_value());
  auto bad_version = clean;
  bad_version[2] = 0xEE;
  EXPECT_FALSE(try_deserialize_fleet_summary(bad_version).has_value());
}

TEST(FuzzDecodeTest, FleetSummaryHugeMachineCountRejectedBeforeAllocation) {
  // With no machines, the trailing u32 is the machine count.
  FleetSummary s = sample_summary();
  s.machines.clear();
  auto bytes = serialize(s);
  for (std::size_t i = bytes.size() - 4; i < bytes.size(); ++i) {
    bytes[i] = 0xFF;
  }
  EXPECT_FALSE(try_deserialize_fleet_summary(bytes).has_value());
}

TEST(FuzzDecodeTest, FleetEnvelopeWrongTypeReturnsNullopt) {
  EXPECT_FALSE(
      try_unwrap_fleet_envelope(wrap_one(sample_report())).has_value());
  const auto wire = wrap(FleetSummaryEnvelope{ShipId(7), 3, sample_summary()});
  EXPECT_FALSE(unwrap_one(wire).has_value());
  EXPECT_FALSE(try_unwrap_ack(wire).has_value());
}

TEST(FuzzDecodeTest, FleetDecodersSurviveRandomBuffers) {
  Rng rng(0xF1EE);
  for (int round = 0; round < 2000; ++round) {
    std::vector<std::uint8_t> junk(rng.integer(0, 255));
    for (auto& b : junk) {
      b = static_cast<std::uint8_t>(rng.integer(0, 255));
    }
    (void)try_deserialize_fleet_summary(junk);
    (void)try_unwrap_fleet_envelope(junk);
  }
}

// ---------------------------------------------------------------------------
// Runtime-control-plane wire protocol (CommandMessage + CommandEnvelope).

CommandMessage sample_command() {
  CommandMessage cmd;
  cmd.target = DcId(3);
  cmd.revision = 12;
  cmd.issued_at = SimTime::from_seconds(1234.0);
  cmd.settings = {{"validator.spike_sigmas", 7.5}, {"dc.enable_fuzzy", 0.0}};
  cmd.reason = "ops: tighten spike screening";
  return cmd;
}

TEST(CommandProtocolTest, SerializeDeserializeRoundTrip) {
  const CommandMessage original = sample_command();
  const auto decoded = try_deserialize_command(serialize(original));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, original);
}

TEST(CommandProtocolTest, BareAndEnvelopedWireRoundTrip) {
  const CommandMessage cmd = sample_command();
  // The shore-downlink hop carries the bare command.
  const auto bare = wrap(cmd);
  ASSERT_EQ(try_peek_type(bare), MessageType::Command);
  const auto bare_back = try_unwrap_command(bare);
  ASSERT_TRUE(bare_back.has_value());
  EXPECT_EQ(*bare_back, cmd);

  // The PDME -> DC hop seals it in the reliable command stream.
  const CommandEnvelope env{DcId(3), 5, cmd};
  const auto wire = wrap(env);
  ASSERT_EQ(try_peek_type(wire), MessageType::CommandEnvelopeMsg);
  const auto env_back = try_unwrap_command_envelope(wire);
  ASSERT_TRUE(env_back.has_value());
  EXPECT_EQ(*env_back, env);
}

TEST(CommandProtocolTest, ZeroSequenceEnvelopeRejected) {
  const CommandEnvelope env{DcId(3), 0, sample_command()};
  EXPECT_FALSE(try_unwrap_command_envelope(wrap(env)).has_value());
}

TEST(CommandProtocolTest, EmptySettingsAndReasonAllowed) {
  CommandMessage cmd;
  cmd.target = DcId(1);
  const auto decoded = try_deserialize_command(serialize(cmd));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, cmd);
}

TEST(FuzzDecodeTest, CommandEveryTruncationReturnsNullopt) {
  const auto bytes = serialize(sample_command());
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_FALSE(
        try_deserialize_command(std::span(bytes.data(), len)).has_value())
        << "prefix of " << len << " bytes decoded";
  }
  const auto wire = wrap(CommandEnvelope{DcId(3), 5, sample_command()});
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(
        try_unwrap_command_envelope(std::span(wire.data(), len)).has_value())
        << "envelope prefix of " << len << " bytes decoded";
  }
}

TEST(FuzzDecodeTest, CommandSingleByteCorruptionNeverCrashes) {
  const auto clean = serialize(sample_command());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    auto bytes = clean;
    bytes[i] ^= 0xFF;
    (void)try_deserialize_command(bytes);
  }
  auto bad_magic = clean;
  bad_magic[0] ^= 0xFF;
  EXPECT_FALSE(try_deserialize_command(bad_magic).has_value());
  auto bad_version = clean;
  bad_version[2] = 0xEE;
  EXPECT_FALSE(try_deserialize_command(bad_version).has_value());
}

TEST(FuzzDecodeTest, CommandHugeSettingsCountRejectedBeforeAllocation) {
  // With no settings, the trailing u32 is the settings count.
  CommandMessage cmd = sample_command();
  cmd.settings.clear();
  auto bytes = serialize(cmd);
  for (std::size_t i = bytes.size() - 4; i < bytes.size(); ++i) {
    bytes[i] = 0xFF;
  }
  EXPECT_FALSE(try_deserialize_command(bytes).has_value());
}

TEST(FuzzDecodeTest, CommandWrongTypeReturnsNullopt) {
  EXPECT_FALSE(try_unwrap_command(wrap_one(sample_report())).has_value());
  EXPECT_FALSE(try_unwrap_command_envelope(wrap(sample_command())).has_value());
  const auto wire = wrap(CommandEnvelope{DcId(3), 5, sample_command()});
  EXPECT_FALSE(try_unwrap_command(wire).has_value());
  EXPECT_FALSE(unwrap_one(wire).has_value());
  EXPECT_FALSE(try_unwrap_ack(wire).has_value());
  EXPECT_FALSE(try_unwrap_test_command(wire).has_value());
}

TEST(FuzzDecodeTest, CommandDecodersSurviveRandomBuffers) {
  Rng rng(0xC04D);
  for (int round = 0; round < 2000; ++round) {
    std::vector<std::uint8_t> junk(rng.integer(0, 255));
    for (auto& b : junk) {
      b = static_cast<std::uint8_t>(rng.integer(0, 255));
    }
    (void)try_deserialize_command(junk);
    (void)try_unwrap_command(junk);
    (void)try_unwrap_command_envelope(junk);
  }
}

// ---------------------------------------------------------------------------
// TestCommandMessage fuzz coverage (the §5.8 scheduler command), matching
// the FleetSummary/Command suites above.

TestCommandMessage sample_test_command() {
  TestCommandMessage cmd;
  cmd.target = DcId(4);
  cmd.command = TestCommandMessage::Command::VibrationTest;
  cmd.reason = "PDME retest after fused severity jump";
  return cmd;
}

TEST(FuzzDecodeTest, TestCommandEveryTruncationReturnsNullopt) {
  const auto wire = wrap(sample_test_command());
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(
        try_unwrap_test_command(std::span(wire.data(), len)).has_value())
        << "prefix of " << len << " bytes decoded";
  }
}

TEST(FuzzDecodeTest, TestCommandSingleByteCorruptionNeverCrashes) {
  const auto clean = wrap(sample_test_command());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    auto bytes = clean;
    bytes[i] ^= 0xFF;
    (void)try_unwrap_test_command(bytes);
  }
  auto wrong_type = clean;
  wrong_type[0] = static_cast<std::uint8_t>(MessageType::Ack);
  EXPECT_FALSE(try_unwrap_test_command(wrong_type).has_value());
}

TEST(FuzzDecodeTest, TestCommandSurvivesRandomBuffers) {
  Rng rng(0x7E57);
  for (int round = 0; round < 2000; ++round) {
    std::vector<std::uint8_t> junk(rng.integer(0, 255));
    for (auto& b : junk) {
      b = static_cast<std::uint8_t>(rng.integer(0, 255));
    }
    (void)try_unwrap_test_command(junk);
  }
}

// ---------------------------------------------------------------------------
// ReportBatch wire protocol (E21 batched ingest): wrap_batch_envelope and
// the arena decoder, mirrored on the CommandMessage suites above.

std::vector<FailureReport> sample_window_reports() {
  std::vector<FailureReport> reports;
  for (int i = 0; i < 3; ++i) {
    FailureReport r = sample_report();
    r.sensed_object = ObjectId(17 + i);
    r.severity = 0.3 + 0.2 * i;
    r.timestamp = SimTime::from_seconds(100.0 * (i + 1));
    if (i == 1) r.prognostics.clear();  // mixed payload shapes in one batch
    reports.push_back(std::move(r));
  }
  return reports;
}

TEST(BatchProtocolTest, BareWireRoundTrip) {
  // Sequence 0: an unsequenced batch, outside any reliable stream.
  const auto reports = sample_window_reports();
  const auto wire = wrap_batch_envelope(DcId(3), 0, reports);
  ASSERT_EQ(try_peek_type(wire), MessageType::ReportBatchEnvelopeMsg);

  std::vector<ReportEnvelope> arena;
  const auto view = try_unwrap_reports_into(wire, arena);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->dc, DcId(3));
  EXPECT_EQ(view->sequence, 0u);
  ASSERT_EQ(view->count, reports.size());
  for (std::size_t i = 0; i < reports.size(); ++i) {
    EXPECT_EQ(arena[i].report, reports[i]);
    EXPECT_EQ(arena[i].dc, DcId(3));
    EXPECT_EQ(arena[i].sequence, 0u);
  }
}

TEST(BatchProtocolTest, SequencedWireRoundTrip) {
  const auto reports = sample_window_reports();
  const auto wire = wrap_batch_envelope(DcId(3), 7, reports);
  ASSERT_EQ(try_peek_type(wire), MessageType::ReportBatchEnvelopeMsg);

  std::vector<ReportEnvelope> arena;
  const auto view = try_unwrap_reports_into(wire, arena);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->dc, DcId(3));
  EXPECT_EQ(view->sequence, 7u);
  ASSERT_EQ(view->count, reports.size());
  for (std::size_t i = 0; i < reports.size(); ++i) {
    EXPECT_EQ(arena[i].report, reports[i]);
    EXPECT_EQ(arena[i].sequence, 7u);
  }
}

TEST(BatchProtocolTest, EmptyBatchAllowed) {
  std::vector<ReportEnvelope> arena;
  const auto view =
      try_unwrap_reports_into(wrap_batch_envelope(DcId(2), 0, {}), arena);
  ASSERT_TRUE(view.has_value());
  EXPECT_EQ(view->dc, DcId(2));
  EXPECT_EQ(view->count, 0u);
}

TEST(BatchProtocolTest, ForgedSourceDcRejected) {
  // A frame claiming a DC other than the batch header's is a forgery: the
  // whole datagram fails, not just the one frame.
  auto reports = sample_window_reports();
  reports[1].dc = DcId(4);
  std::vector<ReportEnvelope> arena;
  EXPECT_FALSE(
      try_unwrap_reports_into(wrap_batch_envelope(DcId(3), 7, reports), arena)
          .has_value());
}

TEST(BatchProtocolTest, ArenaOnlyGrowsAcrossDecodes) {
  const auto reports = sample_window_reports();
  std::vector<ReportEnvelope> arena;
  ASSERT_TRUE(
      try_unwrap_reports_into(wrap_batch_envelope(DcId(3), 0, reports), arena)
          .has_value());
  const std::size_t high_water = arena.size();
  ASSERT_EQ(high_water, reports.size());

  // A smaller batch decodes into the same slots: size never shrinks, and
  // only the returned prefix is meaningful.
  const auto one = try_unwrap_reports_into(
      wrap_batch_envelope(DcId(3), 0, std::span(reports.data(), 1)), arena);
  ASSERT_TRUE(one.has_value());
  EXPECT_EQ(one->count, 1u);
  EXPECT_EQ(arena.size(), high_water);
  EXPECT_EQ(arena.front().report, reports[0]);
}

TEST(FuzzDecodeTest, BatchEveryTruncationReturnsNullopt) {
  std::vector<ReportEnvelope> arena;
  const auto wire = wrap_batch_envelope(DcId(3), 7, sample_window_reports());
  for (std::size_t len = 0; len < wire.size(); ++len) {
    EXPECT_FALSE(
        try_unwrap_reports_into(std::span(wire.data(), len), arena)
            .has_value())
        << "prefix of " << len << " bytes decoded";
  }
}

TEST(FuzzDecodeTest, BatchSingleByteCorruptionNeverCrashes) {
  std::vector<ReportEnvelope> arena;
  const auto clean = wrap_batch_envelope(DcId(3), 7, sample_window_reports());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    auto bytes = clean;
    bytes[i] ^= 0xFF;
    (void)try_unwrap_reports_into(bytes, arena);
  }
  // Type byte, u64 dc, u64 sequence, then the u16 batch magic.
  auto bad_magic = clean;
  bad_magic[17] ^= 0xFF;
  EXPECT_FALSE(try_unwrap_reports_into(bad_magic, arena).has_value());
  auto bad_version = clean;
  bad_version[19] = 0xEE;
  EXPECT_FALSE(try_unwrap_reports_into(bad_version, arena).has_value());
}

TEST(FuzzDecodeTest, BatchHugeCountRejectedBeforeAllocation) {
  // An empty batch's trailing u32 is the report count: saturate it and the
  // decoder must reject on the payload-capacity bound without ever growing
  // the arena.
  auto bytes = wrap_batch_envelope(DcId(3), 7, {});
  for (std::size_t i = bytes.size() - 4; i < bytes.size(); ++i) {
    bytes[i] = 0xFF;
  }
  std::vector<ReportEnvelope> arena;
  EXPECT_FALSE(try_unwrap_reports_into(bytes, arena).has_value());
  EXPECT_TRUE(arena.empty());
}

TEST(FuzzDecodeTest, BatchWrongTypeReturnsNullopt) {
  std::vector<ReportEnvelope> arena;
  EXPECT_FALSE(
      try_unwrap_reports_into(wrap(sample_command()), arena).has_value());
  EXPECT_FALSE(
      try_unwrap_reports_into(wrap(sample_test_command()), arena)
          .has_value());
  const auto wire = wrap_batch_envelope(DcId(3), 7, sample_window_reports());
  EXPECT_FALSE(try_unwrap_command(wire).has_value());
  EXPECT_FALSE(try_unwrap_sensor_data(wire).has_value());
  EXPECT_FALSE(try_unwrap_ack(wire).has_value());
}

TEST(FuzzDecodeTest, BatchDecoderSurvivesRandomBuffers) {
  Rng rng(0xBA7C);
  std::vector<ReportEnvelope> arena;
  for (int round = 0; round < 2000; ++round) {
    std::vector<std::uint8_t> junk(rng.integer(0, 255));
    for (auto& b : junk) {
      b = static_cast<std::uint8_t>(rng.integer(0, 255));
    }
    (void)try_unwrap_reports_into(junk, arena);
  }
}

// ---------------------------------------------------------------------------
// Retransmit/heartbeat de-synchronization (the thundering-herd guard).

TEST(DesyncPhaseTest, PhasesDeterministicBoundedAndSpread) {
  const SimTime period = SimTime::from_seconds(60.0);
  std::set<std::int64_t> distinct;
  for (std::uint64_t id = 1; id <= 200; ++id) {
    const SimTime phase = desync_phase(id, period);
    // Deterministic: a restarted owner keeps its phase.
    EXPECT_EQ(phase, desync_phase(id, period));
    // Bounded: within [0, period/4) so cadence guarantees barely move.
    EXPECT_GE(phase.micros(), 0);
    EXPECT_LT(phase.micros(), period.micros() / 4);
    distinct.insert(phase.micros());
  }
  // Spread: 200 DCs brought up together must not share a handful of slots.
  EXPECT_GT(distinct.size(), 150u);
  // Degenerate periods fall back to no offset rather than dividing by zero.
  EXPECT_EQ(desync_phase(7, SimTime(0)), SimTime(0));
}

TEST(DesyncPhaseTest, SweepAndHeartbeatStreamsOfOneDcDiffer) {
  // The DC derives sweep phase from id<<1 and heartbeat phase from
  // (id<<1)|1: the two schedules of a single DC must not collide either.
  const SimTime period = SimTime::from_seconds(60.0);
  std::size_t differing = 0;
  for (std::uint64_t id = 1; id <= 50; ++id) {
    if (desync_phase(id << 1, period) != desync_phase((id << 1) | 1, period)) {
      ++differing;
    }
  }
  EXPECT_GT(differing, 45u);
}

// ---------------------------------------------------------------------------
// ReliableSender under a persistent outage: backoff caps at max_rto, the
// ceiling is observable, and the window drains once the link heals.

TEST(ReliableChannelTest, PersistentOutageCapsBackoffThenDrains) {
  auto& ceiling =
      telemetry::Registry::instance().counter("net.retransmit_max_backoff");
  const std::uint64_t c0 = ceiling.value();

  SimNetwork net;  // no random loss; the outage does the damage
  ReliableConfig cfg;
  cfg.initial_rto = SimTime::from_seconds(60.0);
  cfg.backoff = 2.0;
  cfg.max_rto = SimTime::from_seconds(240.0);
  ReliableSender sender(DcId(5), cfg);
  ReliableReceiver receiver;

  std::vector<AckMessage> acks;
  net.register_endpoint("pdme", [&](const Message& msg) {
    const auto env = unwrap_one(msg.payload);
    ASSERT_TRUE(env.has_value());
    const auto out = receiver.on_envelope(env->dc, env->sequence);
    if (!out.duplicate) acks.push_back(out.ack);
  });

  // The link is down from the start until t=3600 s.
  net.schedule_outage({"pdme", SimTime(0), SimTime::from_seconds(3600.0), 1.0});
  FailureReport report = sample_report();
  report.dc = DcId(5);
  net.send("dc-5", "pdme", seal_one(sender, report, SimTime(0)), SimTime(0));

  // Sweep once a minute through the outage: RTO walks 60 -> 120 -> 240
  // (ceiling) -> 240 -> ... Retransmits land at 60, 180, 420, 660, ...
  std::uint64_t sweeps_with_work = 0;
  for (double t = 60.0; t <= 3600.0; t += 60.0) {
    const auto due = sender.due_retransmits(SimTime::from_seconds(t));
    sweeps_with_work += due.empty() ? 0 : 1;
    for (const auto& payload : due) {
      net.send("dc-5", "pdme", payload, SimTime::from_seconds(t));
    }
    net.advance_to(SimTime::from_seconds(t));
  }
  // 60, 180, 420 then every 240 s from 660 through 3540: 3 + 13 rounds.
  EXPECT_EQ(sweeps_with_work, 16u);
  EXPECT_EQ(sender.snapshot().max_backoff_hits, 1u);  // counted once per entry
  EXPECT_EQ(ceiling.value(), c0 + 1);
  EXPECT_EQ(sender.unacked(), 1u);  // nothing got through, nothing lost
  EXPECT_TRUE(acks.empty());

  // The link heals: the next due retransmit is delivered, acked, retired.
  const auto due = sender.due_retransmits(SimTime::from_seconds(3780.0));
  ASSERT_EQ(due.size(), 1u);
  net.send("dc-5", "pdme", due[0], SimTime::from_seconds(3780.0));
  net.advance_to(SimTime::from_seconds(3800.0));
  ASSERT_EQ(acks.size(), 1u);
  sender.on_ack(acks[0]);
  EXPECT_EQ(sender.unacked(), 0u);
  EXPECT_TRUE(sender.due_retransmits(SimTime::from_hours(24.0)).empty());
}


// The wire bytes of every datagram, recorded before the codec moved to
// mpros/common: any change to a byte layout fails here first.
// One fixed instance of every datagram the ship and shore exchange.
std::vector<std::pair<std::string, std::vector<std::uint8_t>>> wire_samples() {
  FailureReport a;
  a.dc = DcId(3);
  a.knowledge_source = KnowledgeSourceId(1);
  a.sensed_object = ObjectId(17);
  a.machine_condition = ConditionId(5);
  a.severity = 0.625;
  a.belief = 0.875;
  a.explanation = "1x amplitude high";
  a.recommendations = "Balance rotor.";
  a.timestamp = SimTime(1234500000);
  a.additional_info = "load=0.8";
  a.prognostics = {{0.25, 86400.0}, {0.5, 604800.0}};
  a.trace = 99;
  FailureReport b;
  b.dc = DcId(3);
  b.knowledge_source = KnowledgeSourceId(2);
  b.sensed_object = ObjectId(18);
  b.machine_condition = ConditionId(9);
  b.severity = 0.125;
  b.timestamp = SimTime(1234600000);
  const std::vector<FailureReport> batch{a, b};

  SensorDataMessage sensor;
  sensor.dc = DcId(1);
  sensor.machine = ObjectId(4);
  sensor.timestamp = SimTime(5000000);
  sensor.values = {{"temp", 71.25}, {"rpm", 1780.0}};

  TestCommandMessage test;
  test.target = DcId(2);
  test.reason = "operator request";

  CommandMessage command;
  command.target = DcId(5);
  command.revision = 3;
  command.issued_at = SimTime(7000000);
  command.settings = {{"vibration.enabled", 0.0}, {"period_s", 30.0}};
  command.reason = "tune";

  MachineHealthSummary m1;
  m1.machine = ObjectId(11);
  m1.name = "Motor 1";
  m1.klass = "InductionMotor";
  m1.health = 0.5;
  m1.has_diagnosis = true;
  m1.top_mode = domain::FailureMode::MotorImbalance;
  m1.top_belief = 0.75;
  m1.top_severity = 0.5;
  m1.priority = 0.375;
  m1.report_count = 4;
  m1.has_median_ttf = true;
  m1.median_ttf = SimTime(86400000000);
  MachineHealthSummary m2;
  m2.machine = ObjectId(12);
  m2.name = "Pump 1";
  m2.klass = "CentrifugalPump";
  FleetSummaryEnvelope fleet;
  fleet.ship = ShipId(2);
  fleet.sequence = 4;
  fleet.summary.ship = ShipId(2);
  fleet.summary.ship_name = "Hull-02";
  fleet.summary.timestamp = SimTime(3600000000);
  fleet.summary.dcs_alive = 3;
  fleet.summary.dcs_stale = 1;
  fleet.summary.quarantine_active = 1;
  fleet.summary.quarantine_total = 6;
  fleet.summary.machines = {m1, m2};

  return {
      {"report batch", wrap_batch_envelope(DcId(3), 7, batch)},
      {"ack", wrap(AckMessage{DcId(3), 41})},
      {"heartbeat", wrap(HeartbeatMessage{DcId(2), SimTime(12500000), 9})},
      {"sensor data", wrap(sensor)},
      {"test command", wrap(test)},
      {"command", wrap(command)},
      {"command envelope", wrap(CommandEnvelope{DcId(5), 2, command})},
      {"fleet summary", wrap(fleet)},
  };
}

std::string hex(std::span<const std::uint8_t> bytes) {
  static constexpr char kDigits[] = "0123456789abcdef";
  std::string out;
  for (const std::uint8_t b : bytes) {
    out += kDigits[b >> 4];
    out += kDigits[b & 0xF];
  }
  return out;
}

TEST(WireBytesTest, EveryDatagramMatchesRecordedHex) {
  const std::map<std::string, std::string> recorded{
      {"report batch",
       "0b03000000000000000700000000000000524201030000000000000002000000"
       "524d026300000000000000030000000000000001000000000000001100000000"
       "0000000500000000000000000000000000e43f000000000000ec3f1100000031"
       "7820616d706c697475646520686967680e00000042616c616e636520726f746f"
       "722ea0f9944900000000080000006c6f61643d302e3802000000000000000000"
       "d03f000000000018f540000000000000e03f0000000000752241524d02000000"
       "0000000000030000000000000002000000000000001200000000000000090000"
       "0000000000000000000000c03f000000000000f03f0000000000000000408096"
       "49000000000000000000000000"},
      {"ack",
       "0503000000000000002900000000000000"},
      {"heartbeat",
       "06020000000000000020bcbe00000000000900000000000000"},
      {"sensor data",
       "0201000000000000000400000000000000404b4c000000000002000000040000"
       "0074656d700000000000d051400300000072706d0000000000d09b40"},
      {"test command",
       "03020000000000000001100000006f70657261746f722072657175657374"},
      {"command",
       "084d430105000000000000000300000000000000c0cf6a000000000004000000"
       "74756e650200000011000000766962726174696f6e2e656e61626c6564000000"
       "000000000008000000706572696f645f730000000000003e40"},
      {"command envelope",
       "09050000000000000002000000000000004d4301050000000000000003000000"
       "00000000c0cf6a00000000000400000074756e65020000001100000076696272"
       "6174696f6e2e656e61626c6564000000000000000008000000706572696f645f"
       "730000000000003e40"},
      {"fleet summary",
       "0702000000000000000400000000000000534601020000000000000007000000"
       "48756c6c2d303200a493d6000000000300000001000000000000000100000006"
       "00000000000000020000000b00000000000000070000004d6f746f7220310e00"
       "0000496e64756374696f6e4d6f746f72000000000000e03f0300000000000000"
       "e83f000000000000e03f000000000000d83f040000000060d71d140000000c00"
       "0000000000000600000050756d7020310f00000043656e747269667567616c50"
       "756d70000000000000f03f00"},
  };
  const auto samples = wire_samples();
  ASSERT_EQ(samples.size(), recorded.size());
  for (const auto& [name, bytes] : samples) {
    ASSERT_TRUE(recorded.contains(name)) << name;
    EXPECT_EQ(hex(bytes), recorded.at(name)) << name;
  }
}

}  // namespace
}  // namespace mpros::net

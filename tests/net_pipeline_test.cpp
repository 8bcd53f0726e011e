// Integration tests of the emitter → collector telemetry path over loopback
// TCP: the stand-in for the paper's client-measured, server-logged latency
// pipeline (§3.1).
#include <gtest/gtest.h>

#include <cmath>
#include <thread>
#include <vector>

#include "net/collector.h"
#include "net/emitter.h"
#include "net/fault.h"
#include "net/wire.h"
#include "stats/rng.h"
#include "telemetry/record.h"

namespace autosens::net {
namespace {

using telemetry::ActionRecord;

std::vector<ActionRecord> make_records(std::size_t n, std::uint64_t seed) {
  stats::Random random(seed);
  std::vector<ActionRecord> records;
  std::int64_t t = 0;
  for (std::size_t i = 0; i < n; ++i) {
    t += static_cast<std::int64_t>(random.exponential(0.01)) + 1;
    // The wire codec carries latency at 10 µs resolution; emit values on
    // that grid so the roundtrip comparison can be exact.
    records.push_back({.time_ms = t,
                       .user_id = 1 + random.uniform_index(10),
                       .latency_ms = std::round(random.lognormal(5.0, 0.4) * 100.0) / 100.0,
                       .action = telemetry::ActionType::kSelectMail,
                       .user_class = telemetry::UserClass::kBusiness,
                       .status = telemetry::ActionStatus::kSuccess});
  }
  return records;
}

TEST(NetPipelineTest, SingleEmitterDeliversAllRecords) {
  CollectorThread collector(/*expected_goodbyes=*/1);
  const auto records = make_records(5000, 1);
  {
    Emitter emitter(collector.port(), {.batch_size = 128});
    for (const auto& r : records) emitter.record(r);
    emitter.close();
    EXPECT_EQ(emitter.sent_records(), records.size());
  }
  const auto dataset = collector.join();
  ASSERT_EQ(dataset.size(), records.size());
  EXPECT_TRUE(dataset.is_sorted());
  for (std::size_t i = 0; i < records.size(); ++i) EXPECT_EQ(dataset[i], records[i]);
}

TEST(NetPipelineTest, PartialBatchFlushedOnClose) {
  CollectorThread collector(1);
  {
    Emitter emitter(collector.port(), {.batch_size = 1000});
    for (const auto& r : make_records(7, 2)) emitter.record(r);
    emitter.close();
  }
  EXPECT_EQ(collector.join().size(), 7u);
}

TEST(NetPipelineTest, ExplicitFlushDeliversPending) {
  CollectorThread collector(1);
  Emitter emitter(collector.port(), {.batch_size = 1000});
  for (const auto& r : make_records(10, 3)) emitter.record(r);
  emitter.flush();
  emitter.close();
  const auto dataset = collector.join();
  EXPECT_EQ(dataset.size(), 10u);
  EXPECT_EQ(collector.stats().flushes, 1u);
}

TEST(NetPipelineTest, SequentialEmittersMerge) {
  CollectorThread collector(/*expected_goodbyes=*/3);
  const auto batch1 = make_records(100, 4);
  const auto batch2 = make_records(200, 5);
  const auto batch3 = make_records(50, 6);
  for (const auto* batch : {&batch1, &batch2, &batch3}) {
    Emitter emitter(collector.port());
    for (const auto& r : *batch) emitter.record(r);
    emitter.close();
  }
  const auto dataset = collector.join();
  EXPECT_EQ(dataset.size(), batch1.size() + batch2.size() + batch3.size());
  EXPECT_TRUE(dataset.is_sorted());
}

TEST(NetPipelineTest, RecordAfterCloseThrows) {
  CollectorThread collector(1);
  Emitter emitter(collector.port());
  emitter.close();
  EXPECT_THROW(emitter.record(ActionRecord{}), std::logic_error);
  EXPECT_THROW(emitter.flush(), std::logic_error);
  collector.join();
}

TEST(NetPipelineTest, CloseIsIdempotent) {
  CollectorThread collector(1);
  Emitter emitter(collector.port());
  emitter.record(ActionRecord{.time_ms = 1, .user_id = 1, .latency_ms = 10.0});
  emitter.close();
  emitter.close();  // no-op
  EXPECT_EQ(collector.join().size(), 1u);
}

TEST(NetPipelineTest, CollectorStatsAreAccurate) {
  CollectorThread collector(1);
  {
    Emitter emitter(collector.port(), {.batch_size = 10});
    for (const auto& r : make_records(25, 7)) emitter.record(r);
    emitter.flush();
    emitter.close();
  }
  collector.join();
  const auto stats = collector.stats();
  EXPECT_EQ(stats.connections, 1u);
  EXPECT_EQ(stats.records, 25u);
  EXPECT_EQ(stats.flushes, 1u);
  // hello + 2 full batches + flush marker + final partial batch + goodbye.
  EXPECT_EQ(stats.frames, 6u);
  EXPECT_GT(stats.bytes, 0u);
}

TEST(NetPipelineTest, StatsSnapshotIsReadableWhileServing) {
  // The stats cells are atomics precisely so this poll-while-serving pattern
  // is race-free; the TSan harness proves it, this checks the values.
  constexpr std::size_t kRecords = 500;
  CollectorThread collector(1);
  std::thread client([port = collector.port()] {
    Emitter emitter(port, {.batch_size = 32});
    for (const auto& r : make_records(kRecords, 3)) emitter.record(r);
    emitter.close();
  });
  std::size_t max_seen = 0;
  while (max_seen < kRecords) {
    const auto snapshot = collector.stats();
    EXPECT_GE(snapshot.records, max_seen);  // Counters are monotonic.
    max_seen = snapshot.records;
  }
  client.join();
  EXPECT_EQ(collector.join().size(), kRecords);
  EXPECT_EQ(collector.stats().records, kRecords);
}

TEST(NetPipelineTest, ConcurrentEmittersInterleave) {
  // The collector must handle genuinely simultaneous clients whose frames
  // interleave on the wire.
  constexpr std::size_t kClients = 5;
  constexpr std::size_t kPerClient = 2000;
  CollectorThread collector(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (std::size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([port = collector.port(), c] {
      Emitter emitter(port, {.batch_size = 64});
      for (const auto& r : make_records(kPerClient, 100 + c)) emitter.record(r);
      emitter.close();
    });
  }
  for (auto& t : clients) t.join();
  const auto dataset = collector.join();
  EXPECT_EQ(dataset.size(), kClients * kPerClient);
  EXPECT_TRUE(dataset.is_sorted());
  const auto stats = collector.stats();
  EXPECT_EQ(stats.connections, kClients);
  EXPECT_EQ(stats.records, kClients * kPerClient);
  EXPECT_EQ(stats.dropped_connections, 0u);
}

TEST(NetPipelineTest, MalformedStreamIsDroppedNotFatal) {
  CollectorThread collector(/*expected_goodbyes=*/1);
  {
    // A raw client that sends garbage.
    Socket bad = connect_tcp(collector.port());
    const std::vector<std::uint8_t> garbage = {99, 1, 2, 3, 4, 5, 6, 7, 8, 9};
    write_all(bad, garbage);
  }
  // A well-behaved client afterwards still gets through.
  Emitter emitter(collector.port());
  for (const auto& r : make_records(10, 9)) emitter.record(r);
  emitter.close();
  const auto dataset = collector.join();
  EXPECT_EQ(dataset.size(), 10u);
  EXPECT_EQ(collector.stats().dropped_connections, 1u);
}

// --- Fault-injected resilience scenarios (satellite: deterministic via
// FaultPlan seeds; sleep_scale = 0 keeps backoff out of wall clock). ---

EmitterOptions faulty_options(FaultySocketOps& ops, std::size_t batch_size = 16) {
  return EmitterOptions{
      .batch_size = batch_size,
      .retry = {.max_attempts = 10, .backoff_initial_ms = 1, .seed = 0xabc},
      .on_give_up = EmitterOptions::GiveUp::kThrow,
      .ops = &ops,
  };
}

TEST(NetPipelineTest, DisconnectMidFrameIsRetriedToExactDelivery) {
  // Connections die mid-frame (half the frame delivered, then ECONNRESET).
  // The emitter reconnects and retransmits; (session, seq) dedup keeps the
  // dataset exactly-once; the collector resyncs past the torn half-frames.
  CollectorThread collector(/*expected_goodbyes=*/1);
  const auto records = make_records(800, 21);
  FaultySocketOps faulty(
      FaultPlan(0xfa117, {{.fault = FaultClass::kDisconnect,
                           .probability = 0.15,
                           .skip_ops = 1,  // let the first hello through
                           .max_injections = 12}}),
      real_socket_ops(), /*sleep_scale=*/0.0);
  {
    Emitter emitter(collector.port(), faulty_options(faulty));
    for (const auto& r : records) emitter.record(r);
    emitter.close();
    EXPECT_GT(faulty.plan().injected(FaultClass::kDisconnect), 0u);
    EXPECT_GT(emitter.stats().reconnects, 0u);
    EXPECT_GT(emitter.stats().retries, 0u);
    EXPECT_EQ(emitter.dropped_records(), 0u);
  }
  const auto dataset = collector.join();
  EXPECT_TRUE(collector.complete());
  ASSERT_EQ(dataset.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) EXPECT_EQ(dataset[i], records[i]);
  // Every reconnect is the sequel of a connection that ended mid-stream.
  EXPECT_EQ(collector.stats().interrupted_connections,
            collector.stats().session_reconnects);
}

TEST(NetPipelineTest, TornReconnectHelloKeepsCountsPaired) {
  // The first data frame is torn, then the reconnect's hello is torn too.
  // The torn hello's connection never names its session, so it is neither a
  // reconnect nor an interruption (it counts as a dropped connection), and
  // the two counts still pair up.
  CollectorThread collector(/*expected_goodbyes=*/1);
  const auto records = make_records(64, 24);
  FaultySocketOps faulty(
      FaultPlan(0x7e11, {{.fault = FaultClass::kDisconnect,
                          .probability = 1.0,
                          .skip_ops = 1,  // let the first hello through
                          .max_injections = 2}}),
      real_socket_ops(), /*sleep_scale=*/0.0);
  {
    Emitter emitter(collector.port(), faulty_options(faulty));
    for (const auto& r : records) emitter.record(r);
    emitter.close();
    EXPECT_EQ(faulty.plan().injected(FaultClass::kDisconnect), 2u);
    EXPECT_EQ(emitter.stats().reconnects, 1u);  // the torn hello never connected
  }
  const auto dataset = collector.join();
  EXPECT_TRUE(collector.complete());
  ASSERT_EQ(dataset.size(), records.size());
  const auto stats = collector.stats();
  EXPECT_EQ(stats.session_reconnects, 1u);
  EXPECT_EQ(stats.interrupted_connections, 1u);
  EXPECT_EQ(stats.dropped_connections, 1u);
}

TEST(NetPipelineTest, ConnectRefusedIsRetried) {
  CollectorThread collector(1);
  FaultySocketOps faulty(
      FaultPlan(7, {{.fault = FaultClass::kConnectRefused, .max_injections = 3}}),
      real_socket_ops(), 0.0);
  Emitter emitter(collector.port(), faulty_options(faulty));
  for (const auto& r : make_records(20, 22)) emitter.record(r);
  emitter.close();
  EXPECT_EQ(faulty.plan().injected(FaultClass::kConnectRefused), 3u);
  EXPECT_GE(emitter.stats().retries, 3u);
  EXPECT_GT(emitter.stats().backoff_ms, 0u);  // exponential backoff accounted
  EXPECT_EQ(collector.join().size(), 20u);
}

TEST(NetPipelineTest, SlowWriterEagainStallsAreAbsorbed) {
  // EAGAIN stalls on send: write_all must spin (with ops-mediated sleeps,
  // compressed to zero wall clock here) until the kernel accepts the bytes.
  CollectorThread collector(1);
  const auto records = make_records(300, 23);
  FaultySocketOps faulty(
      FaultPlan(0xea9a1, {{.fault = FaultClass::kEagain, .probability = 0.5}}),
      real_socket_ops(), 0.0);
  {
    Emitter emitter(collector.port(), faulty_options(faulty, 32));
    for (const auto& r : records) emitter.record(r);
    emitter.close();
  }
  EXPECT_GT(faulty.plan().injected(FaultClass::kEagain), 0u);
  const auto dataset = collector.join();
  EXPECT_TRUE(collector.complete());
  ASSERT_EQ(dataset.size(), records.size());
  for (std::size_t i = 0; i < records.size(); ++i) EXPECT_EQ(dataset[i], records[i]);
}

TEST(NetPipelineTest, ClientExitsWithoutGoodbyeKeepsRecordsAndCounts) {
  // A raw sender that vanishes after valid data: its records are kept, the
  // connection is counted dropped (no goodbye), and later clients still work.
  CollectorThread collector(/*expected_goodbyes=*/1);
  const auto abandoned = make_records(30, 24);
  {
    Socket raw = connect_tcp(collector.port());
    send_records(raw, abandoned);
  }  // closes without kGoodbye
  Emitter emitter(collector.port());
  for (const auto& r : make_records(10, 25)) emitter.record(r);
  emitter.close();
  const auto dataset = collector.join();
  EXPECT_EQ(dataset.size(), 40u);
  EXPECT_EQ(collector.stats().dropped_connections, 1u);
}

TEST(NetPipelineTest, TwoEmittersOneFaultyBothDeliver) {
  // A healthy emitter must be unaffected by a faulty sibling sharing the
  // collector; both streams arrive complete.
  constexpr std::size_t kPerClient = 400;
  CollectorThread collector(/*expected_goodbyes=*/2);
  std::thread healthy([port = collector.port()] {
    Emitter emitter(port, {.batch_size = 32});
    for (const auto& r : make_records(kPerClient, 26)) emitter.record(r);
    emitter.close();
  });
  std::thread flaky([port = collector.port()] {
    FaultySocketOps faulty(
        FaultPlan(0xbad, {{.fault = FaultClass::kDisconnect,
                           .probability = 0.2,
                           .skip_ops = 1,
                           .max_injections = 8}}),
        real_socket_ops(), 0.0);
    Emitter emitter(port, faulty_options(faulty, 32));
    for (const auto& r : make_records(kPerClient, 27)) emitter.record(r);
    emitter.close();
  });
  healthy.join();
  flaky.join();
  const auto dataset = collector.join();
  EXPECT_TRUE(collector.complete());
  EXPECT_EQ(dataset.size(), 2 * kPerClient);
  EXPECT_TRUE(dataset.is_sorted());
}

TEST(NetPipelineTest, RetryExhaustionDropsWithExactAccounting) {
  // With retries effectively disabled and kDropFrame, every lost frame's
  // records are declared in dropped_records — the degradation contract.
  CollectorThread collector(/*expected_goodbyes=*/1, CollectorOptions{},
                            /*timeout_ms=*/2000);
  const auto records = make_records(200, 28);
  FaultySocketOps faulty(
      FaultPlan(0xdead, {{.fault = FaultClass::kDisconnect,
                          .probability = 1.0,
                          .skip_ops = 1,
                          .max_injections = 4}}),
      real_socket_ops(), 0.0);
  std::size_t delivered = 0;
  std::size_t dropped = 0;
  {
    Emitter emitter(collector.port(),
                    {.batch_size = 16,
                     .retry = {.max_attempts = 2, .backoff_initial_ms = 1, .seed = 1},
                     .on_give_up = EmitterOptions::GiveUp::kDropFrame,
                     .ops = &faulty});
    for (const auto& r : records) emitter.record(r);
    emitter.close();
    delivered = emitter.sent_records();
    dropped = emitter.dropped_records();
  }
  EXPECT_GT(dropped, 0u);
  EXPECT_EQ(delivered + dropped, records.size());
  const auto dataset = collector.join();
  EXPECT_EQ(dataset.size(), delivered);
  EXPECT_EQ(records.size() - dataset.size(), dropped);
}

TEST(NetPipelineTest, EmitterValidatesBatchSize) {
  CollectorThread collector(1);
  EXPECT_THROW(Emitter(collector.port(), {.batch_size = 0}), std::invalid_argument);
  // Unblock the collector.
  Emitter emitter(collector.port());
  emitter.close();
  collector.join();
}

}  // namespace
}  // namespace autosens::net

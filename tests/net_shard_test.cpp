// Sharded-collector correctness against the records the emitters sent.
//
// Every beacon must land exactly once: under every injected failure class,
// at every shard count, the collected Dataset must encode to exactly the
// bytes of the emitted records, time-sorted (expected_bytes — no collector
// involved), with all goodbyes credited. Record times are globally unique,
// so the time-sorted Dataset has one order regardless of arrival
// interleaving or shard placement.
//
// Also covered here: the kEagainStorm class (edge-triggered loops that
// trust one EAGAIN as "drained" lose the edge — the shard's bounded re-poll
// list is the defense), read deadlines enforced by the event-loop timer
// against fully silent connections, SO_REUSEPORT accept sharding, and the
// two per-session bounds against hostile peers (reconnect budget, gap cap).
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "net/collector.h"
#include "net/emitter.h"
#include "net/fault.h"
#include "net/wire.h"
#include "obs/health.h"
#include "telemetry/binlog.h"
#include "telemetry/record.h"

namespace autosens::net {
namespace {

using telemetry::ActionRecord;

/// Records for emitter `t` of `emitters`, with globally unique time_ms
/// (striped across emitters) so the time-sorted Dataset has one
/// deterministic order regardless of arrival interleaving or shard
/// placement.
std::vector<ActionRecord> striped_records(std::size_t per_emitter, std::size_t emitters,
                                          std::size_t t) {
  std::vector<ActionRecord> records;
  records.reserve(per_emitter);
  for (std::size_t i = 0; i < per_emitter; ++i) {
    const auto k = i * emitters + t;
    records.push_back({.time_ms = static_cast<std::int64_t>(k + 1),
                       .user_id = 1 + k % 7,
                       .latency_ms = 1.0 + 0.01 * static_cast<double>(k % 1000),
                       .action = telemetry::ActionType::kSearch,
                       .user_class = telemetry::UserClass::kConsumer,
                       .status = telemetry::ActionStatus::kSuccess});
  }
  return records;
}

std::vector<std::uint8_t> dataset_bytes(const telemetry::Dataset& dataset) {
  std::vector<ActionRecord> records;
  records.reserve(dataset.size());
  for (std::size_t i = 0; i < dataset.size(); ++i) records.push_back(dataset[i]);
  return telemetry::codec::encode_batch(records);
}

struct MatrixCase {
  const char* name;
  FaultSpec spec;
  bool collector_side = false;  ///< Inject on the collector's ingest path.
};

/// The same seven fault classes as net_fault_matrix_test, now pointed at
/// the sharded collector. kEagainStorm gets its own dedicated test below.
const MatrixCase kMatrix[] = {
    {"connect_refused",
     {.fault = FaultClass::kConnectRefused, .probability = 1.0, .max_injections = 2}},
    {"disconnect_mid_frame",
     {.fault = FaultClass::kDisconnect,
      .probability = 0.2,
      .skip_ops = 1,
      .max_injections = 6}},
    {"short_write", {.fault = FaultClass::kShortWrite, .probability = 0.5}},
    {"short_read",
     {.fault = FaultClass::kShortRead, .probability = 0.5},
     /*collector_side=*/true},
    {"eagain_stall", {.fault = FaultClass::kEagain, .probability = 0.4}},
    {"latency",
     {.fault = FaultClass::kLatency,
      .probability = 0.2,
      .max_injections = 3,
      .latency_ms = 1}},
    {"corrupt_frame",
     {.fault = FaultClass::kCorrupt,
      .probability = 0.1,
      .skip_ops = 1,
      .max_injections = 4}},
};

/// One sharded-collector pipeline run: `emitters` threads against a
/// Collector with `shards` ingest loops, optional fault injection on either
/// side. Returns the collected dataset.
telemetry::Dataset run_sharded(std::size_t shards, std::size_t emitters,
                               std::size_t per_emitter,
                               const std::optional<MatrixCase>& fault,
                               std::uint64_t seed_base) {
  std::unique_ptr<FaultySocketOps> collector_ops;
  CollectorOptions collector_options;
  collector_options.shards = shards;
  if (fault && fault->collector_side) {
    collector_ops = std::make_unique<FaultySocketOps>(
        FaultPlan(seed_base, {fault->spec}), real_socket_ops(), 0.0);
    collector_options.ops = collector_ops.get();
  }
  CollectorThread collector(emitters, collector_options, /*timeout_ms=*/10'000);

  std::vector<std::thread> threads;
  threads.reserve(emitters);
  for (std::size_t t = 0; t < emitters; ++t) {
    threads.emplace_back([&, t] {
      std::unique_ptr<FaultySocketOps> faulty;
      EmitterOptions options{
          .batch_size = 32,
          .retry = {.max_attempts = 10, .backoff_initial_ms = 1, .seed = seed_base + t},
          .on_give_up = EmitterOptions::GiveUp::kThrow,
      };
      if (fault && !fault->collector_side) {
        faulty = std::make_unique<FaultySocketOps>(
            FaultPlan(seed_base + 100 * (t + 1), {fault->spec}), real_socket_ops(), 0.0);
        options.ops = faulty.get();
      }
      Emitter emitter(collector.port(), options);
      for (const auto& r : striped_records(per_emitter, emitters, t)) emitter.record(r);
      emitter.close();
    });
  }
  for (auto& thread : threads) thread.join();
  auto dataset = collector.join();
  EXPECT_TRUE(collector.complete());
  return dataset;
}

/// The oracle: the exact dataset an exactly-once collector must deliver —
/// every emitter's striped_records, time-sorted, wire-encoded. No collector
/// is involved, so it cannot share a collector bug.
std::vector<std::uint8_t> expected_bytes(std::size_t emitters, std::size_t per_emitter) {
  std::vector<ActionRecord> records;
  records.reserve(emitters * per_emitter);
  for (std::size_t t = 0; t < emitters; ++t) {
    const auto part = striped_records(per_emitter, emitters, t);
    records.insert(records.end(), part.begin(), part.end());
  }
  std::sort(records.begin(), records.end(),
            [](const ActionRecord& a, const ActionRecord& b) { return a.time_ms < b.time_ms; });
  return telemetry::codec::encode_batch(records);
}

TEST(NetShardTest, FaultMatrixByteIdenticalToEmittedRecordsAcrossShardCounts) {
  constexpr std::size_t kPerEmitter = 240;
  constexpr std::size_t kEmitters = 4;
  const auto expected = expected_bytes(kEmitters, kPerEmitter);
  ASSERT_FALSE(expected.empty());

  for (const std::size_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    const auto clean =
        run_sharded(shards, kEmitters, kPerEmitter, std::nullopt, 0x5a4d);
    EXPECT_EQ(dataset_bytes(clean), expected);

    for (const auto& matrix_case : kMatrix) {
      SCOPED_TRACE(matrix_case.name);
      const auto dataset =
          run_sharded(shards, kEmitters, kPerEmitter, matrix_case, 0x5a4d);
      EXPECT_EQ(dataset.size(), kEmitters * kPerEmitter);
      EXPECT_EQ(dataset_bytes(dataset), expected)
          << "recovery must deliver every emitted record exactly once";
    }
  }
}

TEST(NetShardTest, EagainStormDoesNotLoseTheEdge) {
  // Bursts of consecutive injected EAGAINs from recv/epoll_wait while the
  // kernel still holds bytes: an edge-triggered loop that believes the
  // first EAGAIN would stall forever. The bounded retry list must keep
  // re-reading until real progress resumes — dataset still byte-identical.
  constexpr std::size_t kPerEmitter = 240;
  constexpr std::size_t kEmitters = 4;
  const auto expected = expected_bytes(kEmitters, kPerEmitter);

  for (const std::size_t shards : {1u, 2u, 4u}) {
    SCOPED_TRACE(testing::Message() << "shards=" << shards);
    const MatrixCase storm{
        "eagain_storm",
        {.fault = FaultClass::kEagainStorm, .probability = 0.25, .storm_len = 5},
        /*collector_side=*/true};
    const auto dataset = run_sharded(shards, kEmitters, kPerEmitter, storm, 0x570c);
    EXPECT_EQ(dataset.size(), kEmitters * kPerEmitter);
    EXPECT_EQ(dataset_bytes(dataset), expected);
  }
}

TEST(NetShardTest, EventLoopTimerCutsFullySilentConnection) {
  // A connection that sends a hello + one data frame and then nothing —
  // ever — produces no read return for the deadline to piggyback on. Only
  // the event-loop timer can cut it. The frames delivered before the cut
  // stay in the dataset; the drop is classified as a deadline drop (not an
  // interrupted session — that classification is for clean EOFs).
  CollectorOptions options;
  options.shards = 2;
  options.read_deadline_ms = 100;
  Collector collector(options);

  const auto records = striped_records(8, 1, 0);
  const auto payload = telemetry::codec::encode_batch(records);
  auto silent = connect_tcp(collector.port());
  write_all(silent, encode_frame(make_hello(0x51137ULL)));
  write_all(silent, encode_frame(Frame{.type = FrameType::kData, .seq = 1, .payload = payload}));
  // Keep the fd open and silent; a parallel well-behaved emitter supplies
  // the goodbye that ends the serve loop after the deadline has passed.
  std::thread good([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(300));
    Emitter emitter(collector.port(), {.batch_size = 8});
    for (const auto& r : striped_records(8, 2, 1)) emitter.record(r);
    emitter.close();
  });
  const bool complete = collector.serve_until_goodbye(1, /*timeout_ms=*/10'000);
  good.join();

  EXPECT_TRUE(complete);
  const auto stats = collector.stats();
  EXPECT_EQ(stats.deadline_drops, 1u);
  EXPECT_EQ(stats.dropped_connections, 1u);
  EXPECT_EQ(stats.interrupted_connections, 0u);
  EXPECT_EQ(collector.dataset().size(), 16u)
      << "frames delivered before the deadline cut must be kept";
}

TEST(NetShardTest, ReuseportShardsAccountAllConnections) {
  // Kernel accept sharding: placement is the kernel's 4-tuple hash, so
  // per-shard counts are not asserted — only that every connection is owned
  // by exactly one shard, nothing is double-counted, and every record lands
  // exactly once.
  constexpr std::size_t kShards = 4;
  constexpr std::size_t kEmitters = 8;
  constexpr std::size_t kPerEmitter = 120;

  CollectorOptions options;
  options.shards = kShards;
  Collector collector(options);

  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kEmitters; ++t) {
    threads.emplace_back([&, t] {
      Emitter emitter(collector.port(), {.batch_size = 32});
      for (const auto& r : striped_records(kPerEmitter, kEmitters, t)) emitter.record(r);
      emitter.close();
    });
  }
  const bool complete = collector.serve_until_goodbye(kEmitters, /*timeout_ms=*/10'000);
  for (auto& thread : threads) thread.join();

  EXPECT_TRUE(complete);
  EXPECT_EQ(collector.dataset().size(), kEmitters * kPerEmitter);
  const auto shard_stats = collector.shard_stats();
  ASSERT_EQ(shard_stats.size(), kShards);
  std::size_t total_connections = 0;
  for (const auto& s : shard_stats) total_connections += s.connections;
  EXPECT_EQ(total_connections, kEmitters);
  EXPECT_EQ(dataset_bytes(collector.take_dataset()), expected_bytes(kEmitters, kPerEmitter));
}

/// One data frame carrying the single record with time `k`.
Frame one_record_frame(std::uint32_t seq, std::size_t k) {
  const auto records = striped_records(1, 1, k);
  return Frame{.type = FrameType::kData,
               .seq = seq,
               .payload = telemetry::codec::encode_batch(records)};
}

Frame goodbye_frame(std::uint32_t seq) {
  Frame frame;
  frame.type = FrameType::kGoodbye;
  frame.seq = seq;
  return frame;
}

/// Open a connection for `session` that sends its hello and then `frames`.
void send_session_frames(std::uint16_t port, std::uint64_t session,
                         const std::vector<Frame>& frames) {
  auto socket = connect_tcp(port);
  write_all(socket, encode_frame(make_hello(session)));
  for (const auto& frame : frames) write_all(socket, encode_frame(frame));
}

TEST(NetShardTest, ReconnectBudgetRefusesHellosPastTheBudget) {
  // A session may connect 1 + 1024 times (the collector's reconnect
  // budget); every later hello for it is refused: the connection is
  // dropped and its records never land.
  constexpr std::size_t kBudget = 1024;
  constexpr std::size_t kExtra = 2;
  constexpr std::uint64_t kSession = 0xb0d9e7ULL;
  CollectorThread collector(/*expected_goodbyes=*/1);

  for (std::size_t k = 0; k < 1 + kBudget + kExtra; ++k) {
    // Pace the connects so the accept backlog never overflows into SYN
    // retransmits; the collector accounts them in arrival order either way.
    while (collector.stats().connections + 64 < k) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    send_session_frames(collector.port(), kSession,
                        {one_record_frame(static_cast<std::uint32_t>(k + 1), k)});
  }
  send_session_frames(collector.port(), kSession + 1, {goodbye_frame(1)});
  const auto dataset = collector.join();

  EXPECT_TRUE(collector.complete());
  const auto stats = collector.stats();
  EXPECT_EQ(stats.session_reconnects, kBudget + kExtra);
  EXPECT_EQ(stats.dropped_connections, kExtra);
  EXPECT_EQ(dataset.size(), 1 + kBudget) << "refused connections' records must not land";
}

/// The "gaps" value of `session` in the /statusz section of the collector
/// listening on `port` (-1 when absent).
long statusz_gaps(std::uint16_t port, std::uint64_t session) {
  // Built with +=, not by concatenating temporaries: GCC 12's -Wrestrict
  // misfires on the inlined copies of `"literal" + std::to_string(...)` in
  // Release builds.
  std::string section = "collector:";
  section += std::to_string(port);
  std::string entry = "\"";
  entry += std::to_string(session);
  entry += "\": {";
  for (const auto& [name, json] : obs::StatusRegistry::global().render()) {
    if (name != section) continue;
    const auto at = json.find(entry);
    if (at == std::string::npos) return -1;
    const std::string key = "\"gaps\": ";
    const auto gaps = json.find(key, at);
    if (gaps == std::string::npos) return -1;
    return std::stol(json.substr(gaps + key.size()));
  }
  return -1;
}

TEST(NetShardTest, SeqJumpTracksAtMostTheGapCap) {
  // A frame-seq jump far past the last applied frame opens one gap per
  // skipped seq, but a session tracks at most 4096 of them — a hostile
  // seq cannot grow the spine's per-session state without bound.
  constexpr std::size_t kGapCap = 4096;
  constexpr std::uint64_t kSession = 0x9a95ULL;
  Collector collector;
  send_session_frames(
      collector.port(), kSession,
      {one_record_frame(1, 0), one_record_frame(static_cast<std::uint32_t>(kGapCap + 100), 1),
       goodbye_frame(0)});
  ASSERT_TRUE(collector.serve_until_goodbye(1, /*timeout_ms=*/10'000));

  EXPECT_EQ(collector.dataset().size(), 2u);
  EXPECT_EQ(statusz_gaps(collector.port(), kSession), static_cast<long>(kGapCap));
}

}  // namespace
}  // namespace autosens::net

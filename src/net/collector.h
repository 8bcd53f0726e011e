// Telemetry collector: the "server side" of the paper's measurement path.
// Million-emitter fan-in edition: ingestion is split across N CollectorShard
// event loops (edge-triggered epoll over nonblocking sockets, one shard per
// core), each feeding decoded frame batches over a lock-free SPSC queue to a
// single spine thread — the caller of serve_until_goodbye — which owns every
// cross-connection decision: session binding, exactly-once (session, seq)
// dedup, record decode, Dataset splice, goodbye credit. Accept load is
// sharded by the kernel via SO_REUSEPORT listeners, one per shard.
//
// Transports: TCP (stream framing, per-connection FrameDecoder reassembly)
// or UDP (wire-v2 frames packed into datagrams, each opening with a kHello
// whose seq is the per-session datagram number; recvmmsg-batched ingest).
// UDP delivery is lossy by contract, so the dedup state doubles as loss
// accounting: per-session gap tracking (highest seq + bounded missing set)
// accepts late/reordered arrivals exactly once, and whatever is still
// missing when the session finalizes is exported as
// autosens_net_udp_lost_total — exact, per-session loss.
//
// Resilience: per-connection errors never kill the serve loop, damaged bytes
// are resynced past with bounded budgets, retransmits dedup, reconnects fold
// into one logical session stream regardless of which shard they land on,
// silent connections are cut by the shard's event-loop timer, and an idle
// timeout ends the loop with the partial Dataset intact. Hostile peers are
// bounded by fixed caps (collector.cpp): a session may reconnect 1024 times
// (kMaxSessionReconnects) and tracks at most 4096 open sequence gaps
// (kMaxTrackedGaps).
// The fault-matrix suite (net_shard_test) pins exactly-once delivery against
// the records the emitters sent, not against a second collector.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "core/spsc.h"
#include "net/shard.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "telemetry/dataset.h"

namespace autosens::net {

/// Collection statistics: a plain snapshot taken from the collector's
/// atomic counters, safe to read while the collector is serving on another
/// thread (CollectorThread::stats()).
struct CollectorStats {
  std::size_t connections = 0;
  std::size_t frames = 0;
  std::size_t records = 0;
  std::size_t flushes = 0;
  std::size_t dropped_connections = 0;  ///< Closed on protocol/transport error.
  std::size_t bytes = 0;                ///< Payload bytes received.
  std::size_t backpressure_reads = 0;   ///< recv() filled the whole buffer.
  std::size_t resyncs = 0;              ///< Damaged runs scanned past.
  std::size_t resync_bytes = 0;         ///< Garbage bytes discarded by resync.
  std::size_t duplicate_frames = 0;     ///< Retransmissions deduped by seq.
  std::size_t sessions = 0;             ///< Distinct hello session ids seen.
  std::size_t sessions_active = 0;      ///< Sessions seen minus sessions that said goodbye.
  std::size_t session_reconnects = 0;   ///< Hellos for an already-seen session.
  std::size_t deadline_drops = 0;       ///< Connections cut by read deadline.
  std::size_t interrupted_connections = 0;  ///< Session EOF without goodbye.
  // UDP transport only:
  std::size_t udp_datagrams = 0;            ///< Datagrams accepted (valid hello).
  std::size_t udp_rejected = 0;             ///< Datagrams discarded whole.
  std::size_t udp_duplicate_datagrams = 0;  ///< Datagram-seq dedup hits.
  std::size_t udp_lost = 0;  ///< Datagram gaps still open at session finalize.
};

/// Collector configuration beyond the bind port; the defaults are a single
/// permissive TCP shard.
struct CollectorOptions {
  std::uint16_t port = 0;     ///< 0 = ephemeral.
  int read_deadline_ms = -1;  ///< Drop a connection silent this long (-1 = never).
  /// Drop a connection once resync has discarded this much garbage.
  std::size_t max_resync_bytes = 1 << 20;
  /// Syscall surface for reads; nullptr = real syscalls (fault injection).
  SocketOps* ops = nullptr;
  /// Ingest event loops. Each shard is one thread with its own epoll set.
  std::size_t shards = 1;
  Transport transport = Transport::kTcp;
  /// SO_RCVBUF for UDP sockets (0 = kernel default). Loopback bursts at
  /// 10k-session fan-in overflow default buffers, which shows up as loss.
  int rcvbuf_bytes = 0;
};

/// Sharded collector: construct, let emitters connect, call
/// serve_until_goodbye, take the dataset.
class Collector {
 public:
  /// Binds listeners and starts the shard threads (ingest begins
  /// immediately; events buffer in the shard queues until
  /// serve_until_goodbye drains them). Registers itself with the obs health
  /// registry and publishes a /statusz section (counters, per-session
  /// state, per-shard state); both are withdrawn on destruction.
  explicit Collector(std::uint16_t port = 0) : Collector(CollectorOptions{.port = port}) {}
  explicit Collector(const CollectorOptions& options);
  ~Collector();

  Collector(const Collector&) = delete;
  Collector& operator=(const Collector&) = delete;

  std::uint16_t port() const noexcept { return port_; }

  /// Run the spine until `expected_goodbyes` sessions (or sessionless
  /// connections) have sent kGoodbye, or until `timeout_ms` elapses with no
  /// ingest activity at all (whichever first). Returns true if all
  /// goodbyes arrived. On return, UDP sessions are finalized: outstanding
  /// datagram gaps are counted into autosens_net_udp_lost_total.
  bool serve_until_goodbye(std::size_t expected_goodbyes, int timeout_ms = 5000);

  const telemetry::Dataset& dataset() const noexcept { return dataset_; }
  telemetry::Dataset take_dataset();
  /// Graceful degradation: persist a time-sorted copy of whatever has been
  /// collected so far as a binary log (without consuming the dataset).
  /// Logs per-session open gap counts. Returns the records written.
  std::size_t checkpoint(const std::string& path) const;
  /// Snapshot of the counters. Safe concurrently with the serving thread:
  /// every cell is an ungated relaxed atomic (obs::RawCounter).
  CollectorStats stats() const noexcept;
  /// Per-shard counters (index == shard number).
  std::vector<ShardStats> shard_stats() const;

 private:
  /// Per-session spine state, stable across reconnects and shard moves.
  struct Session {
    std::uint32_t last_seq = 0;       ///< Highest frame seq applied.
    std::set<std::uint32_t> missing;  ///< Frame seqs below last_seq not yet seen.
    std::uint32_t dg_last = 0;        ///< Highest datagram seq accepted (UDP).
    std::set<std::uint32_t> dg_missing;  ///< Datagram gaps (UDP loss-to-be).
    std::size_t dg_overflow = 0;  ///< Datagram gaps past kMaxTrackedGaps (lost).
    bool said_goodbye = false;
    bool finalized = false;  ///< Loss already counted for this session.
    std::size_t connections_seen = 0;
    std::uint64_t trace_span = 0;  ///< Emitter connect span from the hello.
  };

  /// Spine-side view of one shard connection stream.
  struct ConnState {
    std::uint64_t session_id = 0;
    bool saw_goodbye = false;
    bool received_bytes = false;
    bool dead = false;  ///< Malformed: ignore all further frames.
  };

  /// The live counters behind stats(). RawCounter (not registry Counter):
  /// these are functional collector state, counted even when the obs layer
  /// is disabled; the registry mirrors them via global gated counters.
  struct AtomicStats {
    obs::RawCounter connections;
    obs::RawCounter frames;
    obs::RawCounter records;
    obs::RawCounter flushes;
    obs::RawCounter dropped_connections;
    obs::RawCounter bytes;
    obs::RawCounter backpressure_reads;
    obs::RawCounter resyncs;
    obs::RawCounter resync_bytes;
    obs::RawCounter duplicate_frames;
    obs::RawCounter sessions;
    obs::RawCounter sessions_closed;  ///< Sessions whose goodbye was credited.
    obs::RawCounter session_reconnects;
    obs::RawCounter deadline_drops;
    obs::RawCounter interrupted_connections;
    obs::RawCounter udp_datagrams;
    obs::RawCounter udp_rejected;
    obs::RawCounter udp_duplicate_datagrams;
    obs::RawCounter udp_lost;
  };

  /// Apply one shard event on the spine; returns newly-credited goodbyes.
  std::size_t apply_event(ShardEvent& event);
  std::size_t apply_tcp_frames(ShardEvent& event);
  std::size_t apply_udp_frames(ShardEvent& event);
  /// Frame-seq dedup with gap tracking. Returns true when the frame is new
  /// (apply it); false for duplicates. Caller holds sessions_mutex_.
  bool accept_seq(Session& session, std::uint32_t seq);
  /// One data/flush/goodbye frame against its session; returns goodbyes
  /// credited (0/1). Sets *dead when the stream must be dropped.
  std::size_t apply_frame(const Frame& frame, Session* session,
                          std::uint64_t session_id, bool& saw_goodbye, bool* dead);
  /// Count outstanding datagram gaps of every unfinalized session.
  void finalize_udp_sessions();

  std::string status_json() const;

  CollectorOptions options_;
  std::uint16_t port_ = 0;
  telemetry::Dataset dataset_;

  /// One queue per shard: each stays single-producer (the shard thread) /
  /// single-consumer (the spine).
  std::vector<std::unique_ptr<SpscQueue<ShardEvent>>> event_queues_;
  std::vector<std::unique_ptr<CollectorShard>> shards_;
  std::vector<obs::Counter*> shard_records_metrics_;  ///< {shard="i"} mirrors.
  std::mutex wake_mutex_;
  std::condition_variable wake_cv_;

  /// Guards sessions_: the spine mutates it while the obs HTTP thread
  /// reads it through the /statusz section provider.
  mutable std::mutex sessions_mutex_;
  std::unordered_map<std::uint64_t, Session> sessions_;
  /// Keyed by (shard << 32 | conn serial); spine-thread only.
  std::unordered_map<std::uint64_t, ConnState> conns_;
  AtomicStats stats_;
  std::uint64_t status_section_id_ = 0;
  std::string health_name_;
};

/// Runs a Collector on a background thread; join() returns the dataset.
class CollectorThread {
 public:
  explicit CollectorThread(std::size_t expected_goodbyes, std::uint16_t port = 0)
      : CollectorThread(expected_goodbyes, CollectorOptions{.port = port}) {}
  CollectorThread(std::size_t expected_goodbyes, const CollectorOptions& options,
                  int timeout_ms = 30'000);
  ~CollectorThread();

  CollectorThread(const CollectorThread&) = delete;
  CollectorThread& operator=(const CollectorThread&) = delete;

  std::uint16_t port() const noexcept { return port_; }

  /// Wait for the collector to finish and take its dataset + stats.
  telemetry::Dataset join();
  CollectorStats stats() const;
  /// True when serve_until_goodbye saw every expected goodbye (valid after
  /// join()).
  bool complete() const noexcept { return complete_.load(std::memory_order_acquire); }

 private:
  Collector collector_;
  std::uint16_t port_;
  std::thread thread_;
  std::atomic<bool> done_{false};
  std::atomic<bool> complete_{false};
  mutable std::mutex mutex_;
};

}  // namespace autosens::net

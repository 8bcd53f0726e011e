#include "net/collector.h"

#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <sstream>
#include <utility>

#include "net/collector_metrics.h"
#include "net/wire.h"
#include "obs/health.h"
#include "obs/log.h"
#include "obs/trace.h"
#include "telemetry/binlog.h"

namespace autosens::net {
namespace {

using Clock = std::chrono::steady_clock;

/// Reconnect budget per session: hellos past 1 + this many are refused, so a
/// peer replaying one session id cannot grow the spine's per-session work.
constexpr std::size_t kMaxSessionReconnects = 1024;

/// Per-session cap on tracked sequence gaps (frame- and datagram-level): a
/// hostile seq jump costs at most this many set entries. Datagram gaps past
/// the cap count as lost; frame gaps past it are never re-applied.
constexpr std::size_t kMaxTrackedGaps = 4096;

std::int64_t ms_between(Clock::time_point earlier, Clock::time_point later) noexcept {
  return std::chrono::duration_cast<std::chrono::milliseconds>(later - earlier).count();
}

/// Spine key for one shard connection stream.
std::uint64_t conn_key(std::uint32_t shard, std::uint64_t serial) noexcept {
  return (static_cast<std::uint64_t>(shard) << 48) ^ serial;
}

}  // namespace

Collector::Collector(const CollectorOptions& options) : options_(options) {
  if (options_.shards == 0) options_.shards = 1;
  const auto shard_count = static_cast<std::uint32_t>(options_.shards);
  SocketOps& ops = options_.ops != nullptr ? *options_.ops : real_socket_ops();

  event_queues_.reserve(shard_count);
  shards_.reserve(shard_count);
  for (std::uint32_t i = 0; i < shard_count; ++i) {
    event_queues_.push_back(std::make_unique<SpscQueue<ShardEvent>>(4096));
    ShardOptions shard_options{
        .index = i,
        .transport = options_.transport,
        .read_deadline_ms = options_.read_deadline_ms,
        .max_resync_bytes = options_.max_resync_bytes,
        .ops = options_.ops,
    };
    shards_.push_back(std::make_unique<CollectorShard>(
        shard_options, *event_queues_.back(), [this] { wake_cv_.notify_one(); }));
    shard_records_metrics_.push_back(&obs::registry().counter(
        "autosens_net_shard_records_total{shard=\"" + std::to_string(i) + "\"}",
        "Records ingested via this shard's connections"));
  }

  if (options_.transport == Transport::kTcp) {
    // One SO_REUSEPORT listener per shard: the kernel shards the accept
    // queue. Shard 0 resolves the ephemeral port.
    for (std::uint32_t i = 0; i < shard_count; ++i) {
      std::uint16_t bound = 0;
      shards_[i]->set_tcp_listener(
          listen_tcp_reuseport(i == 0 ? options_.port : port_, bound));
      if (i == 0) port_ = bound;
    }
  } else {
    // UDP: one SO_REUSEPORT-grouped socket per shard. A connected sender's
    // 4-tuple hashes to one socket, so per-source datagram order is
    // preserved within a shard.
    for (std::uint32_t i = 0; i < shard_count; ++i) {
      std::uint16_t bound = 0;
      Socket socket =
          bind_udp(i == 0 ? options_.port : port_, bound, /*reuseport=*/shard_count > 1);
      if (i == 0) port_ = bound;
      if (options_.rcvbuf_bytes > 0) {
        ops.setsockopt_int(socket.fd(), SOL_SOCKET, SO_RCVBUF, options_.rcvbuf_bytes);
      }
      shards_[i]->set_udp_socket(std::move(socket));
    }
  }

  health_name_ = "collector:" + std::to_string(port_);
  obs::Health::global().set_component(
      health_name_, true, "listening on 127.0.0.1:" + std::to_string(port_));
  status_section_id_ = obs::StatusRegistry::global().add_section(
      health_name_, [this] { return status_json(); });
  obs::log_debug("collector.listen",
                 {{"port", port_},
                  {"shards", shard_count},
                  {"transport", options_.transport == Transport::kUdp ? "udp" : "tcp"}});

  for (auto& shard : shards_) shard->start();
}

Collector::~Collector() {
  // Stop the shard threads before any member they touch (queues, the wake
  // cv through notify_) is destroyed.
  for (auto& shard : shards_) shard->stop();
  obs::StatusRegistry::global().remove_section(status_section_id_);
  obs::Health::global().remove_component(health_name_);
}

CollectorStats Collector::stats() const noexcept {
  return CollectorStats{
      .connections = static_cast<std::size_t>(stats_.connections.get()),
      .frames = static_cast<std::size_t>(stats_.frames.get()),
      .records = static_cast<std::size_t>(stats_.records.get()),
      .flushes = static_cast<std::size_t>(stats_.flushes.get()),
      .dropped_connections = static_cast<std::size_t>(stats_.dropped_connections.get()),
      .bytes = static_cast<std::size_t>(stats_.bytes.get()),
      .backpressure_reads = static_cast<std::size_t>(stats_.backpressure_reads.get()),
      .resyncs = static_cast<std::size_t>(stats_.resyncs.get()),
      .resync_bytes = static_cast<std::size_t>(stats_.resync_bytes.get()),
      .duplicate_frames = static_cast<std::size_t>(stats_.duplicate_frames.get()),
      .sessions = static_cast<std::size_t>(stats_.sessions.get()),
      .sessions_active = static_cast<std::size_t>(stats_.sessions.get() -
                                                  stats_.sessions_closed.get()),
      .session_reconnects = static_cast<std::size_t>(stats_.session_reconnects.get()),
      .deadline_drops = static_cast<std::size_t>(stats_.deadline_drops.get()),
      .interrupted_connections =
          static_cast<std::size_t>(stats_.interrupted_connections.get()),
      .udp_datagrams = static_cast<std::size_t>(stats_.udp_datagrams.get()),
      .udp_rejected = static_cast<std::size_t>(stats_.udp_rejected.get()),
      .udp_duplicate_datagrams =
          static_cast<std::size_t>(stats_.udp_duplicate_datagrams.get()),
      .udp_lost = static_cast<std::size_t>(stats_.udp_lost.get()),
  };
}

std::vector<ShardStats> Collector::shard_stats() const {
  std::vector<ShardStats> out;
  out.reserve(shards_.size());
  for (const auto& shard : shards_) out.push_back(shard->stats());
  return out;
}

std::string Collector::status_json() const {
  const CollectorStats s = stats();
  std::ostringstream out;
  out << "{\"port\": " << port_
      << ", \"transport\": \""
      << (options_.transport == Transport::kUdp ? "udp" : "tcp") << "\""
      << ", \"records\": " << s.records << ", \"frames\": " << s.frames
      << ", \"bytes\": " << s.bytes << ", \"dedup_hits\": " << s.duplicate_frames
      << ", \"resyncs\": " << s.resyncs << ", \"resync_bytes\": " << s.resync_bytes
      << ", \"dropped_connections\": " << s.dropped_connections
      << ", \"sessions_active\": " << s.sessions_active
      << ", \"udp_lost\": " << s.udp_lost << ", \"shards\": [";
  const auto per_shard = shard_stats();
  for (std::size_t i = 0; i < per_shard.size(); ++i) {
    const auto& sh = per_shard[i];
    if (i != 0) out << ", ";
    out << "{\"shard\": " << i << ", \"connections\": " << sh.connections
        << ", \"epoll_wakeups\": " << sh.epoll_wakeups
        << ", \"eagain_retries\": " << sh.eagain_retries
        << ", \"spsc_stalls\": " << sh.spsc_stalls
        << ", \"queue_depth\": " << sh.queue_depth
        << ", \"udp_datagrams\": " << sh.udp_datagrams << "}";
  }
  out << "], \"sessions\": {";
  std::lock_guard lock(sessions_mutex_);
  bool first = true;
  for (const auto& [id, session] : sessions_) {
    if (!first) out << ", ";
    first = false;
    // Session ids can exceed 2^53: emit as strings to stay JSON-exact.
    out << "\"" << id << "\": {\"last_seq\": " << session.last_seq
        << ", \"goodbye\": " << (session.said_goodbye ? "true" : "false")
        << ", \"connections\": " << session.connections_seen
        << ", \"gaps\": " << (session.missing.size() + session.dg_missing.size()) << "}";
  }
  out << "}}";
  return out.str();
}

bool Collector::accept_seq(Session& session, std::uint32_t seq) {
  if (seq > session.last_seq) {
    std::uint64_t gaps = static_cast<std::uint64_t>(seq) - session.last_seq - 1;
    std::uint32_t gap = session.last_seq + 1;
    while (gaps > 0 && session.missing.size() < kMaxTrackedGaps) {
      session.missing.insert(gap++);
      --gaps;
    }
    session.last_seq = seq;
    return true;
  }
  const auto it = session.missing.find(seq);
  if (it != session.missing.end()) {
    // A gap filled late: reordered or retransmitted delivery of a frame
    // that never arrived the first time. Apply it exactly once.
    session.missing.erase(it);
    return true;
  }
  return false;
}

std::size_t Collector::apply_frame(const Frame& frame, Session* session,
                                   std::uint64_t session_id, bool& saw_goodbye,
                                   bool* dead) {
  if (session != nullptr && frame.seq != 0) {
    if (!accept_seq(*session, frame.seq)) {
      // A retransmission of a frame that did arrive the first time: the
      // emitter could not know, the dedup is what makes its retry safe.
      stats_.duplicate_frames.add();
      collector_metrics().dedup_hits.inc();
      obs::Span dedup_span("net.dedup_drop");
      dedup_span.link_parent(frame.span_id != 0 ? frame.span_id : session->trace_span);
      dedup_span.attr("seq", static_cast<std::int64_t>(frame.seq));
      if (frame.type == FrameType::kGoodbye) saw_goodbye = true;
      return 0;
    }
  }

  switch (frame.type) {
    case FrameType::kData: {
      // Decode span parented on the emitter-side send span carried by the
      // frame (falling back to the session's connect span): the stitch
      // that makes the replay|collect Chrome trace one connected tree.
      obs::Span decode_span("net.decode_frame");
      decode_span.link_parent(frame.span_id != 0
                                  ? frame.span_id
                                  : (session != nullptr ? session->trace_span : 0));
      decode_span.attr("seq", static_cast<std::int64_t>(frame.seq));
      try {
        const auto records = telemetry::codec::decode_batch(frame.payload);
        stats_.records.add(records.size());
        collector_metrics().records.inc(records.size());
        decode_span.attr("records", static_cast<std::int64_t>(records.size()));
        for (const auto& r : records) dataset_.add(r);
      } catch (const std::runtime_error& error) {
        // CRC-valid but undecodable payload: a sender bug, not line noise.
        // Resync cannot help; drop the stream.
        obs::log_info("collector.drop_connection",
                      {{"reason", "bad_payload"}, {"error", error.what()}});
        *dead = true;
      }
      break;
    }
    case FrameType::kFlush:
      stats_.flushes.add();
      collector_metrics().flushes.inc();
      break;
    case FrameType::kGoodbye:
      saw_goodbye = true;
      if (session != nullptr) {
        if (!session->said_goodbye) {
          session->said_goodbye = true;
          stats_.sessions_closed.add();
          collector_metrics().sessions_active.add(-1.0);
          return 1;
        }
      } else {
        (void)session_id;
        return 1;  // sessionless stream: credit per goodbye
      }
      break;
    case FrameType::kHello:
      break;  // handled by the caller
  }
  return 0;
}

std::size_t Collector::apply_tcp_frames(ShardEvent& event) {
  auto& conn = conns_[conn_key(event.shard, event.conn)];
  if (event.received_bytes) conn.received_bytes = true;
  if (conn.dead) return 0;

  std::lock_guard lock(sessions_mutex_);
  std::size_t goodbyes = 0;
  for (auto& frame : event.frames) {
    stats_.frames.add();
    collector_metrics().frames.inc();

    if (frame.type == FrameType::kHello) {
      const auto id = parse_hello(frame.payload);
      if (!id || *id == 0) {
        obs::log_info("collector.drop_connection", {{"reason", "bad_hello"}});
        conn.dead = true;
        break;
      }
      conn.session_id = *id;
      auto& session = sessions_[*id];
      ++session.connections_seen;
      if (session.connections_seen == 1) {
        stats_.sessions.add();
        collector_metrics().sessions.inc();
        collector_metrics().sessions_active.add(1.0);
      } else {
        stats_.session_reconnects.add();
        collector_metrics().session_reconnects.inc();
        if (session.connections_seen > kMaxSessionReconnects + 1) {
          obs::log_info("collector.drop_connection",
                        {{"reason", "reconnect_budget"}, {"session", *id}});
          conn.dead = true;
          break;
        }
        obs::log_debug("collector.session_reconnect",
                       {{"session", *id}, {"count", session.connections_seen - 1}});
      }
      // Extended hello: adopt the emitter's trace context so this
      // collector's spans join the same distributed trace.
      if (const auto trace = parse_hello_trace(frame.payload)) {
        session.trace_span = trace->span_id;
        if (trace->trace_id != 0) obs::Tracer::global().set_trace_id(trace->trace_id);
        obs::Span hello_span("net.hello");
        hello_span.link_parent(trace->span_id);
        hello_span.attr("reconnect",
                        static_cast<std::int64_t>(session.connections_seen - 1));
      }
      continue;
    }

    Session* session = conn.session_id != 0 ? &sessions_[conn.session_id] : nullptr;
    bool dead = false;
    goodbyes += apply_frame(frame, session, conn.session_id, conn.saw_goodbye, &dead);
    if (dead) {
      conn.dead = true;
      break;
    }
  }

  if (conn.dead) {
    // The stream is poisoned: drop everything after the offending frame
    // (this event and all later ones) and have the owning shard close it.
    stats_.dropped_connections.add();
    collector_metrics().drops.inc();
    shards_[event.shard]->request_close(event.conn);
  } else if (conn.saw_goodbye) {
    shards_[event.shard]->request_close(event.conn);
  }
  return goodbyes;
}

std::size_t Collector::apply_udp_frames(ShardEvent& event) {
  std::lock_guard lock(sessions_mutex_);
  std::size_t goodbyes = 0;
  Session* session = nullptr;
  std::uint64_t session_id = 0;
  bool accepting = false;

  for (auto& frame : event.frames) {
    if (frame.type == FrameType::kHello) {
      stats_.frames.add();
      collector_metrics().frames.inc();
      const auto id = parse_hello(frame.payload);
      if (!id || *id == 0) {  // shard pre-validates; defensive
        accepting = false;
        session = nullptr;
        continue;
      }
      auto& s = sessions_[*id];
      if (s.connections_seen == 0) {
        s.connections_seen = 1;
        stats_.sessions.add();
        collector_metrics().sessions.inc();
        collector_metrics().sessions_active.add(1.0);
        if (const auto trace = parse_hello_trace(frame.payload)) {
          s.trace_span = trace->span_id;
          if (trace->trace_id != 0) obs::Tracer::global().set_trace_id(trace->trace_id);
        }
      }
      // Datagram-level exactly-once: the hello's seq is the per-session
      // datagram number. A duplicate datagram is skipped whole; a fresh
      // one (including one filling an old gap) is applied.
      bool fresh = true;
      if (frame.seq != 0) {
        if (frame.seq > s.dg_last) {
          std::uint64_t gaps = static_cast<std::uint64_t>(frame.seq) - s.dg_last - 1;
          std::uint32_t gap = s.dg_last + 1;
          while (gaps > 0 && s.dg_missing.size() < kMaxTrackedGaps) {
            s.dg_missing.insert(gap++);
            --gaps;
          }
          s.dg_overflow += gaps;
          s.dg_last = frame.seq;
        } else if (const auto it = s.dg_missing.find(frame.seq);
                   it != s.dg_missing.end()) {
          s.dg_missing.erase(it);
        } else {
          fresh = false;
        }
      }
      if (!fresh) {
        stats_.udp_duplicate_datagrams.add();
        collector_metrics().dedup_hits.inc();
        accepting = false;
        session = nullptr;
        continue;
      }
      session = &s;
      session_id = *id;
      accepting = true;
      continue;
    }

    if (!accepting || session == nullptr) continue;
    stats_.frames.add();
    collector_metrics().frames.inc();
    bool saw_goodbye = false;
    bool dead = false;
    goodbyes += apply_frame(frame, session, session_id, saw_goodbye, &dead);
    if (dead) {
      // Undecodable payload inside a datagram: skip the datagram's
      // remainder; there is no connection to drop.
      accepting = false;
    }
  }
  return goodbyes;
}

std::size_t Collector::apply_event(ShardEvent& event) {
  if (event.bytes_delta > 0) {
    stats_.bytes.add(event.bytes_delta);
    collector_metrics().bytes.inc(event.bytes_delta);
  }
  if (event.backpressure_delta > 0) {
    stats_.backpressure_reads.add(event.backpressure_delta);
    collector_metrics().backpressure.inc(event.backpressure_delta);
  }
  if (event.resyncs_delta > 0) {
    stats_.resyncs.add(event.resyncs_delta);
    collector_metrics().resyncs.inc(event.resyncs_delta);
  }
  if (event.skipped_delta > 0) {
    stats_.resync_bytes.add(event.skipped_delta);
    collector_metrics().resync_bytes.inc(event.skipped_delta);
  }
  if (event.udp_datagrams_delta > 0) {
    stats_.udp_datagrams.add(event.udp_datagrams_delta);
    collector_metrics().udp_datagrams.inc(event.udp_datagrams_delta);
  }
  if (event.udp_rejected_delta > 0) stats_.udp_rejected.add(event.udp_rejected_delta);

  switch (event.kind) {
    case ShardEvent::Kind::kSync:
      return 0;  // barrier ack; consumed by serve_until_goodbye

    case ShardEvent::Kind::kOpen:
      stats_.connections.add();
      collector_metrics().connections.inc();
      conns_[conn_key(event.shard, event.conn)] = ConnState{};
      return 0;

    case ShardEvent::Kind::kFrames: {
      const auto records_before = stats_.records.get();
      const std::size_t goodbyes = event.transport == Transport::kUdp
                                       ? apply_udp_frames(event)
                                       : apply_tcp_frames(event);
      const auto delta = stats_.records.get() - records_before;
      if (delta > 0 && event.shard < shard_records_metrics_.size()) {
        shard_records_metrics_[event.shard]->inc(delta);
      }
      return goodbyes;
    }

    case ShardEvent::Kind::kEof: {
      const auto key = conn_key(event.shard, event.conn);
      auto it = conns_.find(key);
      ConnState conn = it != conns_.end() ? it->second : ConnState{};
      if (it != conns_.end()) conns_.erase(it);
      if (conn.dead) return 0;  // already accounted when poisoned
      if (event.received_bytes) conn.received_bytes = true;

      switch (event.reason) {
        case ShardEvent::EofReason::kDeadline:
          stats_.deadline_drops.add();
          collector_metrics().deadline_drops.inc();
          stats_.dropped_connections.add();
          collector_metrics().drops.inc();
          obs::log_info("collector.drop_connection",
                        {{"reason", "read_deadline"},
                         {"session", conn.session_id},
                         {"deadline_ms", options_.read_deadline_ms}});
          break;
        case ShardEvent::EofReason::kTransport:
          stats_.dropped_connections.add();
          collector_metrics().drops.inc();
          obs::log_info("collector.drop_connection",
                        {{"reason", "transport"}, {"errno", event.err}});
          break;
        case ShardEvent::EofReason::kResyncBudget:
          stats_.dropped_connections.add();
          collector_metrics().drops.inc();
          obs::log_info("collector.drop_connection", {{"reason", "resync_budget"}});
          break;
        case ShardEvent::EofReason::kClean: {
          // Peer closed. Clean after a goodbye; a session connection that
          // ends without one is interrupted even when its reconnect has
          // already said goodbye (the shards may hand that reconnect's
          // frames over before this EOF); a sessionless stream that sent
          // bytes but never finished a goodbye is a protocol failure.
          if (!conn.saw_goodbye) {
            if (conn.session_id != 0) {
              stats_.interrupted_connections.add();
              collector_metrics().interrupted.inc();
              obs::log_debug("collector.interrupted",
                             {{"session", conn.session_id},
                              {"pending_bytes", event.pending_bytes}});
            } else if (conn.session_id == 0 && conn.received_bytes) {
              stats_.dropped_connections.add();
              collector_metrics().drops.inc();
              obs::log_info("collector.drop_connection", {{"reason", "no_goodbye"}});
            }
          }
          break;
        }
      }
      return 0;
    }
  }
  return 0;
}

void Collector::finalize_udp_sessions() {
  if (options_.transport != Transport::kUdp) return;
  std::lock_guard lock(sessions_mutex_);
  for (auto& [id, session] : sessions_) {
    if (session.finalized) continue;
    session.finalized = true;
    const std::size_t lost = session.dg_missing.size() + session.dg_overflow;
    if (lost > 0) {
      stats_.udp_lost.add(lost);
      collector_metrics().udp_lost.inc(lost);
      obs::log_info("collector.udp_loss", {{"session", id}, {"lost_datagrams", lost}});
    }
  }
}

bool Collector::serve_until_goodbye(std::size_t expected_goodbyes, int timeout_ms) {
  std::size_t goodbyes = 0;
  auto last_activity = Clock::now();
  collector_metrics().idle_timeout_outcome.set(0.0);

  ShardEvent event;
  while (goodbyes < expected_goodbyes) {
    bool any = false;
    for (auto& queue : event_queues_) {
      while (queue->try_pop(event)) {
        any = true;
        goodbyes += apply_event(event);
        if (goodbyes >= expected_goodbyes) break;
      }
      if (goodbyes >= expected_goodbyes) break;
    }
    if (any) {
      last_activity = Clock::now();
      continue;
    }
    if (timeout_ms >= 0 && ms_between(last_activity, Clock::now()) >= timeout_ms) {
      collector_metrics().idle_timeout_outcome.set(1.0);
      obs::log_info("collector.idle_timeout", {{"timeout_ms", timeout_ms},
                                               {"goodbyes", goodbyes},
                                               {"expected", expected_goodbyes}});
      finalize_udp_sessions();
      return false;  // idle timeout
    }
    std::unique_lock lock(wake_mutex_);
    wake_cv_.wait_for(lock, std::chrono::milliseconds(1));
  }

  // Goal reached — settle barrier before declaring success. Per-socket
  // ordering guarantees every byte sent before a session's goodbye is
  // already in some shard's kernel buffer, but not that the owning shard
  // has read it (a reconnect's earlier connection may sit on a different
  // shard), so each shard drains directly and acks with a kSync ordered
  // after everything it ingested.
  std::size_t pending_syncs = shards_.size();
  for (auto& shard : shards_) shard->request_sync();
  const auto settle_start = Clock::now();
  while (pending_syncs > 0) {
    bool any = false;
    for (auto& queue : event_queues_) {
      while (queue->try_pop(event)) {
        any = true;
        if (event.kind == ShardEvent::Kind::kSync) {
          --pending_syncs;
          continue;
        }
        apply_event(event);
      }
    }
    if (pending_syncs == 0) break;
    if (!any) {
      if (timeout_ms >= 0 && ms_between(settle_start, Clock::now()) >= timeout_ms) {
        break;  // defensive: never outwait the idle budget on the barrier
      }
      std::unique_lock lock(wake_mutex_);
      wake_cv_.wait_for(lock, std::chrono::milliseconds(1));
    }
  }

  // One final sweep picks up anything queued behind the acks before loss
  // finalizes.
  for (auto& queue : event_queues_) {
    while (queue->try_pop(event)) apply_event(event);
  }
  finalize_udp_sessions();
  return true;
}

telemetry::Dataset Collector::take_dataset() {
  dataset_.sort_by_time();
  return std::exchange(dataset_, telemetry::Dataset{});
}

std::size_t Collector::checkpoint(const std::string& path) const {
  telemetry::Dataset copy = dataset_;
  copy.sort_by_time();
  telemetry::write_binlog_file(path, copy);
  std::size_t open_gaps = 0;
  {
    std::lock_guard lock(sessions_mutex_);
    for (const auto& [id, session] : sessions_) {
      const std::size_t gaps = session.missing.size() + session.dg_missing.size();
      if (gaps > 0) {
        obs::log_info("collector.checkpoint_gaps", {{"session", id}, {"gaps", gaps}});
        open_gaps += gaps;
      }
    }
  }
  obs::log_info("collector.checkpoint",
                {{"path", path}, {"records", copy.size()}, {"open_gaps", open_gaps}});
  return copy.size();
}

CollectorThread::CollectorThread(std::size_t expected_goodbyes,
                                 const CollectorOptions& options, int timeout_ms)
    : collector_(options), port_(collector_.port()) {
  thread_ = std::thread([this, expected_goodbyes, timeout_ms] {
    const bool complete = collector_.serve_until_goodbye(expected_goodbyes, timeout_ms);
    complete_.store(complete, std::memory_order_release);
    done_.store(true, std::memory_order_release);
  });
}

CollectorThread::~CollectorThread() {
  if (thread_.joinable()) thread_.join();
}

telemetry::Dataset CollectorThread::join() {
  if (thread_.joinable()) thread_.join();
  std::lock_guard lock(mutex_);
  return collector_.take_dataset();
}

CollectorStats CollectorThread::stats() const {
  // No lock needed: Collector::stats() reads relaxed atomics, which is the
  // point of the migration — this is safe while the serve loop is live.
  return collector_.stats();
}

}  // namespace autosens::net
